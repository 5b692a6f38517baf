package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestAddAndQueryEdges(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 1, 3) // merged
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 2, 9) // self loop ignored

	if g.NumVertices() != 4 {
		t.Errorf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	if w := g.Weight(0, 1); w != 5 {
		t.Errorf("Weight(0,1) = %v, want 5", w)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("HasEdge misbehaves")
	}
}

func TestSuccessorsAndEdges(t *testing.T) {
	g := New(4)
	g.AddEdge(2, 0, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(2, 1, 1)
	s := g.Successors(2)
	if len(s) != 3 || s[0] != 0 || s[1] != 1 || s[2] != 3 {
		t.Errorf("Successors = %v", s)
	}
	es := g.Edges()
	if len(es) != 3 || es[0].From != 2 || es[0].To != 0 {
		t.Errorf("Edges = %v", es)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range vertex")
		}
	}()
	g := New(2)
	g.AddEdge(0, 5, 1)
}

func TestCloneAndUndirected(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 0, 3)
	g.AddEdge(1, 2, 1)

	c := g.Clone()
	c.AddEdge(2, 0, 9)
	if g.HasEdge(2, 0) {
		t.Error("Clone is not independent")
	}

	u := g.Undirected()
	if w := u.Weight(0, 1); w != 5 {
		t.Errorf("Undirected weight(0,1) = %v, want 5", w)
	}
	if w := u.Weight(1, 0); w != 5 {
		t.Errorf("Undirected weight(1,0) = %v, want 5", w)
	}
	if w := u.Weight(2, 1); w != 1 {
		t.Errorf("Undirected weight(2,1) = %v, want 1", w)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 1, 1)
	g.AddEdge(3, 4, 1)
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Errorf("component sizes wrong: %v", comps)
	}
	if comps[2][0] != 5 {
		t.Errorf("isolated vertex component = %v", comps[2])
	}
}

func TestCutWeight(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(2, 3, 7)
	g.AddEdge(1, 2, 3)
	assign := []int{0, 0, 1, 1}
	if cut := g.CutWeight(assign); cut != 3 {
		t.Errorf("CutWeight = %v, want 3", cut)
	}
	assign2 := []int{0, 1, 0, 1}
	if cut := g.CutWeight(assign2); cut != 15 {
		t.Errorf("CutWeight = %v, want 15", cut)
	}
}

func TestPartitionKBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 12, 26, 40} {
		g := New(n)
		for i := 0; i < 4*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 1+rng.Float64()*100)
		}
		for k := 1; k <= n; k++ {
			assign := PartitionK(g, k)
			sizes := BlockSizes(assign, k)
			lo, hi := n/k, (n+k-1)/k
			total := 0
			for b, s := range sizes {
				total += s
				if s < lo || s > hi {
					t.Fatalf("n=%d k=%d block %d has size %d, want in [%d,%d] (sizes=%v)",
						n, k, b, s, lo, hi, sizes)
				}
			}
			if total != n {
				t.Fatalf("n=%d k=%d sizes sum to %d", n, k, total)
			}
		}
	}
}

func TestPartitionKSeparatesObviousClusters(t *testing.T) {
	// Two cliques of 4 vertices connected by a single light edge must be
	// separated by a 2-way partition.
	g := New(8)
	heavy := 100.0
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j, heavy)
			g.AddEdge(i+4, j+4, heavy)
		}
	}
	g.AddEdge(0, 4, 1)
	assign := PartitionK(g, 2)
	for i := 1; i < 4; i++ {
		if assign[i] != assign[0] {
			t.Fatalf("clique A split: %v", assign)
		}
		if assign[i+4] != assign[4] {
			t.Fatalf("clique B split: %v", assign)
		}
	}
	if assign[0] == assign[4] {
		t.Fatalf("cliques not separated: %v", assign)
	}
	if cut := g.CutWeight(assign); cut != 1 {
		t.Errorf("cut = %v, want 1", cut)
	}
}

func TestPartitionKExtremes(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	one := PartitionK(g, 1)
	for _, b := range one {
		if b != 0 {
			t.Errorf("k=1 assignment = %v", one)
		}
	}
	all := PartitionK(g, 5)
	seen := map[int]bool{}
	for _, b := range all {
		if seen[b] {
			t.Errorf("k=n should give singleton blocks: %v", all)
		}
		seen[b] = true
	}
	// Empty graph.
	e := New(0)
	if got := PartitionK(e, 1); len(got) != 0 {
		t.Errorf("empty partition = %v", got)
	}
}

func TestPartitionKPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k=0")
		}
	}()
	PartitionK(New(3), 0)
}

func TestPartitionDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := New(20)
	for i := 0; i < 80; i++ {
		g.AddEdge(rng.Intn(20), rng.Intn(20), 1+rng.Float64()*50)
	}
	a := PartitionK(g, 4)
	b := PartitionK(g, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("PartitionK not deterministic at vertex %d", i)
		}
	}
}

// TestBlocksGrouping checks that Blocks lists each block's vertices in
// ascending order, skips labels outside [0, k), leaves an empty block nil
// and cuts the blocks so that appending to one never overwrites the next.
func TestBlocksGrouping(t *testing.T) {
	assign := []int{0, 1, 0, 2, 1, 5, -1, 0}
	blocks := Blocks(assign, 4)
	want := [][]int{{0, 2, 7}, {1, 4}, {3}, nil}
	if !reflect.DeepEqual(blocks, want) {
		t.Fatalf("Blocks = %#v, want %#v", blocks, want)
	}
	blocks[0] = append(blocks[0], 99)
	if !reflect.DeepEqual(blocks[1], want[1]) {
		t.Errorf("appending to block 0 changed block 1 to %v", blocks[1])
	}
}

func TestPartitionCutNotWorseThanNaive(t *testing.T) {
	// The refined partition should never have a larger cut than a naive
	// "first half / second half by index" split for a clustered graph.
	rng := rand.New(rand.NewSource(3))
	g := New(16)
	// Two communities: even vertices and odd vertices, heavily intra-connected.
	for i := 0; i < 16; i += 2 {
		for j := i + 2; j < 16; j += 2 {
			g.AddEdge(i, j, 10+rng.Float64())
			g.AddEdge(i+1, j+1, 10+rng.Float64())
		}
	}
	g.AddEdge(0, 1, 0.5)
	assign := PartitionK(g, 2)
	naive := make([]int, 16)
	for i := 8; i < 16; i++ {
		naive[i] = 1
	}
	if g.CutWeight(assign) > g.CutWeight(naive) {
		t.Errorf("refined cut %v worse than naive %v", g.CutWeight(assign), g.CutWeight(naive))
	}
}
