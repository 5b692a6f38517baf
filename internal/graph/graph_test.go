package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
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
	g.SetEdge(0, 1, 7)
	if w := g.Weight(0, 1); w != 7 {
		t.Errorf("SetEdge: Weight = %v, want 7", w)
	}
	g.SetEdge(0, 1, 0)
	if g.HasEdge(0, 1) {
		t.Error("SetEdge(0) should remove the edge")
	}
	g.AddEdge(0, 3, 1)
	g.RemoveEdge(0, 3)
	if g.HasEdge(0, 3) {
		t.Error("RemoveEdge failed")
	}
}

func TestGrow(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 3)
	if first := g.Grow(2); first != 2 {
		t.Errorf("Grow(2) returned first index %d, want 2", first)
	}
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if !g.HasEdge(0, 1) || g.Weight(0, 1) != 3 {
		t.Error("existing edge lost after Grow")
	}
	g.AddEdge(3, 0, 1)
	if !g.HasEdge(3, 0) {
		t.Error("cannot add edge to grown vertex")
	}
	if g.HasCycle() {
		t.Error("spurious cycle after Grow")
	}
	if first := g.Grow(0); first != 4 || g.NumVertices() != 4 {
		t.Errorf("Grow(0) = %d with %d vertices, want 4 and 4", first, g.NumVertices())
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

func TestTotalWeight(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3.5)
	if tw := g.TotalWeight(); tw != 5.5 {
		t.Errorf("TotalWeight = %v", tw)
	}
}

func TestHasCycle(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	if g.HasCycle() {
		t.Error("chain should not have a cycle")
	}
	g.AddEdge(3, 1, 1)
	if !g.HasCycle() {
		t.Error("cycle not detected")
	}
	// A diamond (two paths to the same node) is not a cycle.
	d := New(4)
	d.AddEdge(0, 1, 1)
	d.AddEdge(0, 2, 1)
	d.AddEdge(1, 3, 1)
	d.AddEdge(2, 3, 1)
	if d.HasCycle() {
		t.Error("diamond wrongly flagged as cycle")
	}
}

// TestHasCycleFromMatchesHasCycle checks the property the router's deadlock
// check relies on: after a batch of edges is added to a DAG, a cycle search
// from the heads of the genuinely new edges agrees with a whole-graph
// HasCycle.
func TestHasCycleFromMatchesHasCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	outcomes := map[bool]int{}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(30)
		g := New(n)
		// A random DAG: edges only run forward in a random topological order.
		rank := rng.Perm(n)
		for e := rng.Intn(3 * n); e > 0; e-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if rank[u] < rank[v] {
				g.AddEdge(u, v, 1)
			}
		}
		if g.HasCycle() {
			t.Fatalf("trial %d: the generated DAG has a cycle", trial)
		}
		var heads []int
		for e := rng.Intn(4); e >= 0; e-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			g.AddEdge(u, v, 1)
			heads = append(heads, v)
		}
		got, want := g.HasCycleFrom(heads), g.HasCycle()
		if got != want {
			t.Fatalf("trial %d: HasCycleFrom(%v) = %v, HasCycle() = %v", trial, heads, got, want)
		}
		outcomes[want]++
	}
	if outcomes[true] == 0 || outcomes[false] == 0 {
		t.Fatalf("the trials never exercised both outcomes: %v", outcomes)
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

func TestShortestPath(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 5)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 4, 10)

	path, cost := g.ShortestPath(0, 3)
	if cost != 3 {
		t.Errorf("cost = %v, want 3", cost)
	}
	want := []int{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if c := g.ShortestPathCost(0, 3); c != 3 {
		t.Errorf("ShortestPathCost = %v", c)
	}
	// Unreachable destination.
	if p, c := g.ShortestPath(3, 0); p != nil || c != Infinity {
		t.Errorf("unreachable: path=%v cost=%v", p, c)
	}
	// Self path.
	if p, c := g.ShortestPath(2, 2); c != 0 || len(p) != 1 || p[0] != 2 {
		t.Errorf("self path = %v cost %v", p, c)
	}
	// Infinity-weight edges are ignored.
	gi := New(2)
	gi.AddEdge(0, 1, Infinity)
	if _, c := gi.ShortestPath(0, 1); c != Infinity {
		t.Errorf("Infinity edge should be unusable, cost = %v", c)
	}
}

func TestShortestPathsFrom(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 2)
	d := g.ShortestPathsFrom(0)
	if d[0] != 0 || d[1] != 2 || d[2] != 4 || d[3] != Infinity {
		t.Errorf("dist = %v", d)
	}
}

func TestHopDistance(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 100)
	g.AddEdge(1, 2, 100)
	g.AddEdge(0, 2, 1)
	if h := g.HopDistance(0, 2); h != 1 {
		t.Errorf("HopDistance = %d, want 1 (weights must be ignored)", h)
	}
	if h := g.HopDistance(0, 4); h != -1 {
		t.Errorf("HopDistance unreachable = %d, want -1", h)
	}
	if h := g.HopDistance(3, 3); h != 0 {
		t.Errorf("HopDistance self = %d, want 0", h)
	}
}

func TestShortestPathOptimalityProperty(t *testing.T) {
	// Dijkstra cost from 0 to every node must satisfy the relaxation
	// condition d[v] <= d[u] + w(u,v) for every edge.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			g.AddEdge(u, v, 1+rng.Float64()*10)
		}
		d := g.ShortestPathsFrom(0)
		for _, e := range g.Edges() {
			if d[e.From] < Infinity && d[e.To] > d[e.From]+e.Weight+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
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

func TestBlocksGrouping(t *testing.T) {
	assign := []int{0, 1, 0, 2, 1}
	blocks := Blocks(assign, 3)
	if len(blocks[0]) != 2 || len(blocks[1]) != 2 || len(blocks[2]) != 1 {
		t.Errorf("Blocks = %v", blocks)
	}
	if blocks[2][0] != 3 {
		t.Errorf("Blocks[2] = %v", blocks[2])
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
