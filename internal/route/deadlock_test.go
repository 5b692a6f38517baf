package route

import (
	"math/rand"
	"testing"
)

// allVertices returns every vertex of g, the roots of a whole-graph search.
func allVertices(g *cdg) []int32 {
	roots := make([]int32, len(g.succ))
	for v := range roots {
		roots[v] = int32(v)
	}
	return roots
}

// acyclic decides acyclicity independently of cdg.cycleFrom: Kahn's
// algorithm removes vertices without incoming edges until none is left,
// which happens exactly when the graph has no cycle.
func acyclic(g *cdg) bool {
	indeg := make([]int, len(g.succ))
	for _, succ := range g.succ {
		for _, v := range succ {
			indeg[v]++
		}
	}
	var ready []int32
	for v, d := range indeg {
		if d == 0 {
			ready = append(ready, int32(v))
		}
	}
	removed := 0
	for len(ready) > 0 {
		u := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		removed++
		for _, v := range g.succ[u] {
			if indeg[v]--; indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	return removed == len(g.succ)
}

func TestCDGAddVertexAndEdges(t *testing.T) {
	var g cdg
	for want := int32(0); want < 2; want++ {
		if v := g.addVertex(); v != want {
			t.Fatalf("addVertex = %d, want %d", v, want)
		}
	}
	if !g.addEdge(0, 1) {
		t.Error("addEdge(0, 1) on an empty graph reported an existing edge")
	}
	if g.addEdge(0, 1) {
		t.Error("a repeated addEdge(0, 1) reported a new edge")
	}
	if first := g.addVertex(); first != 2 || g.addVertex() != 3 {
		t.Errorf("vertices after growing: first new %d, want 2 and 3", first)
	}
	if len(g.succ[0]) != 1 || g.succ[0][0] != 1 {
		t.Errorf("the edge (0, 1) was lost after adding vertices: %v", g.succ)
	}
	if !g.addEdge(3, 0) || !g.addEdge(3, 2) {
		t.Error("cannot add edges from a new vertex")
	}
	if g.cycleFrom(allVertices(&g)) {
		t.Error("spurious cycle after adding vertices")
	}
	g.dropLastEdge(3)
	if len(g.succ[3]) != 1 || g.succ[3][0] != 0 {
		t.Errorf("dropLastEdge(3) left %v, want [0]", g.succ[3])
	}
	if !g.addEdge(3, 2) {
		t.Error("a dropped edge is still reported as existing")
	}
}

func TestCDGCycleFrom(t *testing.T) {
	chain := func() *cdg {
		g := &cdg{}
		for i := 0; i < 4; i++ {
			g.addVertex()
		}
		g.addEdge(0, 1)
		g.addEdge(1, 2)
		g.addEdge(2, 3)
		return g
	}
	g := chain()
	if g.cycleFrom(allVertices(g)) {
		t.Error("chain should not have a cycle")
	}
	g.addEdge(3, 1)
	if !g.cycleFrom(allVertices(g)) {
		t.Error("cycle not detected")
	}
	if !g.cycleFrom([]int32{0}) {
		t.Error("cycle reachable from vertex 0 not detected")
	}
	g.dropLastEdge(3)
	if g.cycleFrom(allVertices(g)) {
		t.Error("cycle still detected after its closing edge was dropped")
	}
	// A diamond (two paths to the same vertex) is not a cycle.
	d := &cdg{}
	for i := 0; i < 4; i++ {
		d.addVertex()
	}
	d.addEdge(0, 1)
	d.addEdge(0, 2)
	d.addEdge(1, 3)
	d.addEdge(2, 3)
	if d.cycleFrom(allVertices(d)) {
		t.Error("diamond wrongly flagged as cycle")
	}
}

// TestCDGCycleFromHeadsMatchesAcyclic checks the property the router's
// deadlock check relies on: after a batch of edges is added to a DAG, a
// cycle search from the heads of the genuinely new edges agrees with a
// whole-graph acyclicity check. Each trial first searches the whole DAG, so
// the second search also checks that cycleFrom resets its reused colours.
func TestCDGCycleFromHeadsMatchesAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	outcomes := map[bool]int{}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(30)
		g := &cdg{}
		for i := 0; i < n; i++ {
			g.addVertex()
		}
		// A random DAG: edges only run forward in a random topological order.
		rank := rng.Perm(n)
		for e := rng.Intn(3 * n); e > 0; e-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if rank[u] < rank[v] {
				g.addEdge(int32(u), int32(v))
			}
		}
		if !acyclic(g) || g.cycleFrom(allVertices(g)) {
			t.Fatalf("trial %d: the generated DAG has a cycle", trial)
		}
		var heads []int32
		for e := rng.Intn(4); e >= 0; e-- {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v && g.addEdge(u, v) {
				heads = append(heads, v)
			}
		}
		got, want := g.cycleFrom(heads), !acyclic(g)
		if got != want {
			t.Fatalf("trial %d: cycleFrom(%v) = %v, whole-graph cycle = %v", trial, heads, got, want)
		}
		outcomes[want]++
	}
	if outcomes[true] == 0 || outcomes[false] == 0 {
		t.Fatalf("the trials never exercised both outcomes: %v", outcomes)
	}
}
