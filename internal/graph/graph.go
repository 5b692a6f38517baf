// Package graph provides the generic graph machinery used by the SunFloor 3D
// flow: weighted directed graphs, reachability, cycle detection (for
// deadlock-freedom checks on channel dependency graphs) and balanced k-way
// min-cut partitioning (recursive bisection with Kernighan–Lin style swap
// refinement), which implements the "min-cut partitions" steps of
// Algorithms 1 and 2 of the paper.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Infinity is the cost of an unreachable vertex and the value callers use to
// mark forbidden arcs (the paper's INF hard threshold in Algorithm 3).
const Infinity = math.MaxFloat64

// Edge is a weighted directed edge.
type Edge struct {
	From, To int
	Weight   float64
}

// Graph is a weighted directed graph over vertices 0..N-1. Parallel edges are
// merged by summing their weights.
type Graph struct {
	n   int
	adj []map[int]float64 // adj[u][v] = weight of edge u->v
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	g := &Graph{n: n, adj: make([]map[int]float64, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]float64)
	}
	return g
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// Grow appends k isolated vertices to the graph and returns the index of the
// first new vertex. Existing vertices and edges are untouched, so callers can
// extend a graph in place instead of rebuilding it (the channel dependency
// graph of the router gains one vertex per newly opened link this way).
func (g *Graph) Grow(k int) int {
	first := g.n
	for i := 0; i < k; i++ {
		g.adj = append(g.adj, make(map[int]float64))
	}
	if k > 0 {
		g.n += k
	}
	return first
}

// NumEdges returns the number of directed edges with non-zero weight.
func (g *Graph) NumEdges() int {
	c := 0
	for _, m := range g.adj {
		c += len(m)
	}
	return c
}

// AddEdge adds weight w to the directed edge u->v (creating it if needed).
// It panics if a vertex is out of range: edges are only ever added by this
// package's callers from validated indices, so an out-of-range index is a
// programming error.
func (g *Graph) AddEdge(u, v int, w float64) {
	g.check(u)
	g.check(v)
	if u == v {
		return // ignore self loops; they never affect cuts or paths
	}
	g.adj[u][v] += w
}

// HasEdge reports whether the directed edge u->v exists.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	_, ok := g.adj[u][v]
	return ok
}

// Weight returns the weight of edge u->v (0 if absent).
func (g *Graph) Weight(u, v int) float64 {
	g.check(u)
	g.check(v)
	return g.adj[u][v]
}

// RemoveEdge deletes the directed edge u->v if present.
func (g *Graph) RemoveEdge(u, v int) {
	g.check(u)
	g.check(v)
	delete(g.adj[u], v)
}

// Successors returns the targets of all out-edges of u in ascending order.
func (g *Graph) Successors(u int) []int {
	g.check(u)
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Edges returns all edges sorted by (From, To) for deterministic iteration.
func (g *Graph) Edges() []Edge {
	var es []Edge
	for u, m := range g.adj {
		//determlint:ordered every (From, To) pair is appended exactly once and the final sort key (From, To) is total, so the returned order is independent of map order
		for v, w := range m {
			es = append(es, Edge{From: u, To: v, Weight: w})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
	})
	return es
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u, m := range g.adj {
		for v, w := range m {
			c.adj[u][v] = w
		}
	}
	return c
}

// Undirected returns a new graph where every edge u->v is mirrored as v->u
// with the weights of both directions summed. Partitioning operates on the
// undirected view of the communication graph.
func (g *Graph) Undirected() *Graph {
	u := New(g.n)
	for a, m := range g.adj {
		//determlint:ordered cell (x, y) receives exactly the weights of directed edges (x, y) and (y, x), always in ascending outer-index order; map order only permutes writes to distinct cells, which commute
		for b, w := range m {
			u.adj[a][b] += w //determlint:ordered see loop waiver: per-cell operand order is fixed by the outer slice index
			u.adj[b][a] += w //determlint:ordered see loop waiver: per-cell operand order is fixed by the outer slice index
		}
	}
	return u
}

// HasCycle reports whether the directed graph contains a cycle. It is used on
// channel dependency graphs to verify that a set of routes is deadlock free.
func (g *Graph) HasCycle() bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, g.n)
	var visit func(u int) bool
	visit = func(u int) bool {
		color[u] = grey
		//determlint:ordered cycle existence is a property of the edge set; the boolean result is identical for every visit order
		for v := range g.adj[u] {
			switch color[v] {
			case grey:
				return true
			case white:
				if visit(v) {
					return true
				}
			}
		}
		color[u] = black
		return false
	}
	for u := 0; u < g.n; u++ {
		if color[u] == white && visit(u) {
			return true
		}
	}
	return false
}

// HasCycleFrom reports whether a cycle is reachable from any of the given
// root vertices. When a batch of edges is added to an acyclic graph, every
// new cycle passes through a new edge and therefore through its head, so
// HasCycleFrom(heads of the batch) equals HasCycle() while visiting only
// what the new edges can reach. The router's deadlock check relies on this.
func (g *Graph) HasCycleFrom(roots []int) bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]uint8, g.n)
	var visit func(u int) bool
	visit = func(u int) bool {
		color[u] = grey
		//determlint:ordered cycle existence is a property of the edge set; the boolean result is identical for every visit order
		for v := range g.adj[u] {
			switch color[v] {
			case grey:
				return true
			case white:
				if visit(v) {
					return true
				}
			}
		}
		color[u] = black
		return false
	}
	for _, u := range roots {
		g.check(u)
		if color[u] == white && visit(u) {
			return true
		}
	}
	return false
}

// ConnectedComponents returns the weakly connected components of the graph as
// a slice of vertex slices, each sorted ascending, ordered by smallest member.
func (g *Graph) ConnectedComponents() [][]int {
	und := g.Undirected()
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			//determlint:ordered membership in a connected component is order-independent; each component is sorted below and components are emitted at their smallest vertex
			for v := range und.adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// CutWeight returns the total weight of edges crossing between different
// blocks of the given assignment (undirected sense: both directions counted
// once each as they appear in the directed graph).
func (g *Graph) CutWeight(block []int) float64 {
	if len(block) != g.n {
		panic(fmt.Sprintf("graph: CutWeight assignment length %d != %d vertices", len(block), g.n))
	}
	var cut float64
	for _, e := range g.Edges() {
		if block[e.From] != block[e.To] {
			cut += e.Weight
		}
	}
	return cut
}

func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}
