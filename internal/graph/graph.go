// Package graph provides the partitioning machinery of the SunFloor 3D flow:
// weighted directed graphs and balanced k-way min-cut partitioning
// (recursive bisection with Kernighan–Lin style swap refinement), which
// implements the "min-cut partitions" steps of Algorithms 1 and 2 of the
// paper.
package graph

import (
	"fmt"
	"sort"
)

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

// NumEdges returns the number of directed edges with non-zero weight.
func (g *Graph) NumEdges() int {
	c := 0
	for _, m := range g.adj {
		c += len(m)
	}
	return c
}

// AddEdge adds weight w to the directed edge u->v (creating it if needed).
// It panics if a vertex is out of range or w is negative: edges are only
// ever added by this package's callers from validated indices and
// non-negative weights (bandwidths, their Definition 3–5 scalings, unit
// weights), so either is a programming error. The partitioner's swap search
// relies on the weights being non-negative (see bestSwap).
func (g *Graph) AddEdge(u, v int, w float64) {
	g.check(u)
	g.check(v)
	if w < 0 {
		panic(fmt.Sprintf("graph: negative weight %g on edge %d->%d", w, u, v))
	}
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
