package route

import (
	"sunfloor3d/internal/topology"
)

// cdg is a channel dependency graph: one vertex per directed
// switch-to-switch link, an edge (a, b) when some flow traverses link a and
// then link b. Each adjacency list keeps its edges in the order they were
// added, so dropLastEdge undoes the latest addEdge from a vertex.
type cdg struct {
	succ [][]int32
	// color is cycleFrom's per-vertex scratch, reused across calls.
	color []uint8
}

// addVertex adds an isolated vertex and returns it.
func (g *cdg) addVertex() int32 {
	g.succ = append(g.succ, nil)
	return int32(len(g.succ) - 1)
}

// addEdge adds the edge (u, v) and reports whether it is new.
func (g *cdg) addEdge(u, v int32) bool {
	for _, w := range g.succ[u] {
		if w == v {
			return false
		}
	}
	g.succ[u] = append(g.succ[u], v)
	return true
}

// dropLastEdge removes the edge that was added last from u.
func (g *cdg) dropLastEdge(u int32) {
	g.succ[u] = g.succ[u][:len(g.succ[u])-1]
}

// cycleFrom reports whether a cycle is reachable from any of the roots.
// When a batch of edges is added to an acyclic graph, every new cycle
// passes through a new edge and therefore through its head, so cycleFrom
// with the heads of the batch decides whether the graph is still acyclic
// while visiting only what the new edges reach.
func (g *cdg) cycleFrom(roots []int32) bool {
	g.color = append(g.color[:0], make([]uint8, len(g.succ))...)
	for _, u := range roots {
		if g.color[u] == white && g.visit(u) {
			return true
		}
	}
	return false
}

// The colours of cycleFrom's depth-first search: unvisited, on the current
// path, finished.
const (
	white uint8 = iota
	grey
	black
)

// visit searches depth-first from u and reports whether it reached a vertex
// on the current path.
func (g *cdg) visit(u int32) bool {
	g.color[u] = grey
	for _, v := range g.succ[u] {
		switch g.color[v] {
		case grey:
			return true
		case white:
			if g.visit(v) {
				return true
			}
		}
	}
	g.color[u] = black
	return false
}

// DeadlockFree reports whether the committed routes are free of routing
// deadlocks: the channel dependency graph — one vertex per directed
// switch-to-switch link in use, one edge whenever some flow traverses two
// links in sequence — is acyclic. This is the static check Algorithm 3
// enforces while routing, rebuilt here from the routes alone; the flit-level
// simulator's runtime watchdog cross-validates it dynamically.
func DeadlockFree(t *topology.Topology) bool {
	linkIdx := newSquare(t.NumSwitches(), 0, int32(-1))
	var g cdg
	var heads []int32
	for _, r := range t.Routes {
		prev := int32(-1)
		for i := 1; i < len(r.Switches); i++ {
			from, to := r.Switches[i-1], r.Switches[i]
			v := linkIdx[from][to]
			if v < 0 {
				v = g.addVertex()
				linkIdx[from][to] = v
			}
			if prev >= 0 && g.addEdge(prev, v) {
				heads = append(heads, v)
			}
			prev = v
		}
	}
	// Every edge is new to the empty graph, so every cycle passes through
	// the head of one.
	return !g.cycleFrom(heads)
}
