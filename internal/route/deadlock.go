package route

import (
	"sunfloor3d/internal/graph"
	"sunfloor3d/internal/topology"
)

// DeadlockFree reports whether the committed routes are free of routing
// deadlocks: the channel dependency graph — one vertex per directed
// switch-to-switch link in use, one edge whenever some flow traverses two
// links in sequence — is acyclic. This is the static check Algorithm 3
// enforces while routing, rebuilt here from the routes alone; the flit-level
// simulator's runtime watchdog cross-validates it dynamically.
func DeadlockFree(t *topology.Topology) bool {
	linkIdx := newSquare(t.NumSwitches(), 0, int32(-1))
	cdg := graph.New(0)
	for _, r := range t.Routes {
		prev := -1
		for i := 1; i < len(r.Switches); i++ {
			from, to := r.Switches[i-1], r.Switches[i]
			v := int(linkIdx[from][to])
			if v < 0 {
				v = cdg.Grow(1)
				linkIdx[from][to] = int32(v)
			}
			if prev >= 0 {
				cdg.AddEdge(prev, v, 1)
			}
			prev = v
		}
	}
	return !cdg.HasCycle()
}
