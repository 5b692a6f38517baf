package route

import (
	"fmt"
	"sort"

	"sunfloor3d/internal/topology"
)

// ComputePathsFullRebuild is the full-rebuild reference router: ComputePaths
// with the arc table and the CDG rebuilt from the committed routes before
// every flow (see rebuildFromRoutes), so no arc state it searches was ever
// refreshed by router.applyCommit. Only a commit changes arc state, and a
// commit ends the flow, so this routes exactly as a rebuild before every
// attempt, the original CHECK_CONSTRAINTS loop, would. It routes every flow,
// whatever cfg.StopAtFirstFailure says.
func ComputePathsFullRebuild(t *topology.Topology, cfg Config) (Result, error) {
	res, _, err := ComputePathsFullRebuildFirstFailure(t, cfg)
	return res, err
}

// FirstFailure is the full-rebuild router's state right after the first
// flow, in routing order, that it could not route even with an inserted
// indirect switch: that flow, the Result so far (Failed holding that flow
// alone) and a clone of the topology then.
type FirstFailure struct {
	Flow   int
	Result Result
	Top    *topology.Topology
}

// ComputePathsFullRebuildFirstFailure is ComputePathsFullRebuild that also
// returns its state at its first failed flow (nil when every flow routed).
func ComputePathsFullRebuildFirstFailure(t *topology.Topology, cfg Config) (Result, *FirstFailure, error) {
	if t.NumSwitches() == 0 {
		return Result{}, nil, fmt.Errorf("route: topology has no switches")
	}
	for c, sw := range t.CoreAttach {
		if sw < 0 || sw >= t.NumSwitches() {
			return Result{}, nil, fmt.Errorf("route: core %d is not attached to a switch", c)
		}
	}
	r := &router{top: t, cfg: cfg}
	r.init()
	var res Result
	var first *FirstFailure
	for _, f := range t.Design.FlowsByBandwidth() {
		r.rebuildFromRoutes()
		if ok := r.routeFlow(f); ok {
			res.Routed++
		} else if cfg.AllowIndirectSwitches {
			routed, kept := r.tryWithIndirectSwitch(f)
			if routed {
				res.Routed++
				if kept {
					res.IndirectSwitches++
				}
			} else {
				res.Failed = append(res.Failed, f)
			}
		} else {
			res.Failed = append(res.Failed, f)
		}
		if first == nil && len(res.Failed) > 0 {
			at := res
			at.Failed = []int{f}
			at.DeadlockRetries = r.deadlock
			first = &FirstFailure{Flow: f, Result: at, Top: t.Clone()}
		}
	}
	sort.Ints(res.Failed)
	res.DeadlockRetries = r.deadlock
	return res, first, nil
}

// rebuildFromRoutes replaces the router's arc table and CDG with new ones.
// Link existence and the CDG come from the topology's committed routes
// alone, never from the table under test, so a refresh that loses a link or
// a dependency cannot hide behind an identical read on both sides; only
// then is every arc's geometry and state computed afresh.
func (r *router) rebuildFromRoutes() {
	n := r.top.NumSwitches()
	r.arcs = newSquare(n, r.spareSwitches(), arc{vertex: -1})
	r.cdg = cdg{}
	for _, rt := range r.top.Routes {
		prev := int32(-1)
		for k := 1; k < len(rt.Switches); k++ {
			from, to := rt.Switches[k-1], rt.Switches[k]
			r.arcs[from][to].exists = true
			v := r.linkVertex(from, to)
			if prev >= 0 {
				r.cdg.addEdge(prev, v)
			}
			prev = v
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a := &r.arcs[i][j]
			r.geometry(a, i, j)
			a.arcState = r.arcState(i, j, a.exists)
		}
	}
}
