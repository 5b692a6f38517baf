package route

import (
	"fmt"
	"sort"

	"sunfloor3d/internal/topology"
)

// ComputePathsFullRebuild is the full-rebuild reference router: ComputePaths
// with the cost model built from scratch before every flow, so no arc state
// it searches was ever refreshed by costModel.applyCommit. Only a commit
// changes arc state, and a commit ends the flow, so this routes exactly as a
// rebuild before every attempt, the original CHECK_CONSTRAINTS loop, would.
func ComputePathsFullRebuild(t *topology.Topology, cfg Config) (Result, error) {
	if t.NumSwitches() == 0 {
		return Result{}, fmt.Errorf("route: topology has no switches")
	}
	for c, sw := range t.CoreAttach {
		if sw < 0 || sw >= t.NumSwitches() {
			return Result{}, fmt.Errorf("route: core %d is not attached to a switch", c)
		}
	}
	r := &router{top: t, cfg: cfg}
	r.init()
	var res Result
	for _, f := range t.Design.FlowsByBandwidth() {
		r.cost = newCostModel(r)
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
	}
	sort.Ints(res.Failed)
	res.DeadlockRetries = r.deadlock
	return res, nil
}
