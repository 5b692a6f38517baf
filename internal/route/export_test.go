package route

import (
	"fmt"
	"sort"

	"sunfloor3d/internal/topology"
)

// ComputePathsFullRebuild is the full-rebuild reference router: ComputePaths
// with all of its routing state — the arc table, the CDG, the switch
// records and the max_ill table — derived afresh from the core attachments
// and the committed routes before every flow (see rebuildFromRoutes), so no
// price it searches rests on state that router.commit kept up to date. Only
// a commit changes that state, and a commit ends the flow, so this routes
// exactly as a rebuild before every attempt, the original CHECK_CONSTRAINTS
// loop, would. It routes every flow, whatever cfg.StopAtFirstFailure says.
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

// rebuildFromRoutes replaces the router's routing state with new state
// derived from the topology's core attachments and committed routes alone
// (see deriveBookkeeping), never from the state under test: link existence
// and the CDG; each switch's port counts, port-opening marginals,
// max_sw_size verdicts and level; the boundary counts; and the max_ill
// table. A commit that loses a link, a port, a dependency or a verdict
// therefore cannot hide behind an identical read on both sides. The
// thresholds are Algorithm 3's, written out here as in referenceArcCost.
func (r *router) rebuildFromRoutes() {
	t, cfg := r.top, r.cfg
	b := deriveBookkeeping(t)
	n := t.NumSwitches()
	sizeVerdict := func(ports int) verdict {
		switch limit := cfg.MaxSwitchSize; {
		case limit > 0 && ports > limit:
			return verdictHard
		case limit > 0 && ports > limit-softSwitchMargin:
			return verdictSoft
		}
		return verdictNone
	}
	lowest := 0
	for _, s := range t.Switches {
		lowest = min(lowest, s.Layer)
	}
	r.sw = make([]switchState, n, n+r.spareSwitches())
	for s := range r.sw {
		r.sw[s] = switchState{
			inMarginal:  t.Lib.SwitchPortMarginalMW(b.in[s], t.FreqMHz),
			inVerdict:   sizeVerdict(b.in[s] + 1),
			outVerdict:  sizeVerdict(b.out[s] + 1),
			level:       t.Switches[s].Layer - lowest,
			outMarginal: t.Lib.SwitchPortMarginalMW(b.out[s], t.FreqMHz),
			inPorts:     b.in[s],
			outPorts:    b.out[s],
		}
	}
	r.ill, r.lowest, r.levels = b.ill, lowest, len(b.ill)+1-lowest
	r.illVerdict = make([]verdict, r.levels*r.levels)
	for x := 0; x < r.levels; x++ {
		for y := 0; y < r.levels; y++ {
			if x == y || cfg.MaxILL <= 0 {
				continue
			}
			switch cur := b.crowdedBoundary(lowest+x, lowest+y); {
			case cur >= cfg.MaxILL:
				r.illVerdict[x*r.levels+y] = verdictHard
			case cur >= cfg.MaxILL-cfg.SoftILLMargin:
				r.illVerdict[x*r.levels+y] = verdictSoft
			}
		}
	}

	r.arcs = newSquare(n, r.spareSwitches(), arc{})
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a := &r.arcs[i][j]
			r.geometry(a, i, j)
			a.blocked = i == j || cfg.AdjacentLayersOnly && a.span >= 2 || r.allowed != nil && !r.allowed[i][j]
		}
	}
	r.cdg = cdg{}
	for _, rt := range t.Routes {
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
}
