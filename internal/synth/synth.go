package synth

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"sunfloor3d/internal/contend"
	"sunfloor3d/internal/fault"
	"sunfloor3d/internal/graph"
	"sunfloor3d/internal/model"
	"sunfloor3d/internal/partition"
	"sunfloor3d/internal/place"
	"sunfloor3d/internal/route"
	"sunfloor3d/internal/sim"
	"sunfloor3d/internal/topology"
)

// Point is the serialised part of a design point: every field with a JSON
// tag is part of the canonical Result bytes, in this order, and is all a
// point keeps when it crosses a JSON boundary (a checkpoint record, a cache
// entry, a daemon response). The json-excluded fields describe how the
// point was computed, not what it is.
type Point struct {
	// FreqMHz is the NoC operating frequency of this point.
	FreqMHz float64 `json:"freq_mhz"`
	// SwitchCount is the number of switches requested by the sweep (the
	// actual topology may contain more if indirect switches were inserted).
	SwitchCount int `json:"switch_count"`
	// Phase is 1 or 2 depending on which connectivity method produced it.
	Phase int `json:"phase"`
	// Theta is the SPG scaling factor used (0 when the plain PG sufficed).
	Theta float64 `json:"theta,omitempty"`
	// Valid reports whether the point meets all constraints.
	Valid bool `json:"valid"`
	// Pruned reports that the design-space explorer proved the point cannot
	// beat an already-explored point and skipped building it: the point is a
	// stub (Valid false, Phase 0, no topology) whose FailReason names the
	// pruning decision. Pruning is exact: a pruned run's Pareto front and
	// best point are byte-identical to the brute-force run's.
	Pruned bool `json:"pruned,omitempty"`
	// FailReason explains why an invalid point was rejected (or, for Pruned
	// and shard-skipped stubs, why it was not built).
	FailReason string `json:"fail_reason,omitempty"`
	// Metrics is the evaluation of the point's topology.
	Metrics topology.Metrics `json:"metrics"`
	// Route reports what the router did for this point.
	Route RouteStats `json:"route_stats"`
	// Survivability is the fault-replay report of the point (nil unless the
	// run used the fault model and the point is valid). Unlike Sim it is
	// serialised: the replay is deterministic and the request fingerprint
	// covers the fault and sparing configuration.
	Survivability *fault.Survivability `json:"survivability,omitempty"`
	// Contention is the analytic M/D/1 contention estimate of the point (nil
	// unless the run asked for it and the point is valid). Like
	// Survivability it is serialised: the estimate is byte-deterministic and
	// the request fingerprint covers the option.
	Contention *contend.Estimate `json:"contention,omitempty"`
	// SimTriage is the fidelity-ladder decision for the point when the run
	// has a sim band: "sim" for points inside the estimated Pareto band
	// (fully simulated), "skip" for points outside it (analytic estimate
	// only). Empty without a sim band.
	SimTriage string `json:"sim_triage,omitempty"`
	// Elapsed is the wall-clock time spent building, routing and evaluating
	// this point. It is excluded from JSON so that serialised results stay
	// byte-identical across runs, parallelism levels and cache settings.
	Elapsed time.Duration `json:"-"`
	// Sim is the flit-level traffic simulation of this point (nil unless the
	// run simulates and the point is valid). Like Elapsed it is excluded
	// from JSON, so serialised results are byte-identical with and without
	// simulation.
	Sim *sim.Stats `json:"-"`
	// SimElapsed is the wall-clock time spent simulating this point (zero
	// when simulation was not requested or the point was invalid). It is
	// part of Elapsed and excluded from JSON like it.
	SimElapsed time.Duration `json:"-"`
}

// RouteStats reports what the path-computation step did for one design
// point. Routing is deterministic given the topology, so the stats are
// identical between serial, parallel, cached and uncached runs.
type RouteStats struct {
	// Routed is the number of flows that received a valid path.
	Routed int `json:"routed"`
	// FailedFlows is the number of flows that could not be routed. A theta
	// retry or Phase-2 fallback step stops routing at its first unroutable
	// flow and reports 1 (see sweep.finish); the sweep keeps such a step
	// only when it is valid, so no serialised point reports a stopped count.
	FailedFlows int `json:"failed_flows,omitempty"`
	// IndirectSwitches is the number of switches the router inserted purely
	// to connect other switches.
	IndirectSwitches int `json:"indirect_switches,omitempty"`
	// DeadlockRetries counts path recomputations forced by channel
	// dependency cycles.
	DeadlockRetries int `json:"deadlock_retries,omitempty"`
}

// Cost returns the scalar objective of the point under the given weights.
func (p Point) Cost(powerWeight, latencyWeight float64) float64 {
	return powerWeight*p.Metrics.Power.TotalMW() + latencyWeight*p.Metrics.AvgLatencyCycles
}

// DesignPoint is one explored topology with its evaluation.
type DesignPoint struct {
	Point
	// Topology is the synthesized NoC (nil for pruned and shard-skipped
	// stubs, and for points restored from JSON).
	Topology *topology.Topology `json:"-"`
}

// Result is the outcome of a synthesis run.
type Result struct {
	// Points holds every explored design point (valid and invalid), ordered
	// by frequency then switch count.
	Points []DesignPoint
	// Best is the valid point with the lowest objective, or nil when no valid
	// point exists.
	Best *DesignPoint
	// Cache reports the partition-cache activity of the run.
	Cache CacheStats
}

// ValidPoints returns only the valid design points.
func (r *Result) ValidPoints() []DesignPoint {
	var out []DesignPoint
	for _, p := range r.Points {
		if p.Valid {
			out = append(out, p)
		}
	}
	return out
}

// ParetoFront returns the valid points that are not dominated in
// (power, latency) by any other valid point, sorted by power.
func (r *Result) ParetoFront() []DesignPoint {
	valid := r.ValidPoints()
	power := make([]float64, len(valid))
	latency := make([]float64, len(valid))
	for i, p := range valid {
		power[i] = p.Metrics.Power.TotalMW()
		latency[i] = p.Metrics.AvgLatencyCycles
	}
	idx := ParetoIndices(power, latency)
	front := make([]DesignPoint, len(idx))
	for i, j := range idx {
		front[i] = valid[j]
	}
	return front
}

// ParetoIndices returns the indices of the points that are not dominated in
// (power, latency) by any other point, sorted by ascending power, keeping one
// representative (the lowest index) per distinct (power, latency) pair. The
// inputs are parallel slices. The scan is the standard sort-based O(n log n)
// Pareto sweep: after ordering by (power, latency, index), a point is on the
// front exactly when its latency strictly improves on everything before it.
func ParetoIndices(power, latency []float64) []int {
	n := len(power)
	if n == 0 {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if power[i] != power[j] {
			return power[i] < power[j]
		}
		if latency[i] != latency[j] {
			return latency[i] < latency[j]
		}
		return i < j
	})
	var front []int
	bestLatency := math.Inf(1)
	for _, i := range order {
		if latency[i] < bestLatency {
			front = append(front, i)
			bestLatency = latency[i]
		}
	}
	return front
}

// Synthesize runs the full SunFloor 3D flow on the design and returns all
// explored design points plus the best one. It is SynthesizeContext with a
// background context and no exploration hooks.
func Synthesize(g *model.CommGraph, opt Options) (*Result, error) {
	return SynthesizeContext(context.Background(), g, opt, ExplorationHooks{})
}

// SynthesizeContext runs the full SunFloor 3D flow on the design under the
// given context. The sweep (see exploreSpace) is decomposed into independent
// design-point evaluations executed on a bounded worker pool
// (Options.Parallelism wide); the ordering of Result.Points is deterministic
// and identical between serial and parallel runs. Cancelling the context
// stops the sweep promptly — points not yet started are abandoned — and
// returns the context's error. hooks decide which exploration cells this
// call computes, restores and persists (checkpointing and sharding); the
// zero hooks own every cell and restore and persist none. Like Progress they
// never change what a computed cell holds, so the options alone determine
// the result's bytes.
func SynthesizeContext(ctx context.Context, g *model.CommGraph, opt Options, hooks ExplorationHooks) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if g.NumCores() == 0 {
		return nil, fmt.Errorf("synth: design has no cores")
	}
	if g.NumFlows() == 0 {
		return nil, fmt.Errorf("synth: design has no communication flows")
	}

	p := newPool(ctx, opt)
	// The deferred close deregisters the run from its (possibly shared)
	// scheduler only after every stage has joined its workers, so a cancelled
	// run drains all in-flight evaluations before SynthesizeContext returns
	// and never leaks a goroutine or an evaluation slot.
	defer p.close()
	// One placement memo for the whole run: the LP's input recurs across
	// frequencies and layer-count folds (a fold keeps every planar core
	// centre), so per-fold memos would miss most repeats.
	var placements *place.Memo
	if opt.RunLPPlacement {
		placements = place.NewMemo()
	}
	return exploreSpace(ctx, g, opt, hooks, placements, p)
}

// refineBest applies the switch-placement refinement to the winning design
// point. The refined topology goes through the same analysis tail as every
// swept point (evaluation, constraint checks, contention estimate,
// simulation, sparing and fault replay) on a copy of the best point, and the
// copy replaces the best point only when it is still valid and does not
// worsen the objective; otherwise the unrefined point — which was already
// the minimum over all valid points — is kept whole, so Best never silently
// ships a refinement that broke a constraint or lost to another point.
func refineBest(res *Result, opt Options, refine func(*topology.Topology) error) {
	best := res.Best
	if best == nil || best.Topology == nil {
		return
	}
	refined := best.Topology.Clone()
	if err := refine(refined); err != nil {
		return
	}
	// Points the fidelity ladder triaged out stay unsimulated.
	simulate := opt.Sim != nil && (opt.SimBand == 0 || best.SimTriage == "sim")
	dp := *best
	dp.Valid = false // analyse validates the refined geometry afresh
	s := &sweep{opt: opt, freq: best.FreqMHz}
	dp = s.analyse(refined, s.routeConfig(best.Phase == 2), dp, simulate)
	if dp.Valid && dp.Cost(opt.PowerWeight, opt.LatencyWeight) <= best.Cost(opt.PowerWeight, opt.LatencyWeight) {
		*best = dp
	}
}

// pickBest returns a pointer to the best valid point in pts (the slice
// element itself, so later refinement updates the stored point too).
func pickBest(pts []DesignPoint, opt Options) *DesignPoint {
	bestIdx := -1
	bestCost := math.MaxFloat64
	for i, p := range pts {
		if !p.Valid {
			continue
		}
		c := p.Cost(opt.PowerWeight, opt.LatencyWeight)
		if c < bestCost {
			bestCost = c
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return nil
	}
	return &pts[bestIdx]
}

// timed runs one design-point build and stamps its wall-clock duration.
//
//determlint:wallclock Elapsed is json-excluded observability plumbing and never reaches the serialised Result
func timed(build func() DesignPoint) DesignPoint {
	start := time.Now()
	dp := build()
	dp.Elapsed = time.Since(start)
	return dp
}

// sweep is the switch-count sweep of one exploration cell: Algorithms 1 and
// 2 at one operating frequency on one layer fold of the design, with
// everything its attempts read. exploreSpace builds one per computed cell;
// refineBest builds one with only the run's options and the best point's
// frequency, for the analysis tail.
type sweep struct {
	// g is the cell's layer fold of the design, freq its frequency in MHz.
	g    *model.CommGraph
	freq float64
	// opt is the run's options with the cell's link width and VC count.
	opt Options
	// counts lists the Phase-1 switch counts, one sweep slot each: the
	// switch_count axis values, or 1..NumCores without that axis.
	counts []int
	// prune, when non-nil, is the branch-and-bound hook consulted before a
	// Phase-1 point is built: a non-empty return is the prune reason, and the
	// point becomes a stub that is neither partitioned, routed nor evaluated.
	prune func(switches int) string
	// tsvBudget, when positive, invalidates points that need more TSV macros
	// (the cell's tsv_budget axis value).
	tsvBudget int
	// cache is the fold's partition cache, p the run's pool and placements
	// the run's switch-placement memo (nil without RunLPPlacement).
	cache      *partitionCache
	p          *pool
	placements *place.Memo
}

// run explores every switch count of the cell, choosing Phase 1 or Phase 2
// per the configured policy.
func (s *sweep) run() ([]DesignPoint, error) {
	switch s.opt.Phase {
	case Phase2Only:
		lpgs, minPerLayer, maxExtra := s.phase2Plan()
		steps := make([]int, maxExtra+1)
		for e := range steps {
			steps[e] = e
		}
		return s.phase2(lpgs, minPerLayer, steps, false)
	case Phase1Only:
		return s.phase1(false)
	default:
		// Auto: Phase 1 with Phase 2 as fallback for unmet switch counts.
		return s.phase1(true)
	}
}

// phase1 implements Algorithm 1 over s.counts, one sweep slot per count. The
// initial sweep and every theta retry round fan out onto the worker pool;
// the rounds themselves stay sequential because each one only re-attempts
// the slots the previous round left unmet. When fallbackPhase2 is set, slots
// that remain unmet after the theta sweep are retried with the
// layer-by-layer method.
//
// Attempts whose outcome is decided before they run are never built, so they
// are neither scheduled nor reported to the progress stream:
//
//   - A theta retry whose core assignment equals one already tried for its
//     slot (at theta 0 or an earlier theta). A Phase-1 point depends on theta
//     only through that assignment and its Theta label, so the retry would
//     build the topology that already failed and fail the same way, and a
//     failed retry is never retained. The slot's tried assignments are local
//     to this call (one frequency, library, TSV budget and layer fold, on
//     all of which validity depends). Each round resolves its assignments on
//     the calling goroutine before it schedules the new ones.
//   - A Phase-2 fallback step whose switch count matches no unmet slot. The
//     fallback retains, per unmet slot, the first valid step with the slot's
//     count, and a step's count is known from phase2Plan before it is built
//     (phase2LayerSwitches per non-empty layer), so building only the
//     matching steps in ascending order retains the same points.
//
// A theta retry and a fallback step are retained only when valid, so they
// stop routing at their first unroutable flow (see finish): a failed one
// reports that flow alone, and only the progress stream sees it.
func (s *sweep) phase1(fallbackPhase2 bool) ([]DesignPoint, error) {
	counts := s.counts
	pg := s.cache.pg(0)
	points := make([]DesignPoint, len(counts))
	tried := make([][][]int, len(counts)) // per slot, the core assignments built so far
	err := s.p.forEach(len(counts),
		func(i int) DesignPoint {
			return timed(func() DesignPoint {
				// Branch and bound (explorer only): the bound is
				// build-independent — a function of the frequency and switch
				// count alone — so a pruned count computes no partition and
				// is never retried (see below).
				if s.prune != nil {
					if reason := s.prune(counts[i]); reason != "" {
						return DesignPoint{Point: Point{FreqMHz: s.freq, SwitchCount: counts[i], Pruned: true, FailReason: reason}}
					}
				}
				assign := s.cache.coreAssignment(pg, 0, counts[i])
				tried[i] = [][]int{assign}
				return s.phase1Point(assign, counts[i], 0)
			})
		},
		func(i int, dp DesignPoint) { points[i] = dp })
	if err != nil {
		return nil, err
	}
	var unmet []int // slots
	for i := range points {
		// Pruned stubs are proven unable to reach the front or the best
		// point, so they are never retried by theta rescaling or the Phase-2
		// fallback either.
		if !points[i].Valid && !points[i].Pruned {
			unmet = append(unmet, i)
		}
	}

	// Theta scaling loop (steps 11-19 of Algorithm 1).
	if len(unmet) > 0 && s.g.NumLayers() > 1 {
		for _, theta := range s.opt.Partition.ThetaSweep() {
			if len(unmet) == 0 {
				break
			}
			spg := s.cache.pg(theta)
			var slots []int // the unmet slots whose assignment is new
			var assigns [][]int
			for _, i := range unmet {
				if err := s.p.ctx.Err(); err != nil {
					return nil, err
				}
				assign := s.cache.coreAssignment(spg, theta, counts[i])
				if slices.ContainsFunc(tried[i], func(a []int) bool { return slices.Equal(a, assign) }) {
					continue
				}
				tried[i] = append(tried[i], assign)
				slots = append(slots, i)
				assigns = append(assigns, assign)
			}
			retried := make([]DesignPoint, len(slots))
			err := s.p.forEach(len(slots),
				func(j int) DesignPoint {
					return timed(func() DesignPoint { return s.phase1Point(assigns[j], counts[slots[j]], theta) })
				},
				func(j int, dp DesignPoint) { retried[j] = dp })
			if err != nil {
				return nil, err
			}
			for j, dp := range retried {
				if dp.Valid {
					points[slots[j]] = dp
				}
			}
			unmet = slices.DeleteFunc(unmet, func(i int) bool { return points[i].Valid })
		}
	}

	// Optional Phase-2 fallback for counts that even the SPG could not fix.
	if fallbackPhase2 && len(unmet) > 0 && s.g.NumLayers() > 1 {
		lpgs, minPerLayer, maxExtra := s.phase2Plan()
		need := make(map[int]bool, len(unmet))
		for _, i := range unmet {
			need[counts[i]] = true
		}
		var steps []int
		for e := 0; e <= maxExtra; e++ {
			total := 0
			for j, l := range lpgs {
				if len(l.Vertices) > 0 {
					total += phase2LayerSwitches(l, minPerLayer[j], e)
				}
			}
			if need[total] {
				steps = append(steps, e)
			}
		}
		p2, err := s.phase2(lpgs, minPerLayer, steps, true)
		if err != nil {
			return nil, err
		}
		for _, i := range unmet {
			// Find a valid Phase-2 point with a comparable total switch count.
			for _, dp := range p2 {
				if dp.Valid && dp.SwitchCount == counts[i] {
					points[i] = dp
					break
				}
			}
		}
	}
	return points, nil
}

// phase1Point builds and evaluates one Phase-1 design point for the given
// switch count from assign, the core partition of the PG (theta 0) or of the
// theta-scaled SPG. A theta retry (theta > 0) is retained only when valid,
// so it routes as a discardable point (see finish).
func (s *sweep) phase1Point(assign []int, switches int, theta float64) DesignPoint {
	dp := DesignPoint{Point: Point{FreqMHz: s.freq, SwitchCount: switches, Phase: 1, Theta: theta}}
	blocks := graph.Blocks(assign, switches)

	top := topology.New(s.g, s.opt.Lib, s.freq)
	top.Switches = make([]topology.Switch, 0, len(blocks))
	maxSwSize := s.opt.Lib.MaxSwitchSize(s.freq)
	for _, block := range blocks {
		var layer int
		if s.opt.SwitchLayer == LayerMajority {
			layer = partition.SwitchLayerMajority(s.g, block)
		} else {
			layer = partition.SwitchLayerFromBlock(s.g, block)
		}
		sw := top.AddSwitch(layer)
		for _, c := range block {
			top.AttachCore(c, sw)
		}
		// Pruning: a switch that already needs more core ports than the
		// frequency allows can never close timing.
		if len(block) > maxSwSize {
			dp.FailReason = fmt.Sprintf("switch with %d cores exceeds max switch size %d at %.0f MHz",
				len(block), maxSwSize, s.freq)
		}
	}
	if dp.FailReason != "" {
		dp.Topology = top
		return dp
	}
	top.EstimateSwitchPositions()

	// Pruning 3: check the inter-layer links needed just by the core
	// attachments before spending time on path computation.
	if s.opt.MaxILL > 0 {
		if ill := top.MaxInterLayerLinks(); ill > s.opt.MaxILL {
			dp.Topology = top
			dp.FailReason = fmt.Sprintf("core attachments alone need %d inter-layer links (max %d)", ill, s.opt.MaxILL)
			return dp
		}
	}
	return s.finish(top, dp, false, theta > 0)
}

// phase2 implements Algorithm 2: layer-by-layer core-to-switch connectivity
// with adjacent-layer-only vertical links. Every listed sweep step (number
// of extra switches per layer, from 0 to phase2Plan's maxExtra) is an
// independent design point evaluated on the worker pool; the points come
// back in the order of steps. discardable is set for the Phase-1 sweep's
// fallback, which retains a step only when it is valid (see finish).
func (s *sweep) phase2(lpgs []partition.LPG, minPerLayer, steps []int, discardable bool) ([]DesignPoint, error) {
	points := make([]DesignPoint, len(steps))
	err := s.p.forEach(len(steps),
		func(i int) DesignPoint {
			return timed(func() DesignPoint { return s.phase2Point(lpgs, minPerLayer, steps[i], discardable) })
		},
		func(i int, dp DesignPoint) { points[i] = dp })
	if err != nil {
		return nil, err
	}
	return points, nil
}

// phase2Plan computes the Phase-2 sweep prologue (steps 2-4 of Algorithm 2):
// the per-layer graphs, the minimum switches per layer, and the number of
// extra-switch steps to sweep. It is shared by the Phase-2 sweep, the
// Phase-1 sweep's fallback, which needs each step's switch count before it
// builds anything, and the explorer, which needs the sweep's point count
// (maxExtra+1) to shape the stubs of pruned and shard-skipped Phase-2 cells.
func (s *sweep) phase2Plan() (lpgs []partition.LPG, minPerLayer []int, maxExtra int) {
	lpgs = s.cache.layerGraphs()
	maxSwSize := s.opt.Lib.MaxSwitchSize(s.freq)

	minPerLayer = make([]int, len(lpgs))
	for j, l := range lpgs {
		n := len(l.Vertices)
		if n == 0 {
			minPerLayer[j] = 0
			continue
		}
		minPerLayer[j] = (n + maxSwSize - 1) / maxSwSize
		if extra := n - minPerLayer[j]; extra > maxExtra {
			maxExtra = extra
		}
	}
	if s.opt.MaxSwitchesPerLayer > 0 && maxExtra > s.opt.MaxSwitchesPerLayer {
		maxExtra = s.opt.MaxSwitchesPerLayer
	}
	return lpgs, minPerLayer, maxExtra
}

// phase2LayerSwitches returns the number of switches Phase-2 step `extra`
// puts on the layer of l, whose minimum is minimum: minimum+extra clamped
// to [1, |V_l|].
func phase2LayerSwitches(l partition.LPG, minimum, extra int) int {
	return max(1, min(minimum+extra, len(l.Vertices)))
}

// phase2Point builds and evaluates the Phase-2 design point with `extra`
// switches per layer beyond each layer's minimum.
func (s *sweep) phase2Point(lpgs []partition.LPG, minPerLayer []int, extra int, discardable bool) DesignPoint {
	dp := DesignPoint{Point: Point{FreqMHz: s.freq, Phase: 2}}
	top := topology.New(s.g, s.opt.Lib, s.freq)
	for j, l := range lpgs {
		if len(l.Vertices) == 0 {
			continue
		}
		np := phase2LayerSwitches(l, minPerLayer[j], extra)
		assignment := s.cache.lpgAssignment(j, l, np)
		// One switch per block on this layer: block b's is first+b.
		first := len(top.Switches)
		for b := 0; b < np; b++ {
			top.AddSwitch(l.Layer)
		}
		dp.SwitchCount += np
		//determlint:ordered AttachCore writes CoreAttach[core] exactly once per distinct core; keyed writes commute, so attachment state is order-independent
		for core, block := range assignment {
			top.AttachCore(core, first+block)
		}
	}
	top.EstimateSwitchPositions()
	return s.finish(top, dp, true, discardable)
}

// routeConfig returns the router configuration of the sweep's points;
// adjacentOnly restricts vertical links to adjacent layers (Phase 2).
func (s *sweep) routeConfig(adjacentOnly bool) route.Config {
	cfg := route.DefaultConfig()
	cfg.MaxILL = s.opt.MaxILL
	cfg.SoftILLMargin = s.opt.SoftILLMargin
	cfg.MaxSwitchSize = s.opt.Lib.MaxSwitchSize(s.freq)
	cfg.AdjacentLayersOnly = adjacentOnly
	cfg.PowerWeight = s.opt.PowerWeight
	cfg.LatencyWeight = s.opt.LatencyWeight
	return cfg
}

// finish routes top and, when every flow routed, places, evaluates and
// validates it; adjacentOnly selects the Phase-2 routing rule (see
// routeConfig). A discardable point, one the sweep retains only when it is
// valid, routes with route.Config.StopAtFirstFailure: a failing one stops at
// its first unroutable flow, reports that flow alone and names it in
// FailReason without claiming a total. The stop is set on the router's copy
// of the configuration only; analyse hands the plain one on to the fault
// replay.
func (s *sweep) finish(top *topology.Topology, dp DesignPoint, adjacentOnly, discardable bool) DesignPoint {
	cfg := s.routeConfig(adjacentOnly)
	rcfg := cfg
	rcfg.StopAtFirstFailure = discardable
	res, err := route.ComputePaths(top, rcfg)
	dp.Topology = top
	if err != nil {
		dp.FailReason = err.Error()
		return dp
	}
	dp.Route = RouteStats{Routed: res.Routed, FailedFlows: len(res.Failed),
		IndirectSwitches: res.IndirectSwitches, DeadlockRetries: res.DeadlockRetries}
	if !res.Success() {
		if discardable {
			dp.FailReason = fmt.Sprintf("flow %d could not be routed (routing stopped there)", res.Failed[0])
		} else {
			dp.FailReason = fmt.Sprintf("%d flows could not be routed", len(res.Failed))
		}
		return dp
	}
	if s.opt.RunLPPlacement {
		if err := s.placements.OptimizeSwitchPositions(top); err != nil {
			dp.FailReason = fmt.Sprintf("LP placement failed: %v", err)
			return dp
		}
	}
	// With SimBand active, simulation is deferred to the triage pass
	// (triageSimBand), which simulates only the estimated Pareto band.
	return s.analyse(top, cfg, dp, s.opt.Sim != nil && s.opt.SimBand == 0)
}

// analyse is the analysis tail of a routed (and placed) topology, shared by
// swept points and the refined best point: it evaluates top into dp,
// validates it against the run's constraints and, for a valid point,
// attaches the contention estimate, the simulation (when simulate is set),
// and the sparing and fault-replay report the run asks for. A failing
// constraint, simulation or fault replay leaves dp invalid with its reason.
func (s *sweep) analyse(top *topology.Topology, cfg route.Config, dp DesignPoint, simulate bool) DesignPoint {
	dp.Topology = top
	var in, out []int
	dp.Metrics, in, out = top.EvaluateWithPorts()
	if reason := s.validate(dp.Metrics, in, out); reason != "" {
		dp.FailReason = reason
		return dp
	}
	dp.Valid = true
	if s.opt.Contend {
		flits := 0
		if s.opt.Sim != nil {
			flits = s.opt.Sim.PacketFlits
		}
		dp.Contention = contend.EstimatePoint(top, flits)
	}
	if simulate {
		if dp = simulatePoint(dp, s.opt); !dp.Valid {
			return dp
		}
	}
	if s.opt.Sparing != nil || s.opt.Fault != nil {
		rep, spareTSVs, err := faultReport(top, s.opt, cfg)
		if err != nil {
			dp.Valid = false
			dp.FailReason = fmt.Sprintf("fault model: %v", err)
			return dp
		}
		dp.Survivability = rep
		dp.Metrics.SpareTSVMacros = spareTSVs
	}
	return dp
}

// validate checks an evaluated topology, its metrics m and the input and
// output port counts of its switches, against the run's constraints,
// returning a failure reason or "" when every constraint holds.
func (s *sweep) validate(m topology.Metrics, in, out []int) string {
	if s.opt.MaxILL > 0 && m.MaxILL > s.opt.MaxILL {
		return fmt.Sprintf("uses %d inter-layer links (max %d)", m.MaxILL, s.opt.MaxILL)
	}
	maxSw := s.opt.Lib.MaxSwitchSize(s.freq)
	for i := range in {
		if in[i] > maxSw || out[i] > maxSw {
			return fmt.Sprintf("switch %d has %dx%d ports (max %d at %.0f MHz)",
				i, in[i], out[i], maxSw, s.freq)
		}
	}
	if s.opt.RequireLatencyMet && m.LatencyViolations > 0 {
		return fmt.Sprintf("%d flows violate their latency constraint", m.LatencyViolations)
	}
	if s.tsvBudget > 0 && m.TSVMacros > s.tsvBudget {
		return fmt.Sprintf("needs %d TSV macros (budget %d)", m.TSVMacros, s.tsvBudget)
	}
	return ""
}

// simulatePoint runs the flit-level simulation of a valid point's topology
// and stamps its wall-clock duration; a simulation failure invalidates the
// point.
//
//determlint:wallclock SimElapsed is json-excluded observability plumbing and never reaches the serialised Result
func simulatePoint(dp DesignPoint, opt Options) DesignPoint {
	start := time.Now()
	stats, err := sim.Run(dp.Topology, *opt.Sim)
	if err != nil {
		dp.Valid = false
		dp.FailReason = fmt.Sprintf("simulation failed: %v", err)
		return dp
	}
	dp.Sim = stats
	dp.SimElapsed = time.Since(start)
	return dp
}

// faultReport provisions the spare plan (when sparing is configured) and
// replays the fault model (when the fault model is configured) against a
// valid, routed design point. It returns the survivability report (nil
// without a fault model) and the number of spare TSV macros the sparing pass
// added (0 without sparing). Both passes are deterministic, so the report is
// byte-identical between serial, parallel, cached and uncached runs.
func faultReport(top *topology.Topology, opt Options, cfg route.Config) (*fault.Survivability, int, error) {
	var sp *fault.SparingPlan
	if opt.Sparing != nil {
		var err error
		sp, err = fault.BuildSparing(top, *opt.Sparing)
		if err != nil {
			return nil, 0, err
		}
	}
	spareTSVs := 0
	if sp != nil {
		spareTSVs = sp.SpareTSVs
	}
	if opt.Fault == nil {
		return nil, spareTSVs, nil
	}
	rep, err := fault.Replay(top, cfg, *opt.Fault, sp, opt.Sim)
	if err != nil {
		return nil, 0, err
	}
	return rep, spareTSVs, nil
}
