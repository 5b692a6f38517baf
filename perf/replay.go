package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"sunfloor3d"
	"sunfloor3d/internal/contend"
	"sunfloor3d/internal/fault"
	"sunfloor3d/internal/graph"
	"sunfloor3d/internal/model"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/partition"
	"sunfloor3d/internal/place"
	"sunfloor3d/internal/route"
	"sunfloor3d/internal/sim"
	"sunfloor3d/internal/synth"
	"sunfloor3d/internal/topology"
)

// The traced run learns where a call's time goes without instrumenting the
// engine: it records every attempt the engine reports through its progress
// events, then rebuilds each attempt from scratch by calling the layers'
// public functions in the order the engine calls them (partition, topology,
// route, place, topology evaluation, contend, sim, fault), each under a span.
// A gate keeps the replay honest: every retained valid point must re-evaluate
// to exactly the bytes the engine produced.

// layerCounts accumulates what the replays of one traced run counted.
type layerCounts struct {
	attempts, retained, pruned           int
	elapsed, discarded                   time.Duration
	routeCalls, routeFails               int
	deadlockRetries, indirect            int
	faultPlans, faultRepaired, faultDead int
	simCycles, simFlits                  int64
	gateChecked                          int
}

// pointView is what the gate compares: everything the engine serialises
// about a point's evaluation, plus its simulation statistics.
type pointView struct {
	Metrics       sunfloor3d.Metrics             `json:"metrics"`
	Route         sunfloor3d.RouteStats          `json:"route_stats"`
	Survivability *sunfloor3d.Survivability      `json:"survivability,omitempty"`
	Contention    *sunfloor3d.ContentionEstimate `json:"contention,omitempty"`
	Sim           *sunfloor3d.SimStats           `json:"sim,omitempty"`
}

func viewOf(p *sunfloor3d.DesignPoint) pointView {
	return pointView{Metrics: p.Metrics, Route: p.Route, Survivability: p.Survivability, Contention: p.Contention, Sim: p.Sim}
}

// publicMetrics converts evaluated metrics to the facade type the engine
// serialises.
func publicMetrics(m topology.Metrics) sunfloor3d.Metrics {
	return sunfloor3d.Metrics{
		Power: sunfloor3d.PowerBreakdown{
			SwitchMW:     m.Power.SwitchMW,
			SwitchLinkMW: m.Power.SwitchLinkMW,
			CoreLinkMW:   m.Power.CoreLinkMW,
			NIMW:         m.Power.NIMW,
		},
		AvgLatencyCycles:  m.AvgLatencyCycles,
		MaxLatencyCycles:  m.MaxLatencyCycles,
		TotalWireLengthMM: m.TotalWireLengthMM,
		NoCAreaMM2:        m.NoCAreaMM2,
		MaxILL:            m.MaxILL,
		TSVMacros:         m.TSVMacros,
		NumSwitches:       m.NumSwitches,
		LatencyViolations: m.LatencyViolations,
		SpareTSVMacros:    m.SpareTSVMacros,
		WireLengthsMM:     m.WireLengthsMM,
	}
}

// partCache mirrors the engine's per-call partition cache: every
// partitioning graph and partition is computed once per design variant, on
// first use, under a span.
type partCache struct {
	g          *model.CommGraph
	par        partition.Params
	graphs     map[float64]*graph.Graph
	assigns    map[partKey][]int
	lpgs       []partition.LPG
	lpgAssigns map[partKey]map[int]int
}

// partKey is a theta (or layer index) and a block count.
type partKey struct {
	theta float64
	k     int
}

func newPartCache(g *model.CommGraph, par partition.Params) *partCache {
	return &partCache{g: g, par: par, graphs: map[float64]*graph.Graph{},
		assigns: map[partKey][]int{}, lpgAssigns: map[partKey]map[int]int{}}
}

// graph returns the PG (theta 0) or the theta-scaled SPG.
func (c *partCache) graph(r *replayer, theta float64) *graph.Graph {
	if g, ok := c.graphs[theta]; ok {
		return g
	}
	var g *graph.Graph
	if theta == 0 {
		r.do(r.root, "partition.BuildPG", func() { g = partition.BuildPG(c.g, c.par.Alpha) })
	} else {
		base := c.graph(r, 0)
		r.do(r.root, "partition.BuildSPGFrom", func() { g = partition.BuildSPGFrom(base, c.g, theta, c.par.ThetaMax) })
	}
	c.graphs[theta] = g
	return g
}

func (c *partCache) coreAssignment(r *replayer, parent int, theta float64, k int) []int {
	key := partKey{theta, k}
	if a, ok := c.assigns[key]; ok {
		return a
	}
	pg := c.graph(r, theta)
	var a []int
	r.do(parent, "partition.PartitionCores", func() { a = partition.PartitionCores(pg, k) })
	c.assigns[key] = a
	return a
}

func (c *partCache) layerGraphs(r *replayer) []partition.LPG {
	if c.lpgs == nil {
		r.do(r.root, "partition.BuildLPGs", func() { c.lpgs = partition.BuildLPGs(c.g, c.par) })
	}
	return c.lpgs
}

func (c *partCache) lpgAssignment(r *replayer, parent, layer int, l partition.LPG, k int) map[int]int {
	key := partKey{float64(layer), k}
	if a, ok := c.lpgAssigns[key]; ok {
		return a
	}
	var a map[int]int
	r.do(parent, "partition.PartitionLPG", func() { a = partition.PartitionLPG(l, k) })
	c.lpgAssigns[key] = a
	return a
}

// replayCell is one cell of a call's enumeration: one frequency of the
// classic sweep, or one (frequency, layer count, link width) cell of the
// explorer.
type replayCell struct {
	freq  float64
	lib   noclib.Library
	parts *partCache
}

// attempt is one replayed design-point build.
type attempt struct {
	cell     int
	point    sunfloor3d.DesignPoint // the engine's view, from the progress event
	top      *topology.Topology     // nil unless the attempt reached evaluation
	metrics  topology.Metrics
	view     pointView
	retained bool
}

// attemptKey identifies an attempt within a call.
type attemptKey struct {
	cell, phase, switches int
	theta                 float64
}

// replayer replays one traced call.
type replayer struct {
	tr     *tracer
	trace  string
	root   int
	design *model.CommGraph
	opt    synth.Options
	counts *layerCounts
}

func (r *replayer) do(parent int, name string, fn func()) { r.tr.do(r.trace, parent, name, fn) }

// replay rebuilds every attempt of one call, replays the best point's LP
// refinement and the floorplan insertion, and checks the gate. events are the
// call's progress events in delivery order; the call must have run serially.
func (r *replayer) replay(events []sunfloor3d.Event, res *sunfloor3d.Result) error {
	r.root = r.tr.begin(r.trace, 0, "synth.replay")
	defer r.tr.end(r.root)
	cells, err := r.cells()
	if err != nil {
		return err
	}
	n := r.design.NumCores()
	if len(res.Points) != len(cells)*n {
		return fmt.Errorf("replay: %d retained points, want %d cells x %d", len(res.Points), len(cells), n)
	}
	cellOf, err := segment(events, n, len(cells))
	if err != nil {
		return err
	}
	byKey := make(map[attemptKey][]*attempt)
	var all []*attempt
	for i, ev := range events {
		p := ev.Point
		if p.Phase == 0 {
			continue // a pruned stub: nothing was built
		}
		a, err := r.attempt(cellOf[i], cells[cellOf[i]], p)
		if err != nil {
			return err
		}
		r.counts.attempts++
		r.counts.elapsed += p.Elapsed
		k := attemptKey{a.cell, p.Phase, p.SwitchCount, p.Theta}
		byKey[k] = append(byKey[k], a)
		all = append(all, a)
	}

	var best *attempt
	for i := range res.Points {
		p := &res.Points[i]
		r.counts.retained++
		if p.Pruned {
			r.counts.pruned++
		}
		if p.Phase == 0 {
			continue
		}
		// The engine keeps the first valid attempt of a key (Phase-2 sweeps
		// can repeat a switch count) or, for an unmet count, its first try.
		var a *attempt
		for _, c := range byKey[attemptKey{i / n, p.Phase, p.SwitchCount, p.Theta}] {
			if !c.retained && c.point.Valid == p.Valid {
				a = c
				break
			}
		}
		if a == nil {
			return fmt.Errorf("replay: retained point %d (%g MHz, %d switches, phase %d) matches no reported attempt", i, p.FreqMHz, p.SwitchCount, p.Phase)
		}
		a.retained = true
		if i == res.BestIndex {
			best = a
			if r.opt.Space == nil && r.opt.LPOnBest && !r.opt.RunLPPlacement {
				if err := r.refine(cells[a.cell], a); err != nil {
					return err
				}
			}
		}
		if p.Valid {
			if err := gate(a.view, viewOf(p)); err != nil {
				return fmt.Errorf("replay gate: point %d (%g MHz, %d switches, phase %d, theta %g): %w", i, p.FreqMHz, p.SwitchCount, p.Phase, p.Theta, err)
			}
			r.counts.gateChecked++
		}
	}
	for _, a := range all {
		if !a.retained {
			r.counts.discarded += a.point.Elapsed
		}
	}
	if best != nil {
		// The CLI floorplans the best point (floorplan.txt); the insertion
		// works on a copy, like the facade's Topology.Floorplan.
		var err error
		r.do(r.root, "place.InsertNoC", func() { _, err = place.InsertNoC(best.top.Clone()) })
		if err != nil {
			return fmt.Errorf("replay: inserting the best point's NoC: %w", err)
		}
	}
	return nil
}

// gate compares a replayed view with the engine's, byte for byte.
func gate(got, want pointView) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("replayed evaluation differs from the engine's:\n replay %s\n engine %s", g, w)
	}
	return nil
}

// cells enumerates the call's cells in the engine's order: the frequencies of
// the classic sweep, or the explorer's frequency, then layer count, then link
// width nesting.
func (r *replayer) cells() ([]replayCell, error) {
	opt := r.opt
	if opt.Phase != synth.PhaseAuto {
		return nil, fmt.Errorf("replay: only the automatic phase policy is modelled")
	}
	base := newPartCache(r.design, opt.Partition)
	if opt.Space == nil {
		var out []replayCell
		for _, f := range opt.FrequenciesMHz {
			out = append(out, replayCell{freq: f, lib: opt.Lib, parts: base})
		}
		return out, nil
	}
	freqs, foldCounts, widths := opt.FrequenciesMHz, []float64{0}, []float64{0}
	for _, a := range opt.Space.Axes {
		switch a.Name {
		case synth.AxisFreqMHz:
			freqs = a.Values
		case synth.AxisLayerCount:
			foldCounts = a.Values
		case synth.AxisLinkWidthBits:
			widths = a.Values
		default:
			return nil, fmt.Errorf("replay: axis %q is not modelled", a.Name)
		}
	}
	// One partition cache per layer-count fold, shared by its cells, as in
	// the engine.
	folds := make([]*partCache, len(foldCounts))
	for i, lc := range foldCounts {
		if lc == 0 {
			folds[i] = base
			continue
		}
		g := r.design.Clone()
		for c := range g.Cores {
			g.Cores[c].Layer %= int(lc)
		}
		folds[i] = newPartCache(g, opt.Partition)
	}
	var out []replayCell
	for _, f := range freqs {
		for li := range foldCounts {
			for _, w := range widths {
				lib := opt.Lib
				if w > 0 {
					lib.LinkWidthBits = int(w)
				}
				out = append(out, replayCell{freq: f, lib: lib, parts: folds[li]})
			}
		}
	}
	return out, nil
}

// segment assigns every event of a serial run to its cell. Each cell emits
// exactly n events for its switch-count sweep (stubs for pruned cells), then
// its theta retries (theta > 0) and Phase-2 fallback points; the next cell
// starts with a theta-0 Phase-1 point or a stub.
func segment(events []sunfloor3d.Event, n, cells int) ([]int, error) {
	out := make([]int, len(events))
	i := 0
	for c := 0; c < cells; c++ {
		if i+n > len(events) {
			return nil, fmt.Errorf("replay: %d events end inside cell %d of %d", len(events), c, cells)
		}
		for k := 0; k < n; k++ {
			out[i] = c
			i++
		}
		for i < len(events) && events[i].Point.Phase != 0 && (events[i].Point.Phase == 2 || events[i].Point.Theta > 0) {
			out[i] = c
			i++
		}
	}
	if i != len(events) {
		return nil, fmt.Errorf("replay: %d events left after %d cells", len(events)-i, cells)
	}
	return out, nil
}

func (r *replayer) routeConfig(c replayCell, adjacentOnly bool) route.Config {
	cfg := route.DefaultConfig()
	cfg.MaxILL = r.opt.MaxILL
	cfg.SoftILLMargin = r.opt.SoftILLMargin
	cfg.MaxSwitchSize = c.lib.MaxSwitchSize(c.freq)
	cfg.AdjacentLayersOnly = adjacentOnly
	cfg.PowerWeight = r.opt.PowerWeight
	cfg.LatencyWeight = r.opt.LatencyWeight
	return cfg
}

// attempt replays one design-point build and stops where the engine stopped.
func (r *replayer) attempt(ci int, c replayCell, p sunfloor3d.DesignPoint) (*attempt, error) {
	a := &attempt{cell: ci, point: p}
	// The engine builds the partitioning graphs before it starts timing the
	// attempts that use them, so they are spans of the call, not the attempt.
	if p.Phase == 1 {
		c.parts.graph(r, p.Theta)
	} else {
		c.parts.layerGraphs(r)
	}
	id := r.tr.begin(r.trace, r.root, "synth.attempt")
	defer r.tr.end(id)

	var top *topology.Topology
	if p.Phase == 1 {
		top = r.buildPhase1(id, c, p)
	} else {
		var err error
		if top, err = r.buildPhase2(id, c, p); err != nil {
			return nil, err
		}
	}
	if top == nil {
		return a, nil // rejected before path computation
	}
	cfg := r.routeConfig(c, p.Phase == 2)
	var rr route.Result
	var err error
	r.do(id, "route.ComputePaths", func() { rr, err = route.ComputePaths(top, cfg) })
	r.counts.routeCalls++
	if err != nil || !rr.Success() {
		r.counts.routeFails++
		return a, nil
	}
	r.counts.deadlockRetries += rr.DeadlockRetries
	r.counts.indirect += rr.IndirectSwitches
	a.view.Route = sunfloor3d.RouteStats{Routed: rr.Routed, IndirectSwitches: rr.IndirectSwitches, DeadlockRetries: rr.DeadlockRetries}
	if r.opt.RunLPPlacement {
		r.do(id, "place.OptimizeSwitchPositions", func() { err = place.OptimizeSwitchPositions(top) })
		if err != nil {
			return a, nil
		}
	}
	r.do(id, "topology.Evaluate", func() { a.metrics = top.Evaluate() })
	a.top = top
	if p.Valid {
		if err := r.finish(id, top, &a.metrics, cfg, &a.view); err != nil {
			return nil, err
		}
	}
	a.view.Metrics = publicMetrics(a.metrics)
	return a, nil
}

// buildPhase1 builds a Phase-1 topology from the (S)PG partition, or returns
// nil when a switch exceeds the frequency's size limit or the core
// attachments alone break the inter-layer link limit.
func (r *replayer) buildPhase1(parent int, c replayCell, p sunfloor3d.DesignPoint) *topology.Topology {
	assign := c.parts.coreAssignment(r, parent, p.Theta, p.SwitchCount)
	var top *topology.Topology
	r.do(parent, "topology.build", func() {
		g := c.parts.g
		t := topology.New(g, c.lib, c.freq)
		maxSw := c.lib.MaxSwitchSize(c.freq)
		fits := true
		for _, block := range graph.Blocks(assign, p.SwitchCount) {
			sw := t.AddSwitch(partition.SwitchLayerFromBlock(g, block))
			for _, core := range block {
				t.AttachCore(core, sw)
			}
			fits = fits && len(block) <= maxSw
		}
		if !fits {
			return
		}
		t.EstimateSwitchPositions()
		if r.opt.MaxILL > 0 && t.MaxInterLayerLinks() > r.opt.MaxILL {
			return
		}
		top = t
	})
	return top
}

// buildPhase2 builds the layer-by-layer topology whose total switch count the
// event reports.
func (r *replayer) buildPhase2(parent int, c replayCell, p sunfloor3d.DesignPoint) (*topology.Topology, error) {
	lpgs := c.parts.layerGraphs(r)
	maxSw := c.lib.MaxSwitchSize(c.freq)
	minPer := make([]int, len(lpgs))
	maxExtra := 0
	for j, l := range lpgs {
		if n := len(l.Vertices); n > 0 {
			minPer[j] = (n + maxSw - 1) / maxSw
			maxExtra = max(maxExtra, n-minPer[j])
		}
	}
	if r.opt.MaxSwitchesPerLayer > 0 {
		maxExtra = min(maxExtra, r.opt.MaxSwitchesPerLayer)
	}
	perLayer := func(j, extra int) int { return max(1, min(minPer[j]+extra, len(lpgs[j].Vertices))) }
	extra := -1
	for e := 0; e <= maxExtra && extra < 0; e++ {
		total := 0
		for j, l := range lpgs {
			if len(l.Vertices) > 0 {
				total += perLayer(j, e)
			}
		}
		if total == p.SwitchCount {
			extra = e
		}
	}
	if extra < 0 {
		return nil, fmt.Errorf("replay: no Phase-2 step gives %d switches at %g MHz", p.SwitchCount, c.freq)
	}
	assigns := make([]map[int]int, len(lpgs))
	for j, l := range lpgs {
		if len(l.Vertices) > 0 {
			assigns[j] = c.parts.lpgAssignment(r, parent, j, l, perLayer(j, extra))
		}
	}
	var top *topology.Topology
	r.do(parent, "topology.build", func() {
		top = topology.New(c.parts.g, c.lib, c.freq)
		for j, l := range lpgs {
			if len(l.Vertices) == 0 {
				continue
			}
			first := top.NumSwitches()
			for b := 0; b < perLayer(j, extra); b++ {
				top.AddSwitch(l.Layer)
			}
			for core, block := range assigns[j] {
				top.AttachCore(core, first+block)
			}
		}
		top.EstimateSwitchPositions()
	})
	return top, nil
}

// finish runs the stages the engine runs on a valid point: the contention
// estimate, the simulation, and sparing plus the fault replay.
func (r *replayer) finish(parent int, top *topology.Topology, m *topology.Metrics, cfg route.Config, v *pointView) error {
	opt := r.opt
	var err error
	if opt.Contend {
		flits := 0
		if opt.Sim != nil {
			flits = opt.Sim.PacketFlits
		}
		r.do(parent, "contend.EstimatePoint", func() { v.Contention = contend.EstimatePoint(top, flits) })
	}
	if opt.Sim != nil {
		var st *sim.Stats
		r.do(parent, "sim.Run", func() { st, err = sim.Run(top, *opt.Sim) })
		if err != nil {
			return fmt.Errorf("replay: simulation: %w", err)
		}
		v.Sim = st
		r.counts.simCycles += st.Cycles
		r.counts.simFlits += st.FlitsDelivered
	}
	var sp *fault.SparingPlan
	if opt.Sparing != nil {
		r.do(parent, "fault.BuildSparing", func() { sp, err = fault.BuildSparing(top, *opt.Sparing) })
		if err != nil {
			return fmt.Errorf("replay: sparing: %w", err)
		}
		m.SpareTSVMacros = sp.SpareTSVs
	}
	if opt.Fault != nil {
		var rep *fault.Survivability
		r.do(parent, "fault.Replay", func() { rep, err = fault.Replay(top, cfg, *opt.Fault, sp, opt.Sim) })
		if err != nil {
			return fmt.Errorf("replay: fault replay: %w", err)
		}
		v.Survivability = rep
		r.counts.faultPlans += rep.Plans
		r.counts.faultRepaired += rep.Repaired
		r.counts.faultDead += rep.Dead
	}
	return nil
}

// refine replays the LP refinement the engine applies to the best point of a
// classic sweep: the refined topology replaces the point only when it is
// still valid and does not worsen the objective.
func (r *replayer) refine(c replayCell, a *attempt) error {
	id := r.tr.begin(r.trace, r.root, "synth.refine")
	defer r.tr.end(id)
	refined := a.top.Clone()
	var err error
	r.do(id, "place.OptimizeSwitchPositions", func() { err = place.OptimizeSwitchPositions(refined) })
	if err != nil {
		return nil
	}
	var m topology.Metrics
	r.do(id, "topology.Evaluate", func() { m = refined.Evaluate() })
	if !r.valid(c, refined, m) {
		return nil
	}
	cost := func(m topology.Metrics) float64 {
		return r.opt.PowerWeight*m.Power.TotalMW() + r.opt.LatencyWeight*m.AvgLatencyCycles
	}
	if cost(m) > cost(a.metrics) {
		return nil
	}
	v := a.view
	if err := r.finish(id, refined, &m, r.routeConfig(c, a.point.Phase == 2), &v); err != nil {
		return err
	}
	v.Metrics = publicMetrics(m)
	a.top, a.metrics, a.view = refined, m, v
	return nil
}

// valid checks an evaluated topology against the constraints of a classic
// sweep, the checks the engine applies to a refined best point.
func (r *replayer) valid(c replayCell, top *topology.Topology, m topology.Metrics) bool {
	if r.opt.MaxILL > 0 && m.MaxILL > r.opt.MaxILL {
		return false
	}
	maxSw := c.lib.MaxSwitchSize(c.freq)
	in, out := top.SwitchPorts()
	for i := range in {
		if in[i] > maxSw || out[i] > maxSw {
			return false
		}
	}
	return !r.opt.RequireLatencyMet || m.LatencyViolations == 0
}
