package synth

import (
	"context"
	"fmt"
	"math"
	"sync"

	"sunfloor3d/internal/model"
	"sunfloor3d/internal/place"
	"sunfloor3d/internal/topology"
)

// exploreSpace is the engine's one sweep driver: it enumerates the cross
// product of a Space's axes as (frequency, layer count, TSV budget, vcs, link
// width) cells whose interior is the switch-count sweep of Algorithms 1-2:
// one sweep value per computed cell (sweep.run). Cells are the unit of
// pruning, checkpointing and sharding, and hooks decide which cells this
// call computes, restores and persists. A run without Options.Space is the
// classic sweep: it explores the implicit space {NoPrune: true}, whose only
// axis is Options.FrequenciesMHz and whose switch counts run 1..NumCores. A
// layer_count axis folds the design onto each requested stacking depth (core
// layer mod L, planar positions kept), with one partition cache per fold; a
// tsv_budget axis re-evaluates validity under each TSV macro cap. Every
// cell's sweep shares the pool p and the placement memo placements (nil
// without RunLPPlacement).
//
// Unless Space.NoPrune is set, two exact pruning rules apply:
//
//   - Duplicate cells. VC count and link width influence no
//     result-affecting metric: validity, power and latency are computed
//     before (and independently of) simulation, the simulator parameterises
//     VCs/flit width but reports its statistics outside the serialised
//     result, and the link width only reaches the JSON through the TSV-macro
//     area term, which never enters the objective or the Pareto front. So
//     within one frequency only the first (vcs, lw) combination — the probe
//     cell — is evaluated; every other cell would reproduce the probe's
//     points at higher indices, where neither ParetoIndices (lowest-index
//     representative per (power, latency)) nor pickBest (strict improvement
//     only) can ever select them. Those cells become stubs.
//
//   - Branch and bound over switch counts. Cell 0 — the first probe, which
//     holds the lowest-indexed points of the whole space and is therefore
//     evaluated by every shard — supplies witness points. A switch count k
//     at frequency f is pruned when some valid witness sits at or below both
//     the analytic latency floor LatencyFloorCycles(f) and the analytic
//     power floor PowerFloorMW(f, k). Both floors hold for every topology
//     the engine can build at (f, k) regardless of partitioning, theta
//     retries or the Phase-2 fallback, so the skipped point is dominated (or
//     exactly duplicated) by an earlier-indexed witness and can reach
//     neither the front nor the best point. The power floor is monotone in
//     k, so pruning typically removes whole switch-count suffixes.
//
// Two steps need every point's live topology and run once over the whole
// sweep, for a classic sweep only: cutting the fidelity ladder's sim band
// over all points, and the LPOnBest refinement of the best point. An
// exploration cannot apply them, because its cells must be final when they
// are checkpointed: computed, restored and shard-merged cells are then
// byte-identical. So an exploration triages each cell before recording it
// and never refines; callers wanting refined switch positions re-run the
// winning cell as a classic sweep. Both steps are gated on Options.Space,
// which the request fingerprint covers, never on the hooks, so a run's bytes
// do not depend on whether it was resumed or sharded.
func exploreSpace(ctx context.Context, g *model.CommGraph, opt Options, hooks ExplorationHooks, placements *place.Memo, p *pool) (*Result, error) {
	wholeRun := opt.Space == nil
	sp := opt.Space
	if wholeRun {
		sp = &Space{NoPrune: true}
	}
	cells := sp.cells(opt)
	counts := sp.intValues(AxisSwitchCount)
	for _, c := range counts {
		if c > g.NumCores() {
			return nil, fmt.Errorf("synth: axis %s value %d exceeds the design's %d cores",
				AxisSwitchCount, c, g.NumCores())
		}
	}
	if counts == nil {
		counts = make([]int, g.NumCores())
		for i := range counts {
			counts[i] = i + 1
		}
	}
	prune := !sp.NoPrune
	owns := func(ci int) bool { return hooks.Own == nil || hooks.Own(ci) }

	// One partition cache per layer_count value (the design itself without
	// the axis), each holding its fold of the design: partitions are a
	// function of the layered graph, so folds can never share entries. The
	// folds are built upfront in axis order, which keeps the table
	// deterministic.
	folds := []*partitionCache{newPartitionCache(g, opt.Partition)}
	if lcVals := sp.intValues(AxisLayerCount); lcVals != nil {
		folds = make([]*partitionCache, len(lcVals))
		for i, lc := range lcVals {
			folds[i] = newPartitionCache(foldLayers(g, lc), opt.Partition)
		}
	}
	// sweepOf returns the switch-count sweep of cell ci: its fold and
	// frequency, the run's options with the cell's VC count and link width,
	// and the branch-and-bound hook pruneFn (nil when off).
	sweepOf := func(ci int, pruneFn func(int) string) *sweep {
		c := cells[ci]
		s := &sweep{g: folds[c.lcIdx].g, freq: c.freq, opt: opt, counts: counts, prune: pruneFn,
			tsvBudget: c.tsv, cache: folds[c.lcIdx], p: p, placements: placements}
		if c.vcs > 0 {
			scfg := *opt.Sim
			scfg.VCs = c.vcs
			s.opt.Sim = &scfg
		}
		if c.lw > 0 {
			s.opt.Lib.LinkWidthBits = c.lw
		}
		return s
	}

	perCell := make([][]DesignPoint, len(cells))

	// emitAll surfaces points that did not run through forEach (restored,
	// pruned-stub and skipped-stub cells) to the progress stream.
	emitAll := func(pts []DesignPoint) {
		p.addTotal(len(pts))
		for _, dp := range pts {
			p.emit(dp)
		}
	}
	// record stores a computed cell and hands it to the checkpoint hook.
	// Done calls are serialised across the concurrently-finishing cells, and
	// a Done error aborts the exploration: continuing would leave the caller
	// with a checkpoint that silently lags the computation.
	var doneMu sync.Mutex
	record := func(ci int, pts []DesignPoint) error {
		perCell[ci] = pts
		if hooks.Done != nil {
			doneMu.Lock()
			defer doneMu.Unlock()
			return hooks.Done(ci, pts)
		}
		return nil
	}
	restore := func(ci int) bool {
		if hooks.Restore == nil {
			return false
		}
		pts, ok := hooks.Restore(ci)
		if !ok {
			return false
		}
		perCell[ci] = pts
		emitAll(pts)
		return true
	}
	compute := func(ci int, pruneFn func(int) string) error {
		s := sweepOf(ci, pruneFn)
		pts, err := s.run()
		if err != nil {
			return err
		}
		// Fidelity ladder: an exploration triages the cell before it is
		// recorded, so checkpointed cells hold their final (triaged) points
		// and restored or shard-merged cells are never re-triaged. Any point
		// on the whole sweep's estimated front is also on its own cell's
		// front, so per-cell triage only widens the band.
		if !wholeRun {
			if err := triageSimBand(pts, s.opt, p); err != nil {
				return err
			}
		}
		return record(ci, pts)
	}
	// cellShape returns the point skeleton of a cell — one entry per point
	// the full sweep would produce, in order — without building anything.
	cellShape := func(ci int) []DesignPoint {
		if opt.Phase == Phase2Only {
			_, _, maxExtra := sweepOf(ci, nil).phase2Plan()
			return make([]DesignPoint, maxExtra+1)
		}
		pts := make([]DesignPoint, len(counts))
		for i, k := range counts {
			pts[i].SwitchCount = k
		}
		return pts
	}
	stubCell := func(ci int, pruned bool, reason string) {
		pts := cellShape(ci)
		for i := range pts {
			pts[i].FreqMHz = cells[ci].freq
			pts[i].Pruned = pruned
			pts[i].FailReason = reason
		}
		perCell[ci] = pts
		emitAll(pts)
	}

	// Cell 0 is the witness source of the branch-and-bound rule, so with
	// pruning enabled every run (every shard) materialises it, owned or not.
	if prune {
		if !restore(0) {
			if err := compute(0, nil); err != nil {
				return nil, err
			}
		}
	}

	// Branch-and-bound floors, from the cell-0 witnesses. minPAt returns the
	// lowest witness power at or below the latency floor of the given
	// frequency (+Inf when no witness qualifies, disabling the rule there).
	var totalBW float64
	var witnesses []DesignPoint
	if prune {
		for _, f := range g.Flows {
			totalBW += f.BandwidthMBps
		}
		for _, w := range perCell[0] {
			if w.Valid {
				witnesses = append(witnesses, w)
			}
		}
	}
	// witnessLatency is the latency coordinate a witness must clear against
	// the floor. With contention enabled it is the estimated latency, which
	// upper-bounds the zero-load latency: a witness at or below the floor in
	// estimated coordinates then dominates every pruned point in both the
	// exact (power, zero-load) and the estimated (power, contention) Pareto
	// space, so pruning stays exact for the fidelity ladder's triage band
	// too. (The latency floor itself is planar, hence identical across
	// layer-count folds, and the power floor never depends on the fold or
	// the TSV budget, so one witness set serves every fold.)
	witnessLatency := func(w DesignPoint) float64 {
		if opt.Contend && w.Contention != nil {
			return w.Contention.AvgLatencyCycles
		}
		return w.Metrics.AvgLatencyCycles
	}
	minPAt := func(freq float64) float64 {
		latFloor := topology.LatencyFloorCycles(g, opt.Lib, freq)
		minP := math.Inf(1)
		for _, w := range witnesses {
			if witnessLatency(w) <= latFloor && w.Metrics.Power.TotalMW() < minP {
				minP = w.Metrics.Power.TotalMW()
			}
		}
		return minP
	}
	pruneFor := func(ci int) func(int) string {
		freq := cells[ci].freq
		minP := minPAt(freq)
		if math.IsInf(minP, 1) {
			return nil
		}
		latFloor := topology.LatencyFloorCycles(g, opt.Lib, freq)
		return func(k int) string {
			plb := opt.Lib.PowerFloorMW(g.NumCores(), k, freq, totalBW)
			if plb >= minP {
				return fmt.Sprintf("pruned: power floor %.4g mW at %d switches cannot beat %.4g mW at the %.4g-cycle latency floor (cell 0)",
					plb, k, minP, latFloor)
			}
			return ""
		}
	}

	// run materialises one cell: restore beats everything (a merged
	// checkpoint may hold cells this shard does not own), unowned cells
	// become skipped stubs, duplicate cells become pruned stubs, and what
	// remains is evaluated for real (probes of later frequencies with the
	// branch-and-bound rule active).
	run := func(ci int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if perCell[ci] != nil { // cell 0, already materialised above
			return nil
		}
		if restore(ci) {
			return nil
		}
		if !owns(ci) {
			stubCell(ci, false, fmt.Sprintf("skipped: cell %d is owned by another shard", ci))
			return nil
		}
		if prune && !cells[ci].probe {
			stubCell(ci, true, fmt.Sprintf("pruned: duplicate of cell %d (vcs/link width change no result-affecting metric)", probeCellIndex(cells, ci)))
			return nil
		}
		var pruneFn func(int) string
		if prune && ci > 0 {
			pruneFn = pruneFor(ci)
		}
		return compute(ci, pruneFn)
	}

	errs := make([]error, len(cells))
	if p.serial {
		for ci := range cells {
			if err := run(ci); err != nil {
				return nil, err
			}
		}
	} else {
		var wg sync.WaitGroup
		for ci := range cells {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				errs[ci] = run(ci)
			}(ci)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	res := &Result{}
	for _, pts := range perCell {
		res.Points = append(res.Points, pts...)
	}
	if wholeRun {
		if err := triageSimBand(res.Points, opt, p); err != nil {
			return nil, err
		}
	}
	res.Best = pickBest(res.Points, opt)
	if wholeRun && opt.LPOnBest && !opt.RunLPPlacement {
		refineBest(res, opt, place.OptimizeSwitchPositions)
	}
	// With a layer_count axis the work ran on the per-fold caches; sum their
	// activity (in the deterministic fold order) so the report covers the
	// whole run.
	for _, c := range folds {
		st := c.stats()
		res.Cache.Hits += st.Hits
		res.Cache.Misses += st.Misses
	}
	return res, nil
}

// foldLayers returns a copy of the design with every core re-assigned to
// layer (original layer mod lc), keeping planar positions. lc at or above
// the design's layer count is the identity fold.
func foldLayers(g *model.CommGraph, lc int) *model.CommGraph {
	c := g.Clone()
	for i := range c.Cores {
		c.Cores[i].Layer %= lc
	}
	return c
}

// probeCellIndex returns the index of the probe cell sharing cell ci's
// (frequency, layer count, TSV budget) group.
func probeCellIndex(cells []cellSpec, ci int) int {
	for j := ci; j >= 0; j-- {
		if cells[j].group == cells[ci].group && cells[j].probe {
			return j
		}
	}
	return 0
}
