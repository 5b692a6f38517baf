package sunfloor3d_test

// This file exposes every table and figure of the paper's evaluation section
// as a Go benchmark, so that
//
//	go test -bench=. -benchmem
//
// regenerates the full experimental campaign. Each benchmark reports, besides
// the usual ns/op, the headline quantity of its experiment (power savings,
// area savings, latencies, ...) via b.ReportMetric, making the paper-vs-
// measured comparison visible directly in the benchmark output. The quick
// configuration is used so a full run stays in the minutes range; run
// cmd/sunfloor-bench without -quick for the complete sweeps.

import (
	"testing"

	"sunfloor3d/internal/bench"
	"sunfloor3d/internal/experiments"
	"sunfloor3d/internal/graph"
	"sunfloor3d/internal/mesh"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/partition"
	"sunfloor3d/internal/place"
	"sunfloor3d/internal/sim"
	"sunfloor3d/internal/synth"
	"sunfloor3d/internal/topology"
)

func quickCfg() experiments.Config {
	c := experiments.DefaultConfig()
	c.Quick = true
	return c
}

// BenchmarkFig01YieldVsTSV regenerates the yield-vs-TSV-count curves of Fig. 1.
func BenchmarkFig01YieldVsTSV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Fig01Yield()
		if len(series) == 0 {
			b.Fatal("no yield series")
		}
	}
	// Report the knee of the first process: the largest TSV count with >= 90%
	// yield.
	p := noclib.StandardProcesses()[0]
	b.ReportMetric(float64(p.MaxTSVsForYield(0.9)), "tsvs_at_90pct_yield")
}

// BenchmarkFig10Power2D regenerates the 2-D power-vs-switch-count sweep of
// Fig. 10 on D_26_media.
func BenchmarkFig10Power2D(b *testing.B) {
	var sweep experiments.PowerSweep
	var err error
	for i := 0; i < b.N; i++ {
		sweep, err = experiments.Fig10Power2D(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bestTotal(sweep), "best_2D_power_mW")
}

// BenchmarkFig11Power3D regenerates the 3-D power-vs-switch-count sweep of
// Fig. 11 on D_26_media.
func BenchmarkFig11Power3D(b *testing.B) {
	var sweep experiments.PowerSweep
	var err error
	for i := 0; i < b.N; i++ {
		sweep, err = experiments.Fig11Power3D(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bestTotal(sweep), "best_3D_power_mW")
}

func bestTotal(s experiments.PowerSweep) float64 {
	best := 0.0
	for _, p := range s.Points {
		if best == 0 || p.TotalMW < best {
			best = p.TotalMW
		}
	}
	return best
}

// BenchmarkFig12WireLengths regenerates the wire-length distributions of
// Fig. 12 and reports the 2-D/3-D total wire length ratio.
func BenchmarkFig12WireLengths(b *testing.B) {
	var d experiments.WireLengthDistribution
	var err error
	for i := 0; i < b.N; i++ {
		d, err = experiments.Fig12WireLengths(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	if d.Total3DMM > 0 {
		b.ReportMetric(d.Total2DMM/d.Total3DMM, "wirelength_2D_over_3D")
	}
}

// BenchmarkFig13to16CaseStudy regenerates the D_26_media topology case study
// (best Phase-1 and Phase-2 topologies and the input placement).
func BenchmarkFig13to16CaseStudy(b *testing.B) {
	var cs experiments.TopologyCaseStudy
	var err error
	for i := 0; i < b.N; i++ {
		cs, err = experiments.Fig13to16CaseStudy(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cs.Phase1Power, "phase1_power_mW")
	b.ReportMetric(cs.Phase2Power, "phase2_power_mW")
}

// BenchmarkFig17Phase1VsPhase2 regenerates the Phase-1 vs Phase-2 comparison
// of Fig. 17 and reports the average Phase2/Phase1 power ratio.
func BenchmarkFig17Phase1VsPhase2(b *testing.B) {
	var rows []experiments.PhaseComparison
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig17Phase1VsPhase2(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		var sum float64
		for _, r := range rows {
			sum += r.Ratio
		}
		b.ReportMetric(sum/float64(len(rows)), "avg_phase2_over_phase1")
	}
}

// BenchmarkTable1 regenerates the 2-D vs. 3-D comparison of Table I and
// reports the average power and latency reductions.
func BenchmarkTable1(b *testing.B) {
	var rows []experiments.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table1(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		var sp, sl float64
		for _, r := range rows {
			sp += r.PowerReduction()
			sl += r.LatencyReduction()
		}
		b.ReportMetric(sp/float64(len(rows))*100, "avg_power_reduction_pct")
		b.ReportMetric(sl/float64(len(rows))*100, "avg_latency_reduction_pct")
	}
}

// BenchmarkFig18FloorplanArea regenerates the area-vs-switch-count comparison
// of Fig. 18 between the custom insertion routine and the constrained
// standard floorplanner.
func BenchmarkFig18FloorplanArea(b *testing.B) {
	var pts []experiments.AreaPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.Fig18FloorplanArea(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(pts) > 0 {
		var ratio float64
		for _, p := range pts {
			ratio += p.StandardAreaMM2 / p.CustomAreaMM2
		}
		b.ReportMetric(ratio/float64(len(pts)), "standard_over_custom_area")
	}
}

// BenchmarkFig19Fig20FloorplanComparison regenerates the per-benchmark area
// and power comparison of Figs. 19 and 20 and reports the average savings of
// the custom routine.
func BenchmarkFig19Fig20FloorplanComparison(b *testing.B) {
	var rows []experiments.FloorplanComparison
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig19Fig20FloorplanComparison(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		var sa, sp float64
		for _, r := range rows {
			sa += r.AreaSaving()
			sp += r.PowerSaving()
		}
		b.ReportMetric(sa/float64(len(rows))*100, "avg_area_saving_pct")
		b.ReportMetric(sp/float64(len(rows))*100, "avg_power_saving_pct")
	}
}

// BenchmarkFig21MaxILLPower and BenchmarkFig22MaxILLLatency regenerate the
// max_ill sweeps of Figs. 21 and 22 on D_36_4.
func BenchmarkFig21MaxILLPower(b *testing.B) {
	pts := runILLSweep(b)
	if tight, loose, ok := tightLoose(pts); ok {
		b.ReportMetric(tight.PowerMW/loose.PowerMW, "tight_over_loose_power")
	}
}

func BenchmarkFig22MaxILLLatency(b *testing.B) {
	pts := runILLSweep(b)
	if tight, loose, ok := tightLoose(pts); ok {
		b.ReportMetric(tight.AvgLatencyCycles/loose.AvgLatencyCycles, "tight_over_loose_latency")
	}
}

func runILLSweep(b *testing.B) []experiments.ILLSweepPoint {
	b.Helper()
	var pts []experiments.ILLSweepPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.Fig21Fig22MaxILLSweep(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	return pts
}

// tightLoose returns the tightest and loosest feasible points of the sweep.
func tightLoose(pts []experiments.ILLSweepPoint) (tight, loose experiments.ILLSweepPoint, ok bool) {
	found := false
	for _, p := range pts {
		if !p.Feasible {
			continue
		}
		if !found {
			tight, loose = p, p
			found = true
			continue
		}
		if p.MaxILL < tight.MaxILL {
			tight = p
		}
		if p.MaxILL > loose.MaxILL {
			loose = p
		}
	}
	return tight, loose, found
}

// BenchmarkFig23MeshComparison regenerates the custom-vs-mesh comparison of
// Fig. 23 and reports the average power saving.
func BenchmarkFig23MeshComparison(b *testing.B) {
	var rows []experiments.MeshComparison
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig23MeshComparison(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		var sp float64
		for _, r := range rows {
			sp += r.PowerSaving()
		}
		b.ReportMetric(sp/float64(len(rows))*100, "avg_power_saving_pct")
	}
}

// --- Simulator benchmarks -----------------------------------------------

// bestTopologyFor synthesizes the named benchmark with default options and
// returns the best point's topology (benchmark setup, excluded from timing).
func bestTopologyFor(b *testing.B, name string) *topology.Topology {
	b.Helper()
	bm := bench.ByNameMust(name, 1)
	res, err := synth.Synthesize(bm.Graph3D, synth.DefaultOptions())
	if err != nil || res.Best == nil {
		b.Fatalf("synthesize %s: %v", name, err)
	}
	return res.Best.Topology
}

// benchmarkSimProfile measures one production-engine simulation of the best
// topology under the given profile, reporting delivered-flit throughput and
// allocations (the steady-state loop must not allocate).
func benchmarkSimProfile(b *testing.B, name string, profile sim.Profile) {
	top := bestTopologyFor(b, name)
	cfg := sim.DefaultConfig()
	cfg.Profile = profile
	cfg.StatsLevel = sim.StatsSummary
	b.ReportAllocs()
	b.ResetTimer()
	var flits int64
	for i := 0; i < b.N; i++ {
		st, err := sim.Run(top, cfg)
		if err != nil {
			b.Fatal(err)
		}
		flits += st.FlitsDelivered
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(flits)/s, "flits/sec")
	}
}

func BenchmarkSimUniformSmall(b *testing.B) { benchmarkSimProfile(b, "D_26_media", sim.Uniform) }
func BenchmarkSimUniformLarge(b *testing.B) { benchmarkSimProfile(b, "D_36_4", sim.Uniform) }
func BenchmarkSimBurstySmall(b *testing.B)  { benchmarkSimProfile(b, "D_26_media", sim.Bursty) }
func BenchmarkSimBurstyLarge(b *testing.B)  { benchmarkSimProfile(b, "D_36_4", sim.Bursty) }
func BenchmarkSimHotspotSmall(b *testing.B) { benchmarkSimProfile(b, "D_26_media", sim.Hotspot) }
func BenchmarkSimHotspotLarge(b *testing.B) { benchmarkSimProfile(b, "D_36_4", sim.Hotspot) }

// BenchmarkSimZeroLoad measures the zero-load oracle on the best D_26_media
// topology (one reused network, one single-packet run per flow).
func BenchmarkSimZeroLoad(b *testing.B) {
	top := bestTopologyFor(b, "D_26_media")
	cfg := sim.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ZeroLoadLatencies(top, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesizeD26Media3D measures the raw synthesis engine on the
// 26-core multimedia benchmark (the runtime discussion of Section VIII-E).
func BenchmarkSynthesizeD26Media3D(b *testing.B) {
	bm := bench.D26Media(1)
	opt := synth.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Synthesize(bm.Graph3D, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesizeD36_4 measures synthesis on the 36-core distributed
// benchmark.
func BenchmarkSynthesizeD36_4(b *testing.B) {
	bm := bench.D36(4, 1)
	opt := synth.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Synthesize(bm.Graph3D, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeshMappingD36_4 measures the optimized-mesh baseline construction.
func BenchmarkMeshMappingD36_4(b *testing.B) {
	bm := bench.D36(4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mesh.Build(bm.Graph3D, mesh.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks for the design choices called out in DESIGN.md ---

// BenchmarkAblationLPvsCentroidPlacement quantifies how much the
// switch-position LP of Section VII buys over the bandwidth-weighted centroid
// estimate used during exploration.
func BenchmarkAblationLPvsCentroidPlacement(b *testing.B) {
	bm := bench.D26Media(1)
	var lpPower, centroidPower float64
	for i := 0; i < b.N; i++ {
		optLP := synth.DefaultOptions()
		optLP.LPOnBest = true
		resLP, err := synth.Synthesize(bm.Graph3D, optLP)
		if err != nil || resLP.Best == nil {
			b.Fatal(err)
		}
		lpPower = resLP.Best.Metrics.Power.TotalMW()

		optC := synth.DefaultOptions()
		optC.LPOnBest = false
		resC, err := synth.Synthesize(bm.Graph3D, optC)
		if err != nil || resC.Best == nil {
			b.Fatal(err)
		}
		centroidPower = resC.Best.Metrics.Power.TotalMW()
	}
	b.ReportMetric(lpPower, "lp_power_mW")
	b.ReportMetric(centroidPower, "centroid_power_mW")
}

// BenchmarkAblationPhaseAutoVsPhase2 quantifies the value of the two-phase
// strategy: PhaseAuto (Phase 1 with SPG fallback) against forcing the
// layer-by-layer method everywhere.
func BenchmarkAblationPhaseAutoVsPhase2(b *testing.B) {
	bm := bench.D36(4, 1)
	var auto, p2 float64
	for i := 0; i < b.N; i++ {
		oa := synth.DefaultOptions()
		ra, err := synth.Synthesize(bm.Graph3D, oa)
		if err != nil || ra.Best == nil {
			b.Fatal(err)
		}
		auto = ra.Best.Metrics.Power.TotalMW()

		o2 := synth.DefaultOptions()
		o2.Phase = synth.Phase2Only
		r2, err := synth.Synthesize(bm.Graph3D, o2)
		if err != nil || r2.Best == nil {
			b.Fatal(err)
		}
		p2 = r2.Best.Metrics.Power.TotalMW()
	}
	b.ReportMetric(auto, "phase_auto_power_mW")
	b.ReportMetric(p2, "phase2_only_power_mW")
}

// BenchmarkAblationTightMaxILL quantifies the cost of designing under a tight
// TSV budget versus an unconstrained one on the distributed benchmark.
func BenchmarkAblationTightMaxILL(b *testing.B) {
	bm := bench.D36(4, 1)
	var tight, loose float64
	for i := 0; i < b.N; i++ {
		ot := synth.DefaultOptions()
		ot.MaxILL = 10
		rt, err := synth.Synthesize(bm.Graph3D, ot)
		if err != nil || rt.Best == nil {
			b.Fatal(err)
		}
		tight = rt.Best.Metrics.Power.TotalMW()

		ol := synth.DefaultOptions()
		ol.MaxILL = 0 // unconstrained
		rl, err := synth.Synthesize(bm.Graph3D, ol)
		if err != nil || rl.Best == nil {
			b.Fatal(err)
		}
		loose = rl.Best.Metrics.Power.TotalMW()
	}
	b.ReportMetric(tight, "maxill10_power_mW")
	b.ReportMetric(loose, "unconstrained_power_mW")
}

// BenchmarkNoCEvaluation measures the cost of evaluating one topology (the
// innermost operation of the sweep).
func BenchmarkNoCEvaluation(b *testing.B) {
	bm := bench.D26Media(1)
	res, err := synth.Synthesize(bm.Graph3D, synth.DefaultOptions())
	if err != nil || res.Best == nil {
		b.Fatal(err)
	}
	top := res.Best.Topology
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := top.Evaluate()
		if m.Power.TotalMW() <= 0 {
			b.Fatal("bad evaluation")
		}
	}
}

// BenchmarkMinCutPartitioning measures the balanced k-way partitioner on the
// largest benchmark's communication graph.
func BenchmarkMinCutPartitioning(b *testing.B) {
	bm := bench.D65Pipe(1)
	pg := partition.BuildPG(bm.Graph3D, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign := graph.PartitionK(pg, 8)
		if len(assign) != bm.Graph3D.NumCores() {
			b.Fatal("bad partition")
		}
	}
}

// BenchmarkSwitchPositionLP measures one switch-placement LP solve.
func BenchmarkSwitchPositionLP(b *testing.B) {
	bm := bench.D26Media(1)
	res, err := synth.Synthesize(bm.Graph3D, synth.DefaultOptions())
	if err != nil || res.Best == nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top := res.Best.Topology.Clone()
		if err := place.OptimizeSwitchPositions(top); err != nil {
			b.Fatal(err)
		}
	}
}
