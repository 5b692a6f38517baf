package sunfloor3d

// End-to-end property-based invariant harness. Where the golden corpus pins
// three fixed designs byte-for-byte, this harness runs the full
// synthesize -> route -> floorplan -> simulate pipeline over N generated
// workloads per traffic shape (pipeline, hotspot, multiapp, layered; N = 50
// by default, smaller under -short or SUNFLOOR_PROPERTY_N) and asserts the
// cross-layer invariants that are proven pointwise elsewhere:
//
//   - every generated workload is connected and synthesizes to at least one
//     valid design point under WithRequireLatencyMet (the generator's
//     satisfiability guarantee);
//   - valid points honor every flow latency constraint and route every flow;
//   - the committed routes of every valid point form an acyclic channel
//     dependency graph, and the flit simulator's runtime deadlock watchdog
//     agrees (no deadlock, no livelock);
//   - the simulated zero-load latency of every flow equals the analytic
//     Topology.FlowLatencyCycles exactly;
//   - the NoC components insert into the floorplan;
//   - results JSON round-trip byte-identically, serial and parallel sweeps
//     are byte-identical, and repeated generate+synthesize runs are
//     byte-identical.
//
// The harness lives in the root package (not _test) on purpose: the
// invariants reach below the public surface (committed routes, the CDG, the
// internal simulator) through DesignPoint.topo.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"sunfloor3d/internal/route"
	"sunfloor3d/internal/sim"
	"sunfloor3d/internal/workload"
)

// propertyN returns the number of workloads per shape: 50 by default, 8
// under -short, overridable with SUNFLOOR_PROPERTY_N (CI smoke runs use a
// small value; the full distribution runs locally).
func propertyN(t *testing.T) int {
	if s := os.Getenv("SUNFLOOR_PROPERTY_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad SUNFLOOR_PROPERTY_N %q", s)
		}
		return n
	}
	if testing.Short() {
		return 8
	}
	return 50
}

// propertySpec derives the i-th workload spec of a shape: core counts cycle
// through all of 8..28 (5 is coprime to 21, so the full range is visited),
// layer counts through 1..3, and every fourth case perturbs the
// bandwidth/latency distributions so skewed and tight configurations are
// part of the distribution, not a separate suite.
func propertySpec(shape workload.Shape, i int) GenSpec {
	spec := GenSpec{
		Shape:  shape,
		Cores:  8 + (5*i)%21,
		Layers: 1 + i%3,
		Seed:   int64(i),
	}
	switch i % 4 {
	case 1: // tight latency, skewed bandwidth
		spec.LatencySlack = 1.5
		spec.BandwidthSpread = 0.8
	case 2: // memory-heavy mix, every flow latency-constrained
		spec.MemoryFraction = 0.4
		spec.UnconstrainedFraction = -1
	case 3: // loose latency, heavy traffic
		spec.LatencySlack = 3
		spec.MeanBandwidthMBps = 1000
	}
	return spec
}

// TestWorkloadProperties is the harness entry point.
func TestWorkloadProperties(t *testing.T) {
	n := propertyN(t)
	for _, shape := range workload.Shapes() {
		shape := shape
		t.Run(shape.String(), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < n; i++ {
				i := i
				t.Run(fmt.Sprintf("w%02d", i), func(t *testing.T) {
					t.Parallel()
					checkWorkload(t, propertySpec(shape, i), i)
				})
			}
		})
	}
}

// checkWorkload runs one generated workload through the whole pipeline and
// asserts every invariant on the outcome.
func checkWorkload(t *testing.T, spec GenSpec, i int) {
	bench, err := GenerateBenchmark(spec)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	design := bench.Graph3D
	if i%3 == 2 {
		// Every third workload runs the flattened 2-D variant so the
		// single-layer degenerate paths stay in the distribution.
		design = bench.Graph2D
	}
	if !workload.IsConnected(design) {
		t.Fatal("generated design is not connected")
	}

	ctx := context.Background()
	opts := []Option{WithRequireLatencyMet(true)}
	res, err := Synthesize(ctx, design, opts...)
	if err != nil {
		t.Fatalf("synthesize %s: %v", bench.Name, err)
	}
	best := res.Best()
	if best == nil {
		t.Fatalf("%s: no valid design point (satisfiability guarantee violated)", bench.Name)
	}

	// Invariants on every valid point: constraints honored, all flows
	// routed, committed routes deadlock free.
	for pi := range res.Points {
		p := &res.Points[pi]
		if !p.Valid {
			continue
		}
		if p.Metrics.LatencyViolations != 0 {
			t.Errorf("valid point %d reports %d latency violations", pi, p.Metrics.LatencyViolations)
		}
		if p.Route.FailedFlows != 0 || p.Route.Routed != design.NumFlows() {
			t.Errorf("valid point %d routed %d/%d flows (%d failed)",
				pi, p.Route.Routed, design.NumFlows(), p.Route.FailedFlows)
		}
		if p.topo == nil {
			t.Fatalf("valid point %d carries no topology", pi)
		}
		for f, fl := range design.Flows {
			if lat := p.topo.FlowLatencyCycles(f); fl.LatencyCycles > 0 && lat > fl.LatencyCycles {
				t.Errorf("valid point %d: flow %d latency %.3f exceeds constraint %g",
					pi, f, lat, fl.LatencyCycles)
			}
		}
		if !route.DeadlockFree(p.topo) {
			t.Errorf("valid point %d has a cyclic channel dependency graph", pi)
		}
	}

	// Deep invariants on the best point: zero-load equivalence, floorplan
	// insertion, and the runtime deadlock watchdog.
	top := best.Topology()
	cfg := sim.DefaultConfig()
	zl, err := sim.ZeroLoadLatencies(best.topo, cfg)
	if err != nil {
		t.Fatalf("zero-load oracle: %v", err)
	}
	for f, got := range zl {
		if want := best.topo.FlowLatencyCycles(f); got != want {
			t.Errorf("flow %d: simulated zero-load latency %v != analytic %v", f, got, want)
		}
	}
	fp, err := top.Floorplan()
	if err != nil {
		t.Fatalf("floorplan insertion: %v", err)
	}
	if fp.ChipAreaMM2() <= 0 {
		t.Error("floorplan has non-positive chip area")
	}
	cfg.Cycles = 600
	cfg.DrainCycles = 600
	stats, err := sim.Run(best.topo, cfg)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if stats.Deadlock || stats.Livelock {
		t.Errorf("acyclic-CDG point tripped the sim watchdog: deadlock=%v livelock=%v",
			stats.Deadlock, stats.Livelock)
	}
	if stats.PacketsInjected == 0 {
		t.Error("simulation injected no packets")
	}

	// Serialisation invariants: JSON round-trips byte-identically.
	first, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var restored Result
	if err := json.Unmarshal(first, &restored); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("result JSON does not round-trip byte-identically")
	}

	// Determinism invariants, on a subset to bound the harness cost:
	// serial == parallel, and a full regenerate+resynthesize reproduces the
	// bytes.
	if i%10 == 0 {
		par, err := Synthesize(ctx, design, append(opts, WithParallelism(4))...)
		if err != nil {
			t.Fatal(err)
		}
		pj, err := json.Marshal(par)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, pj) {
			t.Error("parallel sweep differs from serial sweep")
		}
		again, err := GenerateBenchmark(spec)
		if err != nil {
			t.Fatal(err)
		}
		d2 := again.Graph3D
		if i%3 == 2 {
			d2 = again.Graph2D
		}
		res2, err := Synthesize(ctx, d2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		j2, err := json.Marshal(res2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, j2) {
			t.Error("regenerated workload synthesizes to different bytes")
		}
	}
}

// TestExplorerProperties extends the harness to the N-dimensional explorer:
// over generated workloads of every shape it asserts that
//
//   - pruned exploration is exact: the Pareto front and best point match the
//     brute-force (NoPrune) enumeration byte for byte;
//   - an exploration interrupted mid-run (context cancel) and resumed from
//     its checkpoint is byte-identical to an uninterrupted run;
//   - sharding the space n ways and merging the shard checkpoints (plain
//     concatenation) reproduces the unsharded bytes exactly.
//
// The explorer evaluates each workload several times (baseline, brute,
// interrupt, resume, shards, merge), so the harness visits a quarter of the
// usual workload count.
func TestExplorerProperties(t *testing.T) {
	n := (propertyN(t) + 3) / 4
	for _, shape := range workload.Shapes() {
		shape := shape
		t.Run(shape.String(), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < n; i++ {
				i := i
				t.Run(fmt.Sprintf("w%02d", i), func(t *testing.T) {
					t.Parallel()
					checkExplorerWorkload(t, propertySpec(shape, i), i)
				})
			}
		})
	}
}

// TestFaultProperties extends the harness to the fault-aware flow. Over
// generated workloads of every shape, with sparing enabled, a k-random-fault
// replay of every valid design point must end every fault plan in exactly one
// of the three certified outcomes — absorbed by a spare, repaired into a
// deadlock-free re-routed route set, or certified dead — and the whole
// survivability report must be byte-identical between serial and parallel
// sweeps (the replay runs inside the synthesis workers, so this is the
// determinism contract extended to fault injection). A subset of workloads
// additionally cross-validates with the flit simulator: the runtime watchdog
// must never trip on a repaired topology.
func TestFaultProperties(t *testing.T) {
	n := (propertyN(t) + 3) / 4
	for _, shape := range workload.Shapes() {
		shape := shape
		t.Run(shape.String(), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < n; i++ {
				i := i
				t.Run(fmt.Sprintf("w%02d", i), func(t *testing.T) {
					t.Parallel()
					checkFaultWorkload(t, propertySpec(shape, i), i)
				})
			}
		})
	}
}

func checkFaultWorkload(t *testing.T, spec GenSpec, i int) {
	bench, err := GenerateBenchmark(spec)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	design := bench.Graph3D
	proc, err := ProcessByName("wafer-level-A")
	if err != nil {
		t.Fatal(err)
	}
	fc := DefaultFaultModelConfig()
	fc.Plans = 6
	fc.FaultsPerPlan = 1 + i%2
	fc.Seed = int64(i + 1)
	fc.ExhaustiveMax = 12
	opts := []Option{WithSparing(proc, 0.99), WithFaultModel(fc)}
	withSim := i%3 == 0
	if withSim {
		scfg := DefaultSimConfig()
		scfg.Cycles = 400
		scfg.DrainCycles = 400
		fc2 := fc
		fc2.FaultCycle = 100
		opts = []Option{WithSparing(proc, 0.99), WithFaultModel(fc2), WithSimulation(scfg)}
	}

	ctx := context.Background()
	res, err := Synthesize(ctx, design, opts...)
	if err != nil {
		t.Fatalf("fault-aware synthesize %s: %v", bench.Name, err)
	}
	best := res.Best()
	if best == nil {
		t.Fatalf("%s: no valid design point", bench.Name)
	}

	reports := 0
	for pi := range res.Points {
		p := &res.Points[pi]
		if !p.Valid {
			continue
		}
		rep := p.Survivability
		if rep == nil {
			t.Fatalf("valid point %d carries no survivability report", pi)
		}
		reports++
		// Every plan ends in exactly one certified outcome.
		if rep.Survived+rep.Dead != rep.Plans {
			t.Errorf("point %d: survived %d + dead %d != plans %d", pi, rep.Survived, rep.Dead, rep.Plans)
		}
		if rep.Absorbed+rep.Repaired != rep.Survived {
			t.Errorf("point %d: absorbed %d + repaired %d != survived %d", pi, rep.Absorbed, rep.Repaired, rep.Survived)
		}
		if rep.Plans > 0 && rep.WorstLatencyInflation < 1 {
			t.Errorf("point %d: latency inflation %v below 1", pi, rep.WorstLatencyInflation)
		}
		if f := rep.SurvivedFraction(); f < 0 || f > 1 {
			t.Errorf("point %d: survived fraction %v out of range", pi, f)
		}
		// The graceful-degradation headline: the watchdog never trips on a
		// repaired topology.
		if rep.SimDeadlocks != 0 {
			t.Errorf("point %d: %d post-repair watchdog trips, want 0", pi, rep.SimDeadlocks)
		}
		if withSim && rep.SimChecked != rep.Repaired {
			t.Errorf("point %d: %d post-repair sims for %d repaired plans", pi, rep.SimChecked, rep.Repaired)
		}
	}
	if reports == 0 {
		t.Fatal("no valid point carried a survivability report")
	}

	// Determinism: the serial and parallel sweeps agree byte for byte,
	// survivability reports included.
	first, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Synthesize(ctx, design, append(opts, WithParallelism(4))...)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, pj) {
		t.Error("parallel fault-aware sweep differs from serial sweep")
	}
}

func checkExplorerWorkload(t *testing.T, spec GenSpec, i int) {
	bench, err := GenerateBenchmark(spec)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	design := bench.Graph3D
	sp := Space{Axes: []Axis{
		{Name: AxisFreqMHz, Values: []float64{400, 600}},
		{Name: AxisLinkWidthBits, Values: []float64{16, 32, 64}},
	}}
	ctx := context.Background()

	baseline, err := Synthesize(ctx, design, WithSpace(sp))
	if err != nil {
		t.Fatalf("explore %s: %v", bench.Name, err)
	}
	baseJSON, err := baseline.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}

	// Exactness against brute force.
	brute := sp
	brute.NoPrune = true
	exhaustive, err := Synthesize(ctx, design, WithSpace(brute))
	if err != nil {
		t.Fatalf("brute-force explore: %v", err)
	}
	pf, err := json.Marshal(baseline.ParetoFront())
	if err != nil {
		t.Fatal(err)
	}
	bf, err := json.Marshal(exhaustive.ParetoFront())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pf, bf) {
		t.Error("pruned Pareto front differs from brute force")
	}
	pb, err := json.Marshal(baseline.Best())
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(exhaustive.Best())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, bb) {
		t.Error("pruned best point differs from brute force")
	}

	dir := t.TempDir()

	// Interrupt mid-run, then resume from the checkpoint.
	ckpt := filepath.Join(dir, "resume.ckpt")
	cctx, cancel := context.WithCancel(ctx)
	events, stopAfter := 0, 2+i%5
	_, _ = Synthesize(cctx, design, WithSpace(sp), WithCheckpoint(ckpt),
		WithProgress(func(Event) {
			events++
			if events == stopAfter {
				cancel()
			}
		}))
	cancel()
	resumed, err := Synthesize(ctx, design, WithSpace(sp), WithCheckpoint(ckpt))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	rj, err := resumed.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(baseJSON, rj) {
		t.Error("resumed exploration differs from uninterrupted run")
	}

	// Shard n ways, merge the checkpoints, restore the merged file.
	shards := 2 + i%3
	var merged []byte
	for s := 0; s < shards; s++ {
		sckpt := filepath.Join(dir, fmt.Sprintf("shard%d.ckpt", s))
		if _, err := Synthesize(ctx, design, WithSpace(sp),
			WithShard(s, shards), WithCheckpoint(sckpt)); err != nil {
			t.Fatalf("shard %d/%d: %v", s, shards, err)
		}
		data, err := os.ReadFile(sckpt)
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, data...)
	}
	mpath := filepath.Join(dir, "merged.ckpt")
	if err := os.WriteFile(mpath, merged, 0o644); err != nil {
		t.Fatal(err)
	}
	mres, err := Synthesize(ctx, design, WithSpace(sp), WithCheckpoint(mpath))
	if err != nil {
		t.Fatalf("merged restore: %v", err)
	}
	mj, err := mres.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(baseJSON, mj) {
		t.Errorf("%d-way shard merge differs from unsharded run", shards)
	}
}

// TestContentionProperties extends the harness to the fidelity ladder. Over
// generated workloads of every shape it asserts the estimator contract —
// every valid point carries a finite contention estimate that never drops
// below the exact zero-load latency, and at low-to-moderate load (no
// saturated link, utilization at most 1/2) the estimated average latency
// lands within a factor of two of the flit simulator's measurement — plus
// the determinism contract (serial and parallel runs, with and without the
// triage band, are byte-identical) and the triage contract (the "skip"/"sim"
// split equals the epsilon-dominance band recomputed from the final point
// set, skipped points stay unsimulated, band members carry simulation
// statistics).
func TestContentionProperties(t *testing.T) {
	n := (propertyN(t) + 3) / 4
	for _, shape := range workload.Shapes() {
		shape := shape
		t.Run(shape.String(), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < n; i++ {
				i := i
				t.Run(fmt.Sprintf("w%02d", i), func(t *testing.T) {
					t.Parallel()
					checkContentionWorkload(t, propertySpec(shape, i), i)
				})
			}
		})
	}
}

func checkContentionWorkload(t *testing.T, spec GenSpec, i int) {
	bench, err := GenerateBenchmark(spec)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	design := bench.Graph3D
	scfg := DefaultSimConfig()
	scfg.Cycles = 400
	scfg.DrainCycles = 400
	base := []Option{WithFrequenciesMHz(400, 600), WithContention(), WithSimulation(scfg)}
	ctx := context.Background()

	full, err := Synthesize(ctx, design, append(base, WithParallelism(1))...)
	if err != nil {
		t.Fatalf("contention synthesize %s: %v", bench.Name, err)
	}
	for pi := range full.Points {
		p := &full.Points[pi]
		if !p.Valid {
			continue
		}
		ce := p.Contention
		if ce == nil {
			t.Fatalf("valid point %d carries no contention estimate", pi)
		}
		for name, v := range map[string]float64{
			"avg_latency_cycles": ce.AvgLatencyCycles,
			"max_latency_cycles": ce.MaxLatencyCycles,
			"avg_wait_cycles":    ce.AvgWaitCycles,
			"max_utilization":    ce.MaxUtilization,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("point %d: contention %s = %v, want finite and non-negative", pi, name, v)
			}
		}
		// The estimate is zero-load plus queuing waits: never below the
		// exact zero-load average, max never below the average.
		if ce.AvgLatencyCycles < p.Metrics.AvgLatencyCycles-1e-9 {
			t.Errorf("point %d: estimated avg %v below zero-load avg %v",
				pi, ce.AvgLatencyCycles, p.Metrics.AvgLatencyCycles)
		}
		if ce.MaxLatencyCycles < ce.AvgLatencyCycles-1e-9 {
			t.Errorf("point %d: estimated max %v below avg %v", pi, ce.MaxLatencyCycles, ce.AvgLatencyCycles)
		}
		// Low-to-moderate load: the M/D/1 estimate must track the
		// simulator within a factor of two (plus a small absolute slack
		// for flit serialization, which the head-latency estimate omits).
		if p.Sim != nil && ce.SaturatedLinks == 0 && ce.MaxUtilization <= 0.5 && p.Sim.AvgLatencyCycles > 0 {
			est, measured := ce.AvgLatencyCycles, p.Sim.AvgLatencyCycles
			if est > 2*measured+8 || measured > 2*est+8 {
				t.Errorf("point %d: estimate %v vs simulated %v exceeds the 2x low-load error bound (max utilization %v)",
					pi, est, measured, ce.MaxUtilization)
			}
		}
	}

	// Byte determinism of the estimator: serial == parallel.
	fullJSON, err := full.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	par, err := Synthesize(ctx, design, append(base, WithParallelism(4))...)
	if err != nil {
		t.Fatalf("parallel contention synthesize: %v", err)
	}
	pj, err := par.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fullJSON, pj) {
		t.Error("parallel contention run differs from serial run")
	}

	// The fidelity ladder: triage decisions are a pure function of the
	// valid point set, so the band recomputed from the result must equal
	// the recorded "sim"/"skip" split, in serial and parallel runs alike.
	// LP placement runs per point here (not as the post-sweep best-point
	// refinement, which moves the winner's coordinates after triage and
	// would make the recomputed band disagree by construction).
	const frac = 0.25
	bandBase := append([]Option{WithLPPlacement(true)}, base...)
	banded, err := Synthesize(ctx, design, append(bandBase, WithSimBand(frac), WithParallelism(1))...)
	if err != nil {
		t.Fatalf("banded synthesize: %v", err)
	}
	bandedJSON, err := banded.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	bpar, err := Synthesize(ctx, design, append(bandBase, WithSimBand(frac), WithParallelism(4))...)
	if err != nil {
		t.Fatalf("parallel banded synthesize: %v", err)
	}
	bpj, err := bpar.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bandedJSON, bpj) {
		t.Error("parallel banded run differs from serial banded run")
	}

	// Triage exactness: the band only decides which points are simulated,
	// so the banded run's Pareto front and best point serialise the same as
	// the run that simulates every valid point, once the triage marks and
	// the estimate are cleared.
	unbanded, err := Synthesize(ctx, design, append(bandBase, WithParallelism(1))...)
	if err != nil {
		t.Fatalf("unbanded synthesize: %v", err)
	}
	if b, u := frontAndBest(t, banded), frontAndBest(t, unbanded); !bytes.Equal(b, u) {
		t.Errorf("banded front and best differ from the full-simulation run:\nbanded: %s\nfull:   %s", b, u)
	}

	// cand is the triage-time valid set: every point that received a
	// decision (a later simulation failure flips Valid but keeps the mark).
	var cand []int
	for pi := range banded.Points {
		p := &banded.Points[pi]
		switch p.SimTriage {
		case "":
			if p.Valid {
				t.Errorf("valid point %d received no triage decision", pi)
			}
		case "sim":
			cand = append(cand, pi)
			if p.Sim == nil && p.Valid {
				t.Errorf("band member %d was never simulated", pi)
			}
		case "skip":
			cand = append(cand, pi)
			if p.Sim != nil {
				t.Errorf("skipped point %d carries simulation statistics", pi)
			}
			if !p.Valid {
				t.Errorf("skipped point %d is invalid (%s): only simulation may invalidate after triage", pi, p.FailReason)
			}
		default:
			t.Errorf("point %d: unknown triage decision %q", pi, p.SimTriage)
		}
	}
	wait := func(i int) float64 {
		w := banded.Points[i].Contention.AvgLatencyCycles - banded.Points[i].Metrics.AvgLatencyCycles
		if w < 0 {
			return 0
		}
		return w
	}
	for _, pi := range cand {
		pw := banded.Points[pi].Metrics.Power.TotalMW()
		lat := banded.Points[pi].Contention.AvgLatencyCycles
		zl := banded.Points[pi].Metrics.AvgLatencyCycles
		dominated := false
		for _, pj := range cand {
			if pj == pi {
				continue
			}
			qw := banded.Points[pj].Metrics.Power.TotalMW()
			ql := banded.Points[pj].Contention.AvgLatencyCycles
			if !(qw <= pw && ql <= lat && (qw < pw || ql < lat)) {
				continue
			}
			qz := banded.Points[pj].Metrics.AvgLatencyCycles
			if qw*(1+frac) <= pw ||
				qz+(1+frac)*wait(pj) <= zl+wait(pi)/(1+frac) {
				dominated = true
				break
			}
		}
		want := "sim"
		if dominated {
			want = "skip"
		}
		if got := banded.Points[pi].SimTriage; got != want {
			t.Errorf("point %d: triage %q, epsilon-dominance says %q", pi, got, want)
		}
	}
}

// frontAndBest serialises r's Pareto front followed by its best point, with
// the fidelity ladder's SimTriage marks and Contention estimates cleared.
func frontAndBest(t *testing.T, r *Result) []byte {
	t.Helper()
	pts := r.ParetoFront()
	if b := r.Best(); b != nil {
		pts = append(pts, *b)
	}
	for i := range pts {
		pts[i].SimTriage = ""
		pts[i].Contention = nil
	}
	data, err := (&Result{Points: pts, BestIndex: -1}).MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
