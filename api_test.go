package sunfloor3d_test

// Tests of the public root-package API: option validation, progress
// streaming, context cancellation, serial/parallel equivalence and JSON
// round-tripping of results.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"sync"
	"testing"

	"sunfloor3d"
)

// apiDesign builds an 8-core, 2-layer design that synthesizes quickly.
func apiDesign(t *testing.T) *sunfloor3d.Design {
	t.Helper()
	var cores []sunfloor3d.Core
	for l := 0; l < 2; l++ {
		for i := 0; i < 4; i++ {
			cores = append(cores, sunfloor3d.Core{
				Name:  "c" + string(rune('0'+l)) + string(rune('0'+i)),
				Width: 1.5, Height: 1.5, X: float64(i) * 1.8, Y: float64(l) * 0.1, Layer: l,
			})
		}
	}
	flows := []sunfloor3d.Flow{
		{Src: 0, Dst: 4, BandwidthMBps: 800, LatencyCycles: 4},
		{Src: 1, Dst: 5, BandwidthMBps: 700, LatencyCycles: 4},
		{Src: 2, Dst: 6, BandwidthMBps: 750, LatencyCycles: 4},
		{Src: 3, Dst: 7, BandwidthMBps: 650, LatencyCycles: 4},
		{Src: 0, Dst: 1, BandwidthMBps: 100, LatencyCycles: 8},
		{Src: 1, Dst: 2, BandwidthMBps: 120, LatencyCycles: 8},
		{Src: 4, Dst: 5, BandwidthMBps: 90, LatencyCycles: 8},
		{Src: 6, Dst: 7, BandwidthMBps: 110, LatencyCycles: 8},
	}
	d, err := sunfloor3d.NewDesign(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEngineOptionValidation(t *testing.T) {
	if _, err := sunfloor3d.NewEngine(); err != nil {
		t.Fatalf("default engine invalid: %v", err)
	}
	if _, err := sunfloor3d.NewEngine(sunfloor3d.WithFrequenciesMHz()); err == nil {
		t.Error("empty frequency sweep should fail")
	}
	if _, err := sunfloor3d.NewEngine(sunfloor3d.WithObjective(0, 0)); err == nil {
		t.Error("all-zero objective should fail")
	}
	if _, err := sunfloor3d.NewEngine(sunfloor3d.WithMaxILL(-1)); err == nil {
		t.Error("negative max-ILL should fail")
	}
	if _, err := sunfloor3d.ParsePhase("bogus"); err == nil {
		t.Error("unknown phase name should fail")
	}
	for _, name := range []string{"auto", "phase1", "phase2"} {
		if _, err := sunfloor3d.ParsePhase(name); err != nil {
			t.Errorf("ParsePhase(%q): %v", name, err)
		}
	}
}

// TestNonFiniteOptionsRejected: NaN and infinite option values, and an
// integral axis value beyond the int range, are rejected by NewEngine, by
// Synthesize and by Fingerprint, so none reaches the engine or a cache key.
func TestNonFiniteOptionsRejected(t *testing.T) {
	d := apiDesign(t)
	proc, err := sunfloor3d.ProcessByName("wafer-level-A")
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	// +Inf passes every positivity and lower-bound check of a SimConfig.
	infSim := func(mutate func(*sunfloor3d.SimConfig)) sunfloor3d.Option {
		cfg := sunfloor3d.DefaultSimConfig()
		mutate(&cfg)
		return sunfloor3d.WithSimulation(cfg)
	}
	type optionCase struct {
		name string
		opt  sunfloor3d.Option
	}
	cases := []optionCase{
		{"NaN frequency", sunfloor3d.WithFrequenciesMHz(nan)},
		{"infinite frequency", sunfloor3d.WithFrequenciesMHz(inf)},
		{"NaN power weight", sunfloor3d.WithObjective(nan, 1)},
		{"infinite latency weight", sunfloor3d.WithObjective(1, inf)},
		{"NaN alpha", sunfloor3d.WithAlpha(nan)},
		{"NaN sparing target", sunfloor3d.WithSparing(proc, nan)},
		{"switch count beyond int", sunfloor3d.WithSpace(sunfloor3d.Space{Axes: []sunfloor3d.Axis{
			{Name: sunfloor3d.AxisSwitchCount, Values: []float64{1e300}},
		}})},
		{"infinite sim injection scale", infSim(func(c *sunfloor3d.SimConfig) { c.InjectionScale = inf })},
		{"infinite sim burst factor", infSim(func(c *sunfloor3d.SimConfig) { c.BurstFactor = inf })},
		{"infinite sim mean burst", infSim(func(c *sunfloor3d.SimConfig) { c.MeanBurstCycles = inf })},
		{"infinite sim hotspot factor", infSim(func(c *sunfloor3d.SimConfig) { c.HotspotFactor = inf })},
	}
	if math.MaxInt == math.MaxInt64 {
		// The simulator's last cycle, Cycles + DrainCycles, overflows an
		// int64 and would wrap negative.
		cases = append(cases, optionCase{"sim cycles overflow the last cycle",
			infSim(func(c *sunfloor3d.SimConfig) { c.Cycles = math.MaxInt })})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := sunfloor3d.NewEngine(tc.opt); err == nil {
				t.Error("NewEngine accepted the option")
			}
			if _, err := sunfloor3d.Synthesize(context.Background(), d, tc.opt); err == nil {
				t.Error("Synthesize accepted the option")
			}
			if key, err := sunfloor3d.Fingerprint(d, tc.opt); err == nil {
				t.Errorf("Fingerprint returned key %s, want the NewEngine error", key)
			}
		})
	}
}

// TestEditedDesignRejected: Design's Cores and Flows are exported, so a
// caller can edit a valid design into one NewDesign rejects. Fingerprint and
// Synthesize must reject each such edit with NewDesign's error, serially and
// on a worker pool, instead of panicking (a worker's panic kills the
// process) or hashing a NaN or an infinity into a key.
func TestEditedDesignRejected(t *testing.T) {
	b, err := sunfloor3d.BenchmarkByName("D_26_media", 1)
	if err != nil {
		t.Fatal(err)
	}
	edits := []struct {
		name string
		edit func(d *sunfloor3d.Design)
	}{
		{"flow source out of range", func(d *sunfloor3d.Design) { d.Flows[0].Src = 99 }},
		{"negative layer", func(d *sunfloor3d.Design) { d.Cores[0].Layer = -1 }},
		{"NaN bandwidth", func(d *sunfloor3d.Design) { d.Flows[0].BandwidthMBps = math.NaN() }},
		{"infinite X", func(d *sunfloor3d.Design) { d.Cores[0].X = math.Inf(1) }},
		{"self-loop flow", func(d *sunfloor3d.Design) { d.Flows[0].Dst = d.Flows[0].Src }},
	}
	runs := []struct {
		name string
		opts []sunfloor3d.Option
	}{
		{"serial", nil},
		{"parallel", []sunfloor3d.Option{
			sunfloor3d.WithParallelism(4), sunfloor3d.WithFrequenciesMHz(400, 600)}},
	}
	for _, e := range edits {
		d := *b.Graph3D
		d.Cores = append([]sunfloor3d.Core(nil), d.Cores...)
		d.Flows = append([]sunfloor3d.Flow(nil), d.Flows...)
		e.edit(&d)
		_, want := sunfloor3d.NewDesign(d.Cores, d.Flows)
		if want == nil {
			t.Fatalf("%s: NewDesign accepted the edited design", e.name)
		}
		for _, r := range runs {
			if key, err := sunfloor3d.Fingerprint(&d, r.opts...); err == nil || err.Error() != want.Error() {
				t.Errorf("%s, %s: Fingerprint = %q, %v; want NewDesign's error %q", e.name, r.name, key, err, want)
			}
			if _, err := sunfloor3d.Synthesize(context.Background(), &d, r.opts...); err == nil || err.Error() != want.Error() {
				t.Errorf("%s, %s: Synthesize error %v, want NewDesign's error %q", e.name, r.name, err, want)
			}
		}
	}
}

// TestSerialParallelIdentical checks the core contract of the concurrent
// sweep: WithParallelism(N) returns byte-identical structured results to the
// serial run, including Points ordering and the best point.
func TestSerialParallelIdentical(t *testing.T) {
	d := apiDesign(t)
	ctx := context.Background()
	common := []sunfloor3d.Option{
		sunfloor3d.WithFrequenciesMHz(400, 600),
		sunfloor3d.WithMaxILL(10),
	}

	serial, err := sunfloor3d.Synthesize(ctx, d, append(common, sunfloor3d.WithParallelism(1))...)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sunfloor3d.Synthesize(ctx, d, append(common, sunfloor3d.WithParallelism(8))...)
	if err != nil {
		t.Fatal(err)
	}

	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Fatalf("serial and parallel results differ:\nserial:   %s\nparallel: %s", sj, pj)
	}
	if serial.BestIndex != parallel.BestIndex {
		t.Fatalf("best index differs: serial %d, parallel %d", serial.BestIndex, parallel.BestIndex)
	}
	if serial.Best() == nil {
		t.Fatal("no valid design point found")
	}
	if got, want := serial.Best().Metrics, parallel.Best().Metrics; got.Power.TotalMW() != want.Power.TotalMW() ||
		got.AvgLatencyCycles != want.AvgLatencyCycles {
		t.Fatalf("best metrics differ: serial %+v, parallel %+v", got, want)
	}
}

// TestRouteStatsAndTiming checks that every evaluated point carries its
// router statistics and wall-clock duration.
func TestRouteStatsAndTiming(t *testing.T) {
	d := apiDesign(t)
	res, err := sunfloor3d.Synthesize(context.Background(), d, sunfloor3d.WithMaxILL(10))
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
	if best == nil {
		t.Fatal("no valid point")
	}
	if best.Route.Routed == 0 || best.Route.FailedFlows != 0 {
		t.Errorf("best point route stats = %+v, want all flows routed", best.Route)
	}
	timedPoints := 0
	for _, p := range res.Points {
		if p.Elapsed > 0 {
			timedPoints++
		}
	}
	if timedPoints == 0 {
		t.Error("no point carries a per-point duration")
	}
}

// TestProgressEvents checks that every evaluated point is streamed exactly
// once, serialised, with a monotonically increasing Done counter.
func TestProgressEvents(t *testing.T) {
	d := apiDesign(t)
	var mu sync.Mutex
	var events []sunfloor3d.Event
	res, err := sunfloor3d.Synthesize(context.Background(), d,
		sunfloor3d.WithMaxILL(10),
		sunfloor3d.WithParallelism(4),
		sunfloor3d.WithProgress(func(ev sunfloor3d.Event) {
			mu.Lock()
			defer mu.Unlock()
			events = append(events, ev)
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events delivered")
	}
	for i, ev := range events {
		if ev.Done != i+1 {
			t.Fatalf("event %d has Done=%d, want %d (callbacks must be serialised)", i, ev.Done, i+1)
		}
		if ev.Done > ev.Total {
			t.Fatalf("event %d has Done=%d > Total=%d", i, ev.Done, ev.Total)
		}
	}
	// Retried theta / fallback points can make the event count exceed the
	// retained points, never the other way around.
	if len(events) < len(res.Points) {
		t.Fatalf("%d events for %d retained points", len(events), len(res.Points))
	}
}

// TestCancellation checks that cancelling the context from a progress
// callback stops the sweep promptly with the context's error.
func TestCancellation(t *testing.T) {
	b, err := sunfloor3d.BenchmarkByName("D_26_media", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var events int
	res, err := sunfloor3d.Synthesize(ctx, b.Graph3D,
		sunfloor3d.WithParallelism(2),
		sunfloor3d.WithProgress(func(sunfloor3d.Event) {
			events++
			cancel()
		}),
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
	// The sweep must stop after the points already in flight, far short of
	// the full 26-switch x theta sweep.
	if events > 8 {
		t.Fatalf("%d points evaluated after cancellation (parallelism 2)", events)
	}
}

// TestResultJSONRoundTrip checks that the structured result marshals to JSON
// and back without losing any serialisable field.
func TestResultJSONRoundTrip(t *testing.T) {
	d := apiDesign(t)
	res, err := sunfloor3d.Synthesize(context.Background(), d, sunfloor3d.WithMaxILL(10))
	if err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var restored sunfloor3d.Result
	if err := json.Unmarshal(first, &restored); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("JSON round trip is lossy:\nfirst:  %s\nsecond: %s", first, second)
	}
	if restored.BestIndex != res.BestIndex || len(restored.Points) != len(res.Points) {
		t.Fatal("restored result structure differs")
	}
	if best := restored.Best(); best == nil {
		t.Fatal("restored result lost its best point")
	} else if best.Topology() != nil {
		t.Error("topology should not survive a JSON round trip")
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("WriteJSON wrote nothing")
	}
}

// TestResultRenderers sanity-checks the text renderers the CLI relies on.
func TestResultRenderers(t *testing.T) {
	d := apiDesign(t)
	res, err := sunfloor3d.Synthesize(context.Background(), d, sunfloor3d.WithMaxILL(10))
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
	if best == nil {
		t.Fatal("no valid point")
	}
	if txt := res.Text(); !bytes.Contains([]byte(txt), []byte("best point:")) {
		t.Errorf("Result.Text missing best point line:\n%s", txt)
	}
	if rep := best.Report(); !bytes.Contains([]byte(rep), []byte("total_power_mw")) {
		t.Errorf("DesignPoint.Report missing total_power_mw:\n%s", rep)
	}
	fp, err := best.Topology().Floorplan()
	if err != nil {
		t.Fatal(err)
	}
	if txt := fp.Text(); !bytes.Contains([]byte(txt), []byte("chip_area_mm2")) {
		t.Errorf("Floorplan.Text missing chip_area_mm2:\n%s", txt)
	}
}
