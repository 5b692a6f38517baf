package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"sunfloor3d"
	"sunfloor3d/internal/bench"
)

// TestMain lets the test binary serve as the reference kernel's process, as
// the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(hostKernelEnv) == "1" {
		if err := serveHostKernel(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1.5, 9.25, 2, 7.5}, [3]float64{1.75, 5, 8.375}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		pct    float64
		report bool
	}{
		{19, 0, false}, // p75 of 19 leaves only 4 beyond
		{39, 0, false},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true}, // p95 would leave 9
		{200, 95, true},
		{1000, 99, true},
		{9999, 99, true}, // p99.9 would leave 9
		{10000, 99.9, true},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[c.n-1-i] = float64(i + 1) // descending, to check it sorts
		}
		pct, v, ok := tailPercentile(xs)
		if ok != c.report || pct != c.pct {
			t.Errorf("n=%d: got p%g ok=%v, want p%g ok=%v", c.n, pct, ok, c.pct, c.report)
			continue
		}
		if ok {
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: p%g = %g has %d samples beyond it", c.n, pct, v, beyond)
			}
		}
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // ends after root
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},  // a's child, not root's
		{ID: 6, Parent: 1, Name: "e", Start: 200, End: 250},
	}
	want := []int64{
		100 - (60 - 10) - (100 - 90), // the union of a and b, and c clipped to the root
		30 - 5,
		30, 30, 5, 50,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	tot := totalsByName(append(spans, span{ID: 7, Parent: 1, Name: "a", Start: 60, End: 70}))
	if a := tot["a"]; a.count != 2 || a.self != 25+10 || a.dur != 40 {
		t.Errorf("totals of a = %+v", a)
	}
}

func TestServeInputIsAFunctionOfTheSeed(t *testing.T) {
	gens, seq := serveGens(7, serveDesigns), serveSequence(7, serveDesigns, serveRequests)
	if !reflect.DeepEqual(gens, serveGens(7, serveDesigns)) || !reflect.DeepEqual(seq, serveSequence(7, serveDesigns, serveRequests)) {
		t.Fatal("two inputs of seed 7 differ")
	}
	if reflect.DeepEqual(gens, serveGens(8, serveDesigns)) || reflect.DeepEqual(seq, serveSequence(8, serveDesigns, serveRequests)) {
		t.Fatal("seeds 7 and 8 give the same designs or sequence")
	}
	seen := map[int]int{}
	for _, d := range seq {
		if d < 0 || d >= serveDesigns {
			t.Fatalf("request for design %d", d)
		}
		seen[d]++
	}
	if len(seen) <= serveMemEntries {
		t.Errorf("the sequence touches %d designs; the working set must exceed the %d-entry memory tier", len(seen), serveMemEntries)
	}

	// The generated designs, specifications and request bodies repeat too.
	a, err := makeServeInput(7, true)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeServeInput(7, true)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two smoke inputs of seed 7 differ")
	}
	if !reflect.DeepEqual(a.gens, gens[:serveSmokeDesigns]) || len(a.seq) != serveSmokeRequests {
		t.Fatal("the smoke input's designs are not the first designs of the full input")
	}
	if _, err := serveJobs(a, []int{0, 1, 2, 3}); err != nil {
		t.Fatalf("the served specifications do not parse: %v", err)
	}
}

func TestSynthJobsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloadNames[:3] {
		a, err := synthJobs(w, 5, true)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := synthJobs(w, 5, true)
		for i := range a {
			ka, _ := sunfloor3d.Fingerprint(a[i].design, a[i].opt.facade()...)
			kb, _ := sunfloor3d.Fingerprint(b[i].design, b[i].opt.facade()...)
			if a[i].label != b[i].label || ka != kb {
				t.Errorf("%s: call %d differs between two inputs of one seed", w, i)
			}
		}
	}
}

// traceD26 runs the traced call of D_26_media at 400 MHz.
func traceD26(t *testing.T) (*layerTrace, *report) {
	t.Helper()
	job := synthJob{label: "test/D_26_media", design: bench.D26Media(1).Graph3D, opt: jobOptions{freqs: []float64{400}}}
	lt := newLayerTrace()
	rep := &report{workload: "test"}
	lt.traceCalls([]synthJob{job}, newChecker(nil, 1), rep)
	return lt, rep
}

func TestReplayGatePassesOnD26Media(t *testing.T) {
	lt, rep := traceD26(t)
	if !rep.correct() {
		t.Fatalf("traced call failed: %v", rep.problems)
	}
	c := lt.counts
	if c.gateChecked == 0 || c.attempts < c.retained {
		t.Fatalf("gate checked %d points over %d attempts", c.gateChecked, c.attempts)
	}
	totals := totalsByName(lt.tr.spans)
	for _, name := range []string{"route.ComputePaths", "partition.PartitionCores", "topology.build", "topology.Evaluate", "place.OptimizeSwitchPositions", "place.InsertNoC"} {
		if totals[name].count == 0 {
			t.Errorf("no %s span", name)
		}
	}
	if cov := float64(totals["synth.attempt"].dur) / float64(c.elapsed); cov < 0.5 || cov > 2 {
		t.Errorf("replayed attempt time is %.2f of the engine's", cov)
	}
}

func TestReplayGateRejectsAChangedPoint(t *testing.T) {
	d := bench.D26Media(1).Graph3D
	opt := jobOptions{freqs: []float64{400}}
	var events []sunfloor3d.Event
	res, err := sunfloor3d.Synthesize(context.Background(), d, append(opt.facade(), sunfloor3d.WithProgress(func(ev sunfloor3d.Event) { events = append(events, ev) }))...)
	if err != nil {
		t.Fatal(err)
	}
	i := res.BestIndex
	res.Points[i].Metrics.NoCAreaMM2 = math.Nextafter(res.Points[i].Metrics.NoCAreaMM2, math.Inf(1))
	rp := &replayer{tr: newTracer(), trace: "t", design: d, opt: opt.engine(), counts: &layerCounts{}}
	if err := rp.replay(events, res); err == nil || !strings.Contains(err.Error(), "replay gate") {
		t.Fatalf("replay of a changed point: %v, want a gate failure", err)
	}
}

func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	names := func(ms []metric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.name] = m.unit
		}
		return out
	}
	e2e := &report{}
	var m runMeter
	measureSynth(runConfig{smoke: true}, nil, newChecker(nil, 1), &m, e2e)
	m.addCommon(e2e, 0)
	if !e2e.correct() {
		t.Errorf("measuring the host or the peak memory failed: %v", e2e.problems)
	}
	want := map[string]string{}
	for _, m := range spec.EndToEnd {
		want[m.Name] = m.Unit
	}
	if got := names(e2e.metrics); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
	}
	layers := &report{}
	newLayerTrace().addMetrics(layers)
	want = map[string]string{}
	for _, m := range spec.PerLayer {
		want[m.Name] = m.Unit
	}
	if got := names(layers.metrics); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		better string
		b      []float64
		want   string
	}{
		{"lower", shift(1), "unchanged"},
		{"lower", shift(1.2), "worse"},
		{"lower", shift(0.9), "better"},
		{"higher", shift(0.8), "worse"},
		{"higher", shift(1.2), "better"},
		{"lower", []float64{50, 150, 100, 200, 60, 100}, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(c.better, 0.1, base, c.b); got != c.want {
			t.Errorf("%s better, B=%v: %s, want %s", c.better, c.b, got, c.want)
		}
	}
}
