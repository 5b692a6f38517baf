package sunfloor3d_test

// Golden-corpus regression tests: the canonical JSON serialisation of the
// synthesis result for a set of fixed benchmark specs is committed under
// testdata/golden/. Any change to partitioning, routing, placement,
// evaluation or the result schema that alters synthesis output shows up as a
// byte-level diff against the corpus. After an intentional change, regenerate
// the corpus with:
//
//	go test -run TestGoldenCorpus -update .
//
// and review the diff like any other code change.

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sunfloor3d"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenCase is one fixed benchmark spec of the corpus. All inputs are fully
// deterministic: generated benchmarks use a fixed seed, and synthesis is
// deterministic regardless of parallelism or caching.
type goldenCase struct {
	name   string
	design func(t *testing.T) *sunfloor3d.Design
	opts   []sunfloor3d.Option
}

func goldenCases() []goldenCase {
	fromBench := func(name string, seed int64, flat bool) func(t *testing.T) *sunfloor3d.Design {
		return func(t *testing.T) *sunfloor3d.Design {
			t.Helper()
			b, err := sunfloor3d.BenchmarkByName(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			if flat {
				return b.Graph2D
			}
			return b.Graph3D
		}
	}
	fromGen := func(spec sunfloor3d.GenSpec) func(t *testing.T) *sunfloor3d.Design {
		return func(t *testing.T) *sunfloor3d.Design {
			t.Helper()
			b, err := sunfloor3d.GenerateBenchmark(spec)
			if err != nil {
				t.Fatal(err)
			}
			return b.Graph3D
		}
	}
	return []goldenCase{
		{
			// The paper's multimedia SoC with the default single-frequency
			// sweep and constraints.
			name:   "d26_media_defaults",
			design: fromBench("D_26_media", 1, false),
		},
		{
			// The flattened 2-D reference of the same design: exercises the
			// single-layer degenerate path (no theta sweep, no Phase 2).
			name:   "d26_media_2d",
			design: fromBench("D_26_media", 1, true),
		},
		{
			// A distributed benchmark across a two-frequency sweep: exercises
			// the partition cache and multi-frequency ordering.
			name:   "d36_4_two_freqs",
			design: fromBench("D_36_4", 1, false),
			opts: []sunfloor3d.Option{
				sunfloor3d.WithFrequenciesMHz(400, 600),
			},
		},
		{
			// The hand-written API test design with a tight inter-layer link
			// budget: exercises constraint rejections across a
			// three-frequency sweep. Its one unmet count (one switch at
			// 800 MHz) retains its Phase-1 point: theta cannot change a
			// one-block partition and no Phase-2 step has one switch, so no
			// retry is built (d65_pipe_fallback_900 pins the fallback).
			name:   "api_design_tight_ill",
			design: apiDesign,
			opts: []sunfloor3d.Option{
				sunfloor3d.WithFrequenciesMHz(400, 600, 800),
				sunfloor3d.WithMaxILL(6),
			},
		},
		{
			// A generated hub-and-spoke workload: the corpus pins a non-paper
			// design family (and the workload generator's bytes) the same way
			// it pins the paper benchmarks. The generator is deterministic, so
			// the spec is as stable an input as a committed fixture file.
			name:   "gen_hotspot_c24",
			design: fromGen(sunfloor3d.GenSpec{Shape: sunfloor3d.ShapeHotspot, Cores: 24, Layers: 3, Seed: 11, Hubs: 2}),
			opts: []sunfloor3d.Option{
				sunfloor3d.WithRequireLatencyMet(true),
			},
		},
		{
			// A generated multi-application mix across two frequencies:
			// cluster-local traffic plus cross-app bridges under the latency
			// validation and the partition cache.
			name:   "gen_multiapp_c27",
			design: fromGen(sunfloor3d.GenSpec{Shape: sunfloor3d.ShapeMultiApp, Cores: 27, Layers: 2, Seed: 23, Apps: 3}),
			opts: []sunfloor3d.Option{
				sunfloor3d.WithFrequenciesMHz(400, 800),
				sunfloor3d.WithRequireLatencyMet(true),
			},
		},
		{
			// A generated pipeline explored over frequency x VCs with the
			// whole sign-off ladder on: contention estimate, banded
			// simulation, sparing and fault replay. It pins the optional
			// point keys no other case holds (theta, pruned,
			// spare_tsv_macros, survivability, contention, sim_triage).
			name:   "gen_pipeline_c10_signoff",
			design: fromGen(sunfloor3d.GenSpec{Shape: sunfloor3d.ShapePipeline, Cores: 10, Layers: 3, Seed: 1}),
			opts:   signoffOptions(),
		},
		{
			// A distributed benchmark swept with the switch-placement LP on
			// every point: each point's wire-length-dependent power and
			// latency pin which optimal vertex every LP picks among
			// degenerate ones.
			name:   "d38_tvopd_lp_every_point",
			design: fromBench("D_38_tvopd", 1, false),
			opts: []sunfloor3d.Option{
				sunfloor3d.WithFrequenciesMHz(400, 800),
				sunfloor3d.WithLPPlacement(true),
			},
		},
		{
			// A pipeline benchmark at one frequency where Algorithm 1 leaves
			// switch counts unmet: it pins theta retries (theta 1 and 4)
			// and a retained Phase-2 fallback point (18 switches), so the
			// fallback's "first valid step with the unmet count" rule is
			// part of the corpus.
			name:   "d65_pipe_fallback_900",
			design: fromBench("D_65_pipe", 1, false),
			opts: []sunfloor3d.Option{
				sunfloor3d.WithFrequenciesMHz(900),
			},
		},
		{
			// A distributed benchmark at another seed where the router keeps
			// an inserted indirect switch: a valid point (20 switches, theta
			// 4) routes through it after 20 deadlock retries, so the
			// router's switch insertion and rollback are part of the corpus.
			name:   "d36_4_s2_indirect_900",
			design: fromBench("D_36_4", 2, false),
			opts: []sunfloor3d.Option{
				sunfloor3d.WithFrequenciesMHz(900),
			},
		},
		{
			// The paper's multimedia SoC explored over two frequencies and
			// two layer-count folds with the switch-placement LP on every
			// point. A fold keeps every planar core centre, and 36 of the
			// 90 placed topologies repeat one of the other fold, so the
			// corpus pins that a placement reused across folds is the one a
			// fresh LP would find.
			name:   "d26_media_lp_folds",
			design: fromBench("D_26_media", 1, false),
			opts: []sunfloor3d.Option{
				sunfloor3d.WithSpace(sunfloor3d.Space{Axes: []sunfloor3d.Axis{
					{Name: sunfloor3d.AxisFreqMHz, Values: []float64{400, 800}},
					{Name: sunfloor3d.AxisLayerCount, Values: []float64{2, 3}},
				}}),
				sunfloor3d.WithLPPlacement(true),
			},
		},
		{
			// The paper's multimedia SoC at one frequency with die-to-wafer
			// sparing and a 32-plan, 2-fault replay with simulation: unlike
			// gen_pipeline_c10_signoff, whose plans all end dead, its
			// replays repair plans, re-simulate them and repeat dead-link
			// sets within one replay.
			name:   "d26_media_fault_replay",
			design: fromBench("D_26_media", 1, false),
			opts:   faultReplayOptions(),
		},
	}
}

// faultReplayOptions returns the options of the d26_media_fault_replay case.
func faultReplayOptions() []sunfloor3d.Option {
	proc, err := sunfloor3d.ProcessByName("die-to-wafer")
	if err != nil {
		panic(err)
	}
	sc := sunfloor3d.DefaultSimConfig()
	sc.Cycles = 300
	sc.DrainCycles = 300
	sc.StatsLevel = sunfloor3d.SimStatsSummary
	return []sunfloor3d.Option{
		sunfloor3d.WithFrequenciesMHz(400),
		sunfloor3d.WithSimulation(sc),
		sunfloor3d.WithSparing(proc, 0.999),
		sunfloor3d.WithFaultModel(sunfloor3d.FaultModelConfig{Plans: 32, FaultsPerPlan: 2, Seed: 1}),
	}
}

// signoffOptions returns the options of the gen_pipeline_c10_signoff case.
func signoffOptions() []sunfloor3d.Option {
	proc, err := sunfloor3d.ProcessByName("wafer-level-A")
	if err != nil {
		panic(err)
	}
	sc := sunfloor3d.DefaultSimConfig()
	sc.Cycles = 400
	sc.DrainCycles = 400
	sc.StatsLevel = sunfloor3d.SimStatsSummary
	fm := sunfloor3d.DefaultFaultModelConfig()
	fm.Plans = 4
	return []sunfloor3d.Option{
		sunfloor3d.WithMaxILL(2),
		sunfloor3d.WithSpace(sunfloor3d.Space{Axes: []sunfloor3d.Axis{
			{Name: sunfloor3d.AxisFreqMHz, Values: []float64{400, 600}},
			{Name: sunfloor3d.AxisVCs, Values: []float64{2, 4}},
		}}),
		sunfloor3d.WithContention(),
		sunfloor3d.WithSimulation(sc),
		sunfloor3d.WithSimBand(0.05),
		sunfloor3d.WithSparing(proc, 0.99),
		sunfloor3d.WithFaultModel(fm),
	}
}

func TestGoldenCorpus(t *testing.T) {
	for _, tc := range goldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := sunfloor3d.Synthesize(context.Background(), tc.design(t), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", tc.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, buf.Len())
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run 'go test -run TestGoldenCorpus -update .'): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("synthesis output drifted from %s.\n"+
					"If the change is intentional, regenerate with 'go test -run TestGoldenCorpus -update .' and review the diff.\n"+
					"got %d bytes, want %d bytes%s",
					path, buf.Len(), len(want), firstDiff(buf.Bytes(), want))
			}
		})
	}
}

// firstDiff renders the first divergence between two byte slices for the
// failure message.
func firstDiff(got, want []byte) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			lo := i - 60
			if lo < 0 {
				lo = 0
			}
			hiG, hiW := i+60, i+60
			if hiG > len(got) {
				hiG = len(got)
			}
			if hiW > len(want) {
				hiW = len(want)
			}
			return "\nfirst diff at byte " + itoa(i) +
				":\n got: ..." + string(got[lo:hiG]) + "...\nwant: ..." + string(want[lo:hiW]) + "..."
		}
	}
	return "\none output is a prefix of the other"
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}
