package sunfloor3d_test

// Engine-equivalence regression over the golden corpus: for every corpus
// spec's best synthesized topology — and for every valid point of the
// d26_media_defaults sweep, the WithSimulation workload on a paper design —
// the optimized simulator core and the retained reference stepper
// (SimConfig.Reference) must produce byte-identical SimStats under every
// injection profile, and the reused zero-load oracle must match the
// reference per-flow-rebuild loop exactly.
// Together with the internal/sim fixture tests this pins the PR 4 rewrite:
// any future change to arbitration, buffering or scheduling that alters
// observable behaviour fails here before it can drift the golden corpus.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"sunfloor3d"
)

func TestSimEngineMatchesReferenceOnGoldenCorpus(t *testing.T) {
	for _, tc := range goldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := sunfloor3d.Synthesize(context.Background(), tc.design(t), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			best := res.Best()
			if best == nil || best.Topology() == nil {
				t.Fatal("no valid design point")
			}
			pts := []sunfloor3d.DesignPoint{*best}
			if tc.name == "d26_media_defaults" {
				pts = res.ValidPoints()
			}
			for i := range pts {
				top := pts[i].Topology()
				if top == nil {
					t.Fatalf("valid point %d has no topology", i)
				}
				checkSimEngines(t, i, top)
			}
		})
	}
}

// checkSimEngines compares the optimized and reference simulator engines on
// the topology of point i under every injection profile and the zero-load
// oracle.
func checkSimEngines(t *testing.T, i int, top *sunfloor3d.Topology) {
	t.Helper()
	for _, profile := range []sunfloor3d.SimProfile{
		sunfloor3d.SimUniform, sunfloor3d.SimBursty, sunfloor3d.SimHotspot,
	} {
		cfg := sunfloor3d.DefaultSimConfig()
		cfg.Profile = profile
		cfg.Cycles = 1000
		cfg.DrainCycles = 1000
		cfg.Seed = 3

		opt, err := top.Simulate(cfg)
		if err != nil {
			t.Fatalf("point %d, %v: optimized engine: %v", i, profile, err)
		}
		cfg.Reference = true
		ref, err := top.Simulate(cfg)
		if err != nil {
			t.Fatalf("point %d, %v: reference engine: %v", i, profile, err)
		}
		oj, err := json.Marshal(opt)
		if err != nil {
			t.Fatal(err)
		}
		rj, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(oj, rj) {
			t.Errorf("point %d, %v: engines diverged\noptimized: %s\nreference: %s", i, profile, oj, rj)
		}
	}

	opt, err := top.ZeroLoadLatencies()
	if err != nil {
		t.Fatal(err)
	}
	refCfg := sunfloor3d.DefaultSimConfig()
	refCfg.Reference = true
	ref, err := top.ZeroLoadLatenciesConfig(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	for f := range opt {
		if opt[f] != ref[f] {
			t.Errorf("point %d, zero-load flow %d: optimized %v, reference %v", i, f, opt[f], ref[f])
		}
	}
}
