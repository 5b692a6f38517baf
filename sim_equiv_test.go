package sunfloor3d_test

// Simulator regression over the golden corpus: for every corpus spec's best
// synthesized topology — and for every valid point of the
// d26_media_defaults sweep, the WithSimulation workload on a paper design —
// the simulator's SimStats under every injection profile, and its zero-load
// latency vector, must hash to the digests in
// testdata/sim_reference_digests.json. The reference stepper wrote those
// digests before it left production code; it is now kept only in
// internal/sim's tests, whose equivalence tests and FuzzSimDeterminism still
// compare the production engine against it. So this test holds the
// production engine to the reference on real synthesized designs: any
// change to arbitration, buffering or scheduling that alters observable
// behaviour fails here before it can drift the golden corpus. After a golden
// case is added, write its entries with
//
//	go test -run TestSimEngineMatchesReferenceOnGoldenCorpus -update .
//
// which hashes the production engine's output, so run it only while the
// internal/sim equivalence tests pass.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"sunfloor3d"
)

const simDigestsFile = "testdata/sim_reference_digests.json"

func TestSimEngineMatchesReferenceOnGoldenCorpus(t *testing.T) {
	raw, err := os.ReadFile(simDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	var frozen map[string]string
	if err := json.Unmarshal(raw, &frozen); err != nil {
		t.Fatal(err)
	}
	for _, tc := range goldenCases() {
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
			got := map[string]string{}
			for i := range pts {
				top := pts[i].Topology()
				if top == nil {
					t.Fatalf("valid point %d has no topology", i)
				}
				simDigests(t, fmt.Sprintf("%s/%d", tc.name, i), top, got)
			}
			checkSimDigests(t, frozen, tc.name+"/", got)
		})
	}
	if *update {
		raw, err := json.MarshalIndent(frozen, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(simDigestsFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// simDigests simulates the topology under every injection profile and runs
// the zero-load oracle, recording the SHA-256 of each JSON result under
// prefix/<profile> and prefix/zero_load.
func simDigests(t *testing.T, prefix string, top *sunfloor3d.Topology, out map[string]string) {
	t.Helper()
	for _, profile := range []sunfloor3d.SimProfile{
		sunfloor3d.SimUniform, sunfloor3d.SimBursty, sunfloor3d.SimHotspot,
	} {
		cfg := sunfloor3d.DefaultSimConfig()
		cfg.Profile = profile
		cfg.Cycles = 1000
		cfg.DrainCycles = 1000
		cfg.Seed = 3
		st, err := top.Simulate(cfg)
		if err != nil {
			t.Fatalf("%s, %v: %v", prefix, profile, err)
		}
		out[prefix+"/"+profile.String()] = jsonDigest(t, st)
	}
	zl, err := top.ZeroLoadLatencies()
	if err != nil {
		t.Fatalf("%s, zero load: %v", prefix, err)
	}
	out[prefix+"/zero_load"] = jsonDigest(t, zl)
}

// checkSimDigests compares one golden case's digests with the frozen
// entries under the same key prefix, or under -update replaces those
// entries.
func checkSimDigests(t *testing.T, frozen map[string]string, prefix string, got map[string]string) {
	t.Helper()
	n := 0
	for key := range frozen {
		if strings.HasPrefix(key, prefix) {
			if *update {
				delete(frozen, key)
			}
			n++
		}
	}
	for key, sum := range got {
		switch w, ok := frozen[key]; {
		case *update:
			frozen[key] = sum
		case !ok:
			t.Errorf("%s: no frozen digest (add it with -update)", key)
		case sum != w:
			t.Errorf("%s: simulator output diverged from the reference engine's", key)
		}
	}
	if !*update && n != len(got) {
		t.Errorf("%d frozen digests for this case, the simulator produced %d", n, len(got))
	}
}

// jsonDigest returns the hex SHA-256 of v's JSON encoding.
func jsonDigest(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
