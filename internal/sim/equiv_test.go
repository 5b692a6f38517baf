package sim_test

// Equivalence tests between the optimized execution core and the retained
// reference stepper (reference_test.go): for the same topology and Config the
// two engines must produce byte-identical Stats — same injection times, same
// arbitration grants, same watchdog verdicts, same floating-point latency
// sums. The root package checks the production engine over the
// golden-corpus specs against digests the reference wrote; this file covers
// the hand-built fixtures, including both deadlock scenarios, which exercise
// the circular-wait detector that a healthy synthesized design never
// reaches.

import (
	"bytes"
	"encoding/json"
	"testing"

	"sunfloor3d/internal/sim"
	"sunfloor3d/internal/topology"
)

// runBothEngines simulates the topology with the optimized and the reference
// engine and fails the test unless the full Stats are byte-identical.
func runBothEngines(t *testing.T, label string, top *topology.Topology, cfg sim.Config) *sim.Stats {
	t.Helper()
	opt, err := sim.Run(top, cfg)
	if err != nil {
		t.Fatalf("%s: optimized engine: %v", label, err)
	}
	ref, err := sim.RunReference(top, cfg)
	if err != nil {
		t.Fatalf("%s: reference engine: %v", label, err)
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
		t.Fatalf("%s: engines diverged\noptimized: %s\nreference: %s", label, oj, rj)
	}
	return opt
}

// TestEnginesAgreeOnHealthyTraffic compares the engines on a synthesized
// topology across every profile and a load range that spans near-idle (long
// quiet stretches exercising the fast-forward path) to saturation (backlog
// and credit stalls exercising the active sets).
func TestEnginesAgreeOnHealthyTraffic(t *testing.T) {
	top := synthBest(t, testDesign(t))
	for _, profile := range []sim.Profile{sim.Uniform, sim.Bursty, sim.Hotspot} {
		for _, scale := range []float64{0.02, 0.3, 1.0, 2.5} {
			cfg := sim.DefaultConfig()
			cfg.Profile = profile
			cfg.InjectionScale = scale
			cfg.Cycles = 1200
			cfg.DrainCycles = 1200
			cfg.Seed = 7
			st := runBothEngines(t, profile.String(), top, cfg)
			if st.PacketsInjected == 0 {
				t.Errorf("%v scale %v: no packets injected", profile, scale)
			}
		}
	}
}

// TestEnginesAgreeOnDeadlock compares the engines on both deadlock fixtures:
// the fully wedged ring (global-stall watchdog) and the partially wedged ring
// behind live traffic (circular-wait detector). Deadlock cycle, verdict and
// all partial statistics must match bit for bit.
func TestEnginesAgreeOnDeadlock(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Cycles = 3000
	cfg.DrainCycles = 3000
	cfg.PacketFlits = 8
	cfg.VCs = 1
	cfg.BufferFlits = 2
	cfg.WatchdogCycles = 200

	st := runBothEngines(t, "full deadlock", deadlockRing(t), cfg)
	if !st.Deadlock {
		t.Fatal("ring fixture did not deadlock")
	}

	cfg.Cycles = 4000
	cfg.DrainCycles = 4000
	st = runBothEngines(t, "partial deadlock", partialDeadlockTopology(t), cfg)
	if !st.Deadlock {
		t.Fatal("partial-deadlock fixture did not deadlock")
	}
}

// TestEnginesAgreeOnZeroLoad checks the reused-network oracle against the
// reference per-flow-rebuild loop.
func TestEnginesAgreeOnZeroLoad(t *testing.T) {
	top := synthBest(t, testDesign(t))
	cfg := sim.DefaultConfig()
	opt, err := sim.ZeroLoadLatencies(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.ReferenceZeroLoadLatencies(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt) != len(ref) {
		t.Fatalf("latency vector lengths differ: %d vs %d", len(opt), len(ref))
	}
	for f := range opt {
		if opt[f] != ref[f] {
			t.Errorf("flow %d: optimized %v, reference %v", f, opt[f], ref[f])
		}
	}
}

// TestStatsSummaryLevel checks that StatsSummary changes only what is
// collected, not what is simulated: the aggregate and per-flow numbers equal
// the full run's, and the per-link/per-switch tables are absent.
func TestStatsSummaryLevel(t *testing.T) {
	top := synthBest(t, testDesign(t))
	cfg := sim.DefaultConfig()
	cfg.Cycles = 800
	cfg.DrainCycles = 800

	full, err := sim.Run(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.StatsLevel = sim.StatsSummary
	summary, err := sim.Run(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Links != nil || summary.Switches != nil {
		t.Fatalf("summary level collected %d link and %d switch rows",
			len(summary.Links), len(summary.Switches))
	}
	if len(full.Links) == 0 || len(full.Switches) == 0 {
		t.Fatal("full level collected no link/switch rows")
	}
	summary.Links, summary.Switches = full.Links, full.Switches
	sj, err := json.Marshal(summary)
	if err != nil {
		t.Fatal(err)
	}
	fj, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, fj) {
		t.Fatalf("summary run diverged from full run beyond the omitted tables\nsummary: %s\nfull: %s", sj, fj)
	}
}
