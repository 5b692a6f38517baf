package memo

import (
	"bytes"
	"testing"

	"sunfloor3d/internal/fault"
	"sunfloor3d/internal/model"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/sim"
	"sunfloor3d/internal/synth"
)

// testGraph builds a small three-core, two-layer design.
func testGraph(t *testing.T) *model.CommGraph {
	t.Helper()
	cores := []model.Core{
		{Name: "cpu", Width: 1, Height: 1, X: 0, Y: 0, Layer: 0},
		{Name: "mem", Width: 2, Height: 1, X: 1.5, Y: 0, Layer: 1, IsMemory: true},
		{Name: "dma", Width: 1, Height: 0.5, X: 0, Y: 1.5, Layer: 0},
	}
	flows := []model.Flow{
		{Src: 0, Dst: 1, BandwidthMBps: 400, LatencyCycles: 10, Type: model.Request},
		{Src: 1, Dst: 0, BandwidthMBps: 400, LatencyCycles: 10, Type: model.Response},
		{Src: 2, Dst: 1, BandwidthMBps: 120, Type: model.Request},
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestKeyDeterministic(t *testing.T) {
	g := testGraph(t)
	opt := synth.DefaultOptions()
	k1 := Key(g, opt)
	k2 := Key(g, opt)
	if k1 != k2 {
		t.Fatalf("same inputs hashed differently: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("key is not a sha-256 hex string: %q", k1)
	}
	// An independently constructed but equal graph must hash identically.
	k3 := Key(testGraph(t), synth.DefaultOptions())
	if k1 != k3 {
		t.Fatalf("equal graphs hashed differently: %s vs %s", k1, k3)
	}
}

// TestKeySpecRoundTrip checks that the key depends on the design content, not
// on its representation: a graph written to the text spec formats and parsed
// back produces the same key as the original.
func TestKeySpecRoundTrip(t *testing.T) {
	g := testGraph(t)
	var cores, comm bytes.Buffer
	if err := model.WriteCoreSpec(&cores, g.Cores); err != nil {
		t.Fatal(err)
	}
	if err := model.WriteCommSpec(&comm, g); err != nil {
		t.Fatal(err)
	}
	parsed, err := model.LoadDesign(&cores, &comm)
	if err != nil {
		t.Fatal(err)
	}
	opt := synth.DefaultOptions()
	if k1, k2 := Key(g, opt), Key(parsed, opt); k1 != k2 {
		t.Fatalf("spec round trip changed the key: %s vs %s", k1, k2)
	}
}

// TestKeyIgnoresExecutionKnobs asserts that the options proven not to affect
// the serialised Result — parallelism, progress callbacks, the hot-path
// toggles and the shared scheduler — stay out of the key, so a cache filled
// by a 32-worker server answers a serial CLI run and vice versa.
func TestKeyIgnoresExecutionKnobs(t *testing.T) {
	g := testGraph(t)
	base := synth.DefaultOptions()
	ref := Key(g, base)

	mod := base
	mod.Parallelism = 16
	mod.Progress = func(synth.Event) {}
	mod.Scheduler = synth.NewScheduler(4)
	mod.Weight = 7
	if k := Key(g, mod); k != ref {
		t.Fatalf("execution knobs changed the key: %s vs %s", k, ref)
	}
}

// TestKeyCoversResultAffectingFields flips each result-affecting input and
// asserts the key moves.
func TestKeyCoversResultAffectingFields(t *testing.T) {
	g := testGraph(t)
	base := synth.DefaultOptions()
	ref := Key(g, base)

	mutations := map[string]func(*synth.Options){
		"frequencies":       func(o *synth.Options) { o.FrequenciesMHz = []float64{400, 600} },
		"max_ill":           func(o *synth.Options) { o.MaxILL = 12 },
		"soft_ill_margin":   func(o *synth.Options) { o.SoftILLMargin = 5 },
		"phase":             func(o *synth.Options) { o.Phase = synth.Phase2Only },
		"alpha":             func(o *synth.Options) { o.Partition.Alpha = 0.5 },
		"theta_step":        func(o *synth.Options) { o.Partition.ThetaStep = 1 },
		"switch_layer":      func(o *synth.Options) { o.SwitchLayer = synth.LayerMajority },
		"power_weight":      func(o *synth.Options) { o.PowerWeight = 2 },
		"latency_weight":    func(o *synth.Options) { o.LatencyWeight = 0.25 },
		"lp_placement":      func(o *synth.Options) { o.RunLPPlacement = true },
		"lp_on_best":        func(o *synth.Options) { o.LPOnBest = false },
		"max_sw_per_layer":  func(o *synth.Options) { o.MaxSwitchesPerLayer = 3 },
		"require_latency":   func(o *synth.Options) { o.RequireLatencyMet = true },
		"library_link_bits": func(o *synth.Options) { o.Lib.LinkWidthBits = 64 },
		"library_sw_power":  func(o *synth.Options) { o.Lib.SwitchBasePowerMW *= 2 },
		"space_present": func(o *synth.Options) {
			o.Space = &synth.Space{Axes: []synth.Axis{{Name: synth.AxisFreqMHz, Values: []float64{400}}}}
		},
		"space_no_prune": func(o *synth.Options) {
			o.Space = &synth.Space{NoPrune: true, Axes: []synth.Axis{{Name: synth.AxisFreqMHz, Values: []float64{400}}}}
		},
		"space_axis_name": func(o *synth.Options) {
			o.Space = &synth.Space{Axes: []synth.Axis{{Name: synth.AxisSwitchCount, Values: []float64{400}}}}
		},
		"space_axis_value": func(o *synth.Options) {
			o.Space = &synth.Space{Axes: []synth.Axis{{Name: synth.AxisFreqMHz, Values: []float64{600}}}}
		},
	}
	for name, mutate := range mutations {
		opt := base
		mutate(&opt)
		if k := Key(g, opt); k == ref {
			t.Errorf("mutating %s did not change the key", name)
		}
	}

	// The space variants must also differ pairwise, not just from the
	// space-less reference: presence, NoPrune, axis name and axis values all
	// feed the key.
	spaceKeys := map[string]string{}
	for _, name := range []string{"space_present", "space_no_prune", "space_axis_name", "space_axis_value"} {
		opt := base
		mutations[name](&opt)
		spaceKeys[name] = Key(g, opt)
	}
	for a, ka := range spaceKeys {
		for b, kb := range spaceKeys {
			if a < b && ka == kb {
				t.Errorf("%s and %s share a key", a, b)
			}
		}
	}

	// Graph-side mutations.
	g2 := testGraph(t)
	g2.Flows[0].BandwidthMBps = 401
	if Key(g2, base) == ref {
		t.Error("mutating a flow bandwidth did not change the key")
	}
	g3 := testGraph(t)
	g3.Cores[0].Layer = 1
	if Key(g3, base) == ref {
		t.Error("mutating a core layer did not change the key")
	}
	g4 := testGraph(t)
	g4.Cores[2].Name = "dma2"
	if Key(g4, base) == ref {
		t.Error("renaming a core did not change the key")
	}
}

// TestKeyCoversFaultFields flips each fault-model, sparing and dead-link
// input of the v3 key and asserts the key moves — the fields feed
// DesignPoint.Survivability, which is serialised, so a stale cache entry
// answering a mutated request would be a wrong answer.
func TestKeyCoversFaultFields(t *testing.T) {
	g := testGraph(t)
	base := synth.DefaultOptions()
	ref := Key(g, base)

	proc := noclib.StandardProcesses()[0]
	mutations := map[string]func(*synth.Options){
		"sparing_present": func(o *synth.Options) {
			o.Sparing = &fault.SparingConfig{Process: proc, TargetYield: 0.99}
		},
		"sparing_target": func(o *synth.Options) {
			o.Sparing = &fault.SparingConfig{Process: proc, TargetYield: 0.95}
		},
		"sparing_process": func(o *synth.Options) {
			o.Sparing = &fault.SparingConfig{Process: noclib.StandardProcesses()[1], TargetYield: 0.99}
		},
		"fault_present": func(o *synth.Options) {
			fc := fault.DefaultModelConfig()
			o.Fault = &fc
		},
		"fault_plans": func(o *synth.Options) {
			fc := fault.DefaultModelConfig()
			fc.Plans = 32
			o.Fault = &fc
		},
		"fault_faults_per_plan": func(o *synth.Options) {
			fc := fault.DefaultModelConfig()
			fc.FaultsPerPlan = 2
			o.Fault = &fc
		},
		"fault_seed": func(o *synth.Options) {
			fc := fault.DefaultModelConfig()
			fc.Seed = 99
			o.Fault = &fc
		},
		"fault_exhaustive_max": func(o *synth.Options) {
			fc := fault.DefaultModelConfig()
			fc.ExhaustiveMax = 0
			o.Fault = &fc
		},
		"fault_cycle": func(o *synth.Options) {
			fc := fault.DefaultModelConfig()
			fc.FaultCycle = 100
			o.Fault = &fc
		},
	}
	keys := map[string]string{}
	for name, mutate := range mutations {
		opt := base
		mutate(&opt)
		k := Key(g, opt)
		if k == ref {
			t.Errorf("mutating %s did not change the key", name)
		}
		keys[name] = k
	}
	// The variants must also differ pairwise: every field feeds the key on
	// its own, not just the presence bit.
	for a, ka := range keys {
		for b, kb := range keys {
			if a < b && ka == kb {
				t.Errorf("%s and %s share a key", a, b)
			}
		}
	}

	// The sim config's dead-link fields are v3 additions too: a cached run
	// without injected faults must not answer one with them.
	simBase := sim.DefaultConfig()
	withSim := base
	withSim.Sim = &simBase
	refSim := Key(g, withSim)
	deadCfg := simBase
	deadCfg.DeadLinks = [][2]int{{0, 1}}
	withDead := base
	withDead.Sim = &deadCfg
	if k := Key(g, withDead); k == refSim {
		t.Error("adding sim dead links did not change the key")
	}
	cycleCfg := deadCfg
	cycleCfg.FaultCycle = 200
	withCycle := base
	withCycle.Sim = &cycleCfg
	if Key(g, withCycle) == Key(g, withDead) {
		t.Error("changing the sim fault cycle did not change the key")
	}
}

// TestKeyNormalizesNegativeZero: -0.0 and +0.0 compare equal and behave
// identically through the whole flow, so they must share a key.
func TestKeyNormalizesNegativeZero(t *testing.T) {
	gPos := testGraph(t)
	gNeg := testGraph(t)
	gPos.Cores[0].X = 0.0
	gNeg.Cores[0].X = math_Copysign0()
	opt := synth.DefaultOptions()
	if k1, k2 := Key(gPos, opt), Key(gNeg, opt); k1 != k2 {
		t.Fatalf("-0.0 hashed differently from +0.0: %s vs %s", k1, k2)
	}
}

// math_Copysign0 returns -0.0 without tripping vet's suspicious-constant
// checks.
func math_Copysign0() float64 {
	z := 0.0
	return -z
}

// TestKeyFraming guards against field aliasing: moving a byte from the end
// of one string field to the start of the next must change the key.
func TestKeyFraming(t *testing.T) {
	mk := func(a, b string) string {
		g, err := model.NewCommGraph([]model.Core{
			{Name: a, Width: 1, Height: 1, Layer: 0},
			{Name: b, Width: 1, Height: 1, Layer: 0},
		}, []model.Flow{{Src: 0, Dst: 1, BandwidthMBps: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return Key(g, synth.DefaultOptions())
	}
	if mk("ab", "c") == mk("a", "bc") {
		t.Fatal("string fields alias across boundaries")
	}
}
