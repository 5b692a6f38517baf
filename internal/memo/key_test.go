package memo

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
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

// TestKeyCoversResultAffectingFields flips each result-affecting input and
// asserts the key moves to a value no other flip produces.
func TestKeyCoversResultAffectingFields(t *testing.T) {
	g := testGraph(t)
	base := synth.DefaultOptions()
	withSpace := func(s synth.Space) func(*synth.Options) {
		return func(o *synth.Options) { o.Space = &s }
	}
	freq400 := []synth.Axis{{Name: synth.AxisFreqMHz, Values: []float64{400}}}
	requireDistinctKeys(t, g, base, map[string]func(*synth.Options){
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
		"space_present":     withSpace(synth.Space{Axes: freq400}),
		"space_no_prune":    withSpace(synth.Space{NoPrune: true, Axes: freq400}),
		"space_axis_name":   withSpace(synth.Space{Axes: []synth.Axis{{Name: synth.AxisSwitchCount, Values: []float64{400}}}}),
		"space_axis_value":  withSpace(synth.Space{Axes: []synth.Axis{{Name: synth.AxisFreqMHz, Values: []float64{600}}}}),
	})

	ref := Key(g, base)
	for name, mutate := range map[string]func(*model.CommGraph){
		"a flow bandwidth": func(g *model.CommGraph) { g.Flows[0].BandwidthMBps = 401 },
		"a core layer":     func(g *model.CommGraph) { g.Cores[0].Layer = 1 },
		"a core name":      func(g *model.CommGraph) { g.Cores[2].Name = "dma2" },
	} {
		g2 := testGraph(t)
		mutate(g2)
		if Key(g2, base) == ref {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
}

// TestKeyCoversFaultFields flips each fault-model, sparing and dead-link
// input and asserts the key moves to a value no other flip produces — the
// fields feed DesignPoint.Survivability, which is serialised, so a stale
// cache entry answering a mutated request would be a wrong answer.
func TestKeyCoversFaultFields(t *testing.T) {
	procs := noclib.StandardProcesses()
	withSparing := func(p noclib.Process, target float64) func(*synth.Options) {
		return func(o *synth.Options) { o.Sparing = &fault.SparingConfig{Process: p, TargetYield: target} }
	}
	withFault := func(edit func(*fault.ModelConfig)) func(*synth.Options) {
		return func(o *synth.Options) { fc := fault.DefaultModelConfig(); edit(&fc); o.Fault = &fc }
	}
	withSim := func(edit func(*sim.Config)) func(*synth.Options) {
		return func(o *synth.Options) { sc := sim.DefaultConfig(); edit(&sc); o.Sim = &sc }
	}
	requireDistinctKeys(t, testGraph(t), synth.DefaultOptions(), map[string]func(*synth.Options){
		"sparing_present":       withSparing(procs[0], 0.99),
		"sparing_target":        withSparing(procs[0], 0.95),
		"sparing_process":       withSparing(procs[1], 0.99),
		"fault_present":         withFault(func(*fault.ModelConfig) {}),
		"fault_plans":           withFault(func(fc *fault.ModelConfig) { fc.Plans = 32 }),
		"fault_faults_per_plan": withFault(func(fc *fault.ModelConfig) { fc.FaultsPerPlan = 2 }),
		"fault_seed":            withFault(func(fc *fault.ModelConfig) { fc.Seed = 99 }),
		"fault_exhaustive_max":  withFault(func(fc *fault.ModelConfig) { fc.ExhaustiveMax = 0 }),
		"fault_cycle":           withFault(func(fc *fault.ModelConfig) { fc.FaultCycle = 100 }),
		// A cached run without injected faults must not answer one with them.
		"sim_present":    withSim(func(*sim.Config) {}),
		"sim_dead_links": withSim(func(sc *sim.Config) { sc.DeadLinks = [][2]int{{0, 1}} }),
		"sim_fault_cycle": withSim(func(sc *sim.Config) {
			sc.DeadLinks = [][2]int{{0, 1}}
			sc.FaultCycle = 200
		}),
	})
}

// requireDistinctKeys applies each mutation to a copy of base and requires
// every mutated key to differ from the unmutated one and from each other:
// every field feeds the key on its own, not just a presence bit.
func requireDistinctKeys(t *testing.T, g *model.CommGraph, base synth.Options, mutations map[string]func(*synth.Options)) {
	t.Helper()
	seen := map[string]string{Key(g, base): "the unmutated options"}
	for name, mutate := range mutations {
		opt := base
		mutate(&opt)
		k := Key(g, opt)
		if other, dup := seen[k]; dup {
			t.Errorf("mutating %s gives the key of %s", name, other)
		}
		seen[k] = name
	}
}

// TestKeyCoversEveryLeaf is the totality check of the cache key. Starting
// from inputs in which every pointer is set and every slice holds at least one
// element, it flips each leaf reachable from both parameter types — and each
// pointer's presence and each slice's length — one at a time, and requires
// every flip to move the key to a value no other flip produces. Flipping an
// executionKnobs field must leave the key alone. The test reads no source
// code: a new field is flipped as soon as it exists.
func TestKeyCoversEveryLeaf(t *testing.T) {
	g := testGraph(t)
	opt := synth.DefaultOptions()
	populate(reflect.ValueOf(g).Elem(), "")
	populate(reflect.ValueOf(&opt).Elem(), "")

	ref := Key(g, opt)
	seen := map[string]string{ref: "the unflipped inputs"}
	var knobs int
	check := func(name string, v, alt reflect.Value, knob bool) {
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		v.Set(alt)
		k := Key(g, opt)
		v.Set(old)
		switch {
		case knob:
			knobs++
			if k != ref {
				t.Errorf("flipping execution knob %s moved the key", name)
			}
		case seen[k] != "":
			t.Errorf("flipping %s gives the key of %s", name, seen[k])
		default:
			seen[k] = name
		}
	}
	before := len(seen)
	walkFlips(t, reflect.ValueOf(g).Elem(), "", "CommGraph", check)
	graphFlips := len(seen) - before
	before = len(seen)
	walkFlips(t, reflect.ValueOf(&opt).Elem(), "", "Options", check)
	t.Logf("%d flips on model.CommGraph and %d on synth.Options moved the key; %d execution-knob flips did not",
		graphFlips, len(seen)-before, knobs)
	if knobs != len(executionKnobs) {
		t.Errorf("flipped %d execution knobs, want all %d", knobs, len(executionKnobs))
	}
	if k := Key(g, opt); k != ref {
		t.Fatal("the inputs were not restored after the flips")
	}
}

// TestOptionsHaveNoUnexportedFields holds synth.Options to the rule Key's
// walker rests on when it skips unexported fields: every field of every
// struct reachable from the options is exported, so the options carry no
// state that Key cannot see. It names the path of each unexported field it
// finds. Execution knobs are skipped as planFor skips them, so a Scheduler's
// internals are not options.
func TestOptionsHaveNoUnexportedFields(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem(), path)
		case reflect.Struct:
			if seen[typ] {
				return
			}
			seen[typ] = true
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				fp := joinPath(path, f.Name)
				if !f.IsExported() {
					t.Errorf("synth.Options.%s is unexported: Key does not hash it", fp)
					continue
				}
				if _, knob := executionKnobs[fp]; !knob {
					walk(f.Type, fp)
				}
			}
		}
	}
	walk(reflect.TypeFor[synth.Options](), "")
}

// populate gives every nil pointer a value and every empty slice one
// element, so that walkFlips reaches every field below them.
func populate(v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			fp := joinPath(path, f.Name)
			if _, knob := executionKnobs[fp]; f.IsExported() && !knob {
				populate(v.Field(i), fp)
			}
		}
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		populate(v.Elem(), path)
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			populate(v.Index(i), path)
		}
	}
}

// walkFlips calls check once per flip below v: path is the dotted field path
// executionKnobs uses, name the same path with element indices for messages.
// check sets the value to alt, recomputes the key and restores the value.
func walkFlips(t *testing.T, v reflect.Value, path, name string, check func(name string, v, alt reflect.Value, knob bool)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			fp, fn := joinPath(path, f.Name), name+"."+f.Name
			if _, knob := executionKnobs[fp]; knob {
				check(fn, v.Field(i), flip(t, fn, v.Field(i)), true)
				continue
			}
			walkFlips(t, v.Field(i), fp, fn, check)
		}
	case reflect.Pointer:
		check(name+" presence", v, reflect.Zero(v.Type()), false)
		walkFlips(t, v.Elem(), path, name, check)
	case reflect.Slice:
		longer := reflect.Append(v.Slice3(0, v.Len(), v.Len()), reflect.Zero(v.Type().Elem()))
		check(name+" length", v, longer, false)
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walkFlips(t, v.Index(i), path, fmt.Sprintf("%s[%d]", name, i), check)
		}
	default:
		check(name, v, flip(t, name, v), false)
	}
}

// flip returns a value of v's type that differs from v: a leaf moves by one
// step, and a nil pointer or func becomes set while a set one becomes nil.
func flip(t *testing.T, name string, v reflect.Value) reflect.Value {
	alt := reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Bool:
		alt.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		alt.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		alt.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		alt.SetFloat(v.Float() + 1)
	case reflect.String:
		alt.SetString(v.String() + "x")
	case reflect.Pointer:
		if v.IsNil() {
			alt = reflect.New(v.Type().Elem())
		}
	case reflect.Func:
		if v.IsNil() {
			alt = reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { panic("Key called a func field") })
		}
	default:
		t.Fatalf("%s: no flip for kind %s", name, v.Kind())
	}
	return alt
}

// TestExecutionKnobsAreFields requires every executionKnobs entry to name a
// real exported field path below Key's parameters and to carry a written
// justification. A renamed or deleted field must take its entry with it.
func TestExecutionKnobsAreFields(t *testing.T) {
	paths := map[string]bool{}
	var walk func(rt reflect.Type, path string)
	walk = func(rt reflect.Type, path string) {
		for rt.Kind() == reflect.Pointer || rt.Kind() == reflect.Slice || rt.Kind() == reflect.Array {
			rt = rt.Elem()
		}
		if rt.Kind() != reflect.Struct {
			return
		}
		for i := 0; i < rt.NumField(); i++ {
			if f := rt.Field(i); f.IsExported() {
				fp := joinPath(path, f.Name)
				paths[fp] = true
				walk(f.Type, fp)
			}
		}
	}
	walk(reflect.TypeFor[model.CommGraph](), "")
	walk(reflect.TypeFor[synth.Options](), "")
	for path, why := range executionKnobs {
		if !paths[path] {
			t.Errorf("executionKnobs entry %q names no exported field of CommGraph or Options", path)
		}
		if strings.TrimSpace(why) == "" {
			t.Errorf("executionKnobs entry %q has no justification", path)
		}
	}
}

// TestKeyRejectsUnhashableFields: a field with no canonical encoding fails
// loudly, naming its path, while unexported fields are never looked at.
func TestKeyRejectsUnhashableFields(t *testing.T) {
	cases := []struct {
		typ  reflect.Type
		path string
	}{
		{reflect.TypeFor[struct{ Table map[string]int }](), "Table"},
		{reflect.TypeFor[struct{ Inner struct{ Hook func() } }](), "Inner.Hook"},
		{reflect.TypeFor[struct{ Items []struct{ Done chan int } }](), "Items.Done"},
		{reflect.TypeFor[struct {
			A   int
			Any *any
		}](), "Any"},
	}
	for _, c := range cases {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "field "+c.path+" ") {
					t.Errorf("planning %s: panic %q does not name field %s", c.typ, msg, c.path)
				}
			}()
			planFor(c.typ, "")
		}()
	}

	type hidden struct {
		A    int
		hook func()
		tab  map[string]int
	}
	e := encoder{h: sha256.New()}
	e.value(planFor(reflect.TypeFor[hidden](), ""), reflect.ValueOf(hidden{A: 1}))
	if e.n != 8 {
		t.Errorf("encoding a struct with one exported int wrote %d bytes, want 8", e.n)
	}
}
