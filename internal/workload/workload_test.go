package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"sunfloor3d/internal/model"
)

// specBytes serialises a design through the canonical spec writers; byte
// equality of two designs' specBytes is the determinism contract.
func specBytes(t *testing.T, g *model.CommGraph) []byte {
	t.Helper()
	var core, comm bytes.Buffer
	if err := model.WriteCoreSpec(&core, g.Cores); err != nil {
		t.Fatal(err)
	}
	if err := model.WriteCommSpec(&comm, g); err != nil {
		t.Fatal(err)
	}
	return append(core.Bytes(), comm.Bytes()...)
}

func TestGenerateDeterministic(t *testing.T) {
	for _, sh := range Shapes() {
		sh := sh
		t.Run(sh.String(), func(t *testing.T) {
			t.Parallel()
			spec := Spec{Shape: sh, Cores: 20, Layers: 3, Seed: 42}
			a, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(specBytes(t, a.Graph3D), specBytes(t, b.Graph3D)) {
				t.Error("two generations of the same spec differ (3-D)")
			}
			if !bytes.Equal(specBytes(t, a.Graph2D), specBytes(t, b.Graph2D)) {
				t.Error("two generations of the same spec differ (2-D)")
			}
			if a.Name != spec.Name() {
				t.Errorf("Name = %q, want %q", a.Name, spec.Name())
			}
			// Different seeds must actually vary the design.
			c, err := Generate(Spec{Shape: sh, Cores: 20, Layers: 3, Seed: 43})
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(specBytes(t, a.Graph3D), specBytes(t, c.Graph3D)) {
				t.Error("seed 42 and 43 generated identical designs")
			}
		})
	}
}

func TestGenerateGuarantees(t *testing.T) {
	for _, sh := range Shapes() {
		sh := sh
		t.Run(sh.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 12; seed++ {
				for _, layers := range []int{1, 2, 3} {
					spec := Spec{Shape: sh, Cores: 4 + int(seed)*3%25, Layers: layers, Seed: seed}
					b, err := Generate(spec)
					if err != nil {
						t.Fatalf("seed %d layers %d: %v", seed, layers, err)
					}
					g := b.Graph3D
					if !IsConnected(g) {
						t.Fatalf("seed %d layers %d: disconnected communication graph", seed, layers)
					}
					if got := g.NumLayers(); got > layers {
						t.Fatalf("seed %d: NumLayers = %d, want <= %d", seed, got, layers)
					}
					floor := LatencyFloor(layers) * spec.withDefaults().LatencySlack
					for i, f := range g.Flows {
						if f.LatencyCycles != 0 && f.LatencyCycles < floor {
							t.Fatalf("seed %d flow %d: constraint %g below floor %g", seed, i, f.LatencyCycles, floor)
						}
						if f.BandwidthMBps <= 0 {
							t.Fatalf("seed %d flow %d: non-positive bandwidth", seed, i)
						}
					}
					for l, g2 := range b.Graph2D.LayerHistogram() {
						if l > 0 && g2 > 0 {
							t.Fatalf("2-D graph places cores on layer %d", l)
						}
					}
				}
			}
		})
	}
}

func TestShapeStructure(t *testing.T) {
	t.Run("hotspot hub dominates", func(t *testing.T) {
		b, err := Generate(Spec{Shape: Hotspot, Cores: 30, Layers: 2, Seed: 7, Hubs: 3})
		if err != nil {
			t.Fatal(err)
		}
		g := b.Graph3D
		incoming := make([]float64, g.NumCores())
		for _, f := range g.Flows {
			incoming[f.Dst] += f.BandwidthMBps
		}
		hub0 := g.CoreIndex("hub0")
		if hub0 != 0 {
			t.Fatalf("hub0 index = %d", hub0)
		}
		if !g.Cores[hub0].IsMemory {
			t.Error("hub0 is not a memory")
		}
		for i := range incoming {
			if i != hub0 && incoming[i] > incoming[hub0] {
				t.Errorf("core %s in-bandwidth %.0f exceeds hub0's %.0f",
					g.Cores[i].Name, incoming[i], incoming[hub0])
			}
		}
	})
	t.Run("pipeline chain", func(t *testing.T) {
		b, err := Generate(Spec{Shape: Pipeline, Cores: 24, Layers: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		g := b.Graph3D
		// Every consecutive stage pair must be linked by a request flow.
		nLogic := 0
		for _, c := range g.Cores {
			if strings.HasPrefix(c.Name, "stage") {
				nLogic++
			}
		}
		if nLogic < 2 {
			t.Fatalf("only %d pipeline stages", nLogic)
		}
		for i := 0; i+1 < nLogic; i++ {
			if g.FlowsBetween(i, i+1) <= 0 {
				t.Errorf("no chain flow from stage%d to stage%d", i, i+1)
			}
		}
	})
	t.Run("multiapp clusters", func(t *testing.T) {
		b, err := Generate(Spec{Shape: MultiApp, Cores: 32, Layers: 2, Seed: 5, Apps: 4})
		if err != nil {
			t.Fatal(err)
		}
		g := b.Graph3D
		apps := map[string]bool{}
		for _, c := range g.Cores {
			apps[strings.SplitN(c.Name, "_", 2)[0]] = true
		}
		if len(apps) != 4 {
			t.Errorf("core names span %d apps, want 4: %v", len(apps), apps)
		}
	})
	t.Run("layered fills every layer", func(t *testing.T) {
		b, err := Generate(Spec{Shape: Layered, Cores: 18, Layers: 3, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		hist := b.Graph3D.LayerHistogram()
		if len(hist) != 3 {
			t.Fatalf("layer histogram %v, want 3 layers", hist)
		}
		for l, n := range hist {
			if n == 0 {
				t.Errorf("layer %d is empty", l)
			}
		}
		if len(b.Graph3D.InterLayerFlows()) == 0 {
			t.Error("layered shape generated no inter-layer flows")
		}
	})
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Shape: Shape(99)},
		{Cores: 3},
		{Cores: 1000},
		{Layers: 9},
		{Cores: 4, Layers: 5},
		{MemoryFraction: 0.9},
		{MemoryFraction: -0.1},
		{Apps: 100, Cores: 8},
		{Hubs: 100, Cores: 8},
		{MeanBandwidthMBps: -5},
		{BandwidthSpread: 0.95},
		{LatencySlack: 0.5},
		{UnconstrainedFraction: 1.5},
		// Non-finite and overflowing values pass every range check above.
		{MeanBandwidthMBps: math.Inf(1)},
		{MeanBandwidthMBps: math.MaxFloat64},         // finite, but its largest draw is not
		{Shape: Pipeline, MeanBandwidthMBps: 1e308},  // the bound takes the largest scale of any shape
		{LatencySlack: math.Inf(1)},                  // int(floor*slack*...) is out of range
		{LatencySlack: 1e300},                        // likewise
		{Layers: 8, Cores: 16, LatencySlack: 3.58e7}, // largest constraint just above MaxLatencyCycles
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", s)
		}
		if _, err := Generate(s); err == nil {
			t.Errorf("Generate(%+v) should fail", s)
		}
	}
	if err := (Spec{}).Validate(); err != nil {
		t.Errorf("zero spec (all defaults) should validate: %v", err)
	}
	// The largest slack within the bound generates, and every constraint
	// stays within MaxLatencyCycles.
	top := Spec{Layers: 8, Cores: 16, LatencySlack: 3.579e7, UnconstrainedFraction: -1}
	b, err := Generate(top)
	if err != nil {
		t.Fatalf("Generate(%+v): %v", top, err)
	}
	for i, f := range b.Graph3D.Flows {
		if f.LatencyCycles < 1 || f.LatencyCycles > MaxLatencyCycles {
			t.Errorf("flow %d: latency constraint %g outside [1, %d]", i, f.LatencyCycles, MaxLatencyCycles)
		}
	}
}

func TestParseShape(t *testing.T) {
	for _, sh := range Shapes() {
		got, err := ParseShape(sh.String())
		if err != nil || got != sh {
			t.Errorf("ParseShape(%q) = %v, %v", sh.String(), got, err)
		}
	}
	if _, err := ParseShape("mesh"); err == nil {
		t.Error("ParseShape of an unknown name should fail")
	}
	if s := Shape(42).String(); !strings.Contains(s, "42") {
		t.Errorf("unknown shape String() = %q", s)
	}
}

func TestIsConnected(t *testing.T) {
	cores := []model.Core{
		{Name: "a", Width: 1, Height: 1},
		{Name: "b", Width: 1, Height: 1},
		{Name: "c", Width: 1, Height: 1},
	}
	joined, err := model.NewCommGraph(cores, []model.Flow{
		{Src: 0, Dst: 1, BandwidthMBps: 10},
		{Src: 2, Dst: 1, BandwidthMBps: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !IsConnected(joined) {
		t.Error("joined graph reported disconnected")
	}
	split, err := model.NewCommGraph(cores, []model.Flow{{Src: 0, Dst: 1, BandwidthMBps: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if IsConnected(split) {
		t.Error("graph with an isolated core reported connected")
	}
}
