package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestAllBenchmarksWellFormed(t *testing.T) {
	specs := map[string]struct {
		cores  int
		layers int
	}{
		"D_26_media": {26, 3},
		"D_36_4":     {36, 2},
		"D_36_6":     {36, 2},
		"D_36_8":     {36, 2},
		"D_35_bot":   {35, 2},
		"D_65_pipe":  {65, 3},
		"D_38_tvopd": {38, 2},
	}
	all := All(1)
	if len(all) != len(specs) {
		t.Fatalf("All returned %d benchmarks, want %d", len(all), len(specs))
	}
	for _, b := range all {
		want, ok := specs[b.Name]
		if !ok {
			t.Errorf("unexpected benchmark %q", b.Name)
			continue
		}
		if b.Graph3D.NumCores() != want.cores {
			t.Errorf("%s: %d cores, want %d", b.Name, b.Graph3D.NumCores(), want.cores)
		}
		if b.Graph3D.NumLayers() != want.layers {
			t.Errorf("%s: %d layers, want %d", b.Name, b.Graph3D.NumLayers(), want.layers)
		}
		if b.Layers != want.layers {
			t.Errorf("%s: Layers field %d, want %d", b.Name, b.Layers, want.layers)
		}
		if b.Graph2D.NumLayers() != 1 {
			t.Errorf("%s: 2-D version has %d layers", b.Name, b.Graph2D.NumLayers())
		}
		if b.Graph2D.NumCores() != b.Graph3D.NumCores() {
			t.Errorf("%s: 2-D and 3-D core counts differ", b.Name)
		}
		if b.Graph2D.NumFlows() != b.Graph3D.NumFlows() {
			t.Errorf("%s: 2-D and 3-D flow counts differ", b.Name)
		}
		if b.Graph3D.NumFlows() == 0 {
			t.Errorf("%s: no flows", b.Name)
		}
		if err := b.Graph3D.Validate(); err != nil {
			t.Errorf("%s: 3-D graph invalid: %v", b.Name, err)
		}
		if err := b.Graph2D.Validate(); err != nil {
			t.Errorf("%s: 2-D graph invalid: %v", b.Name, err)
		}
	}
}

func TestLayersBalanced(t *testing.T) {
	for _, b := range All(2) {
		hist := b.Graph3D.LayerHistogram()
		n := b.Graph3D.NumCores()
		quota := (n + b.Layers - 1) / b.Layers
		for l, c := range hist {
			if c == 0 {
				t.Errorf("%s: layer %d is empty", b.Name, l)
			}
			if c > quota {
				t.Errorf("%s: layer %d holds %d cores, quota %d", b.Name, l, c, quota)
			}
		}
	}
}

func TestFloorplansAreLegal(t *testing.T) {
	for _, b := range All(3) {
		checkNoOverlap(t, b.Name+"/3D", b)
		checkNoOverlap2D(t, b.Name+"/2D", b)
	}
}

func checkNoOverlap(t *testing.T, name string, b Benchmark) {
	t.Helper()
	g := b.Graph3D
	for l := 0; l < g.NumLayers(); l++ {
		idx := g.CoresInLayer(l)
		for i := 0; i < len(idx); i++ {
			for j := i + 1; j < len(idx); j++ {
				ri := g.Cores[idx[i]].Rect()
				rj := g.Cores[idx[j]].Rect()
				if ri.Overlaps(rj) {
					t.Errorf("%s: cores %s and %s overlap on layer %d",
						name, g.Cores[idx[i]].Name, g.Cores[idx[j]].Name, l)
				}
			}
		}
	}
}

func checkNoOverlap2D(t *testing.T, name string, b Benchmark) {
	t.Helper()
	g := b.Graph2D
	for i := 0; i < g.NumCores(); i++ {
		for j := i + 1; j < g.NumCores(); j++ {
			if g.Cores[i].Rect().Overlaps(g.Cores[j].Rect()) {
				t.Errorf("%s: cores %s and %s overlap", name, g.Cores[i].Name, g.Cores[j].Name)
			}
		}
	}
}

func TestD36VariantsHaveSameTotalBandwidth(t *testing.T) {
	b4 := D36(4, 7)
	b6 := D36(6, 7)
	b8 := D36(8, 7)
	t4 := b4.Graph3D.TotalBandwidth()
	t6 := b6.Graph3D.TotalBandwidth()
	t8 := b8.Graph3D.TotalBandwidth()
	// The generators draw per-flow jitter, so allow 10% tolerance.
	for _, pair := range [][2]float64{{t4, t6}, {t6, t8}, {t4, t8}} {
		ratio := pair[0] / pair[1]
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("total bandwidths differ too much: %v vs %v", pair[0], pair[1])
		}
	}
	// Flow counts grow with the fan-out.
	if !(b4.Graph3D.NumFlows() < b6.Graph3D.NumFlows() && b6.Graph3D.NumFlows() < b8.Graph3D.NumFlows()) {
		t.Error("flow counts should grow with flows per processor")
	}
}

func TestD35BotStructure(t *testing.T) {
	b := D35Bot(5)
	g := b.Graph3D
	// All 16 processors must reach all 3 shared memories.
	sharedIdx := make([]int, 0, 3)
	for i, c := range g.Cores {
		if len(c.Name) >= 6 && c.Name[:6] == "shared" {
			sharedIdx = append(sharedIdx, i)
		}
	}
	if len(sharedIdx) != 3 {
		t.Fatalf("found %d shared memories", len(sharedIdx))
	}
	for p := 0; p < 16; p++ {
		for _, s := range sharedIdx {
			if g.FlowsBetween(p, s) <= 0 {
				t.Errorf("proc%d has no flow to %s", p, g.Cores[s].Name)
			}
		}
	}
}

func TestPipelineBenchmarksAreSparse(t *testing.T) {
	for _, b := range []Benchmark{D65Pipe(3), D38TVOPD(3)} {
		g := b.Graph3D
		// Pipelined designs have roughly one outgoing flow per core.
		if g.NumFlows() > 2*g.NumCores() {
			t.Errorf("%s: %d flows for %d cores, too dense for a pipeline",
				b.Name, g.NumFlows(), g.NumCores())
		}
	}
}

func TestDeterminismPerSeed(t *testing.T) {
	a := D26Media(11)
	b := D26Media(11)
	if a.Graph3D.TotalBandwidth() != b.Graph3D.TotalBandwidth() {
		t.Error("same seed produced different bandwidths")
	}
	for i := range a.Graph3D.Cores {
		if a.Graph3D.Cores[i] != b.Graph3D.Cores[i] {
			t.Fatalf("same seed produced different core %d", i)
		}
	}
	c := D26Media(12)
	if a.Graph3D.TotalBandwidth() == c.Graph3D.TotalBandwidth() {
		t.Log("different seeds produced identical bandwidth (unlikely but not fatal)")
	}
}

// TestByName checks that every name builds, alone, the same bytes as its
// entry of All, and that an unknown name lists every valid one.
func TestByName(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, want := range All(seed) {
			got, err := ByName(want.Name, seed)
			if err != nil {
				t.Fatalf("ByName(%q, %d): %v", want.Name, seed, err)
			}
			gb, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			wb, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb, wb) {
				t.Errorf("ByName(%q, %d) differs from its All entry", want.Name, seed)
			}
		}
	}
	_, err := ByName("nope", 1)
	if err == nil {
		t.Fatal("expected error for unknown name")
	}
	for _, b := range All(1) {
		if !strings.Contains(err.Error(), b.Name) {
			t.Errorf("error %q does not list %s", err, b.Name)
		}
	}
}

func TestStackingPutsHeavyPartnersOnDifferentLayers(t *testing.T) {
	// In the 3-D versions, the heaviest flows should frequently cross layers
	// (highly communicating cores stacked above each other), which is the
	// input assumption the paper states for its benchmarks.
	b := D36(4, 9)
	g := b.Graph3D
	inter := 0
	for _, f := range g.Flows {
		if g.Cores[f.Src].Layer != g.Cores[f.Dst].Layer {
			inter++
		}
	}
	if inter == 0 {
		t.Error("no inter-layer flows at all; layer assignment looks degenerate")
	}
}
