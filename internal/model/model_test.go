package model

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

func smallCores() []Core {
	return []Core{
		{Name: "cpu", Width: 1, Height: 1, X: 0, Y: 0, Layer: 0},
		{Name: "mem0", Width: 1, Height: 1, X: 2, Y: 0, Layer: 0, IsMemory: true},
		{Name: "dsp", Width: 1, Height: 2, X: 0, Y: 2, Layer: 1},
		{Name: "mem1", Width: 2, Height: 1, X: 2, Y: 2, Layer: 1, IsMemory: true},
	}
}

func smallFlows() []Flow {
	return []Flow{
		{Src: 0, Dst: 1, BandwidthMBps: 100, LatencyCycles: 4, Type: Request},
		{Src: 1, Dst: 0, BandwidthMBps: 50, LatencyCycles: 0, Type: Response},
		{Src: 0, Dst: 3, BandwidthMBps: 200, LatencyCycles: 6, Type: Request},
		{Src: 2, Dst: 3, BandwidthMBps: 400, LatencyCycles: 2, Type: Request},
	}
}

func mustGraph(t *testing.T) *CommGraph {
	t.Helper()
	g, err := NewCommGraph(smallCores(), smallFlows())
	if err != nil {
		t.Fatalf("NewCommGraph: %v", err)
	}
	return g
}

func TestNewCommGraphValid(t *testing.T) {
	g := mustGraph(t)
	if g.NumCores() != 4 || g.NumFlows() != 4 {
		t.Fatalf("unexpected sizes: %d cores, %d flows", g.NumCores(), g.NumFlows())
	}
	if g.NumLayers() != 2 {
		t.Errorf("NumLayers = %d, want 2", g.NumLayers())
	}
	if g.CoreIndex("dsp") != 2 {
		t.Errorf("CoreIndex(dsp) = %d, want 2", g.CoreIndex("dsp"))
	}
	if g.CoreIndex("nope") != -1 {
		t.Errorf("CoreIndex(nope) = %d, want -1", g.CoreIndex("nope"))
	}
}

func TestNewCommGraphErrors(t *testing.T) {
	cores := smallCores()
	flows := smallFlows()

	tests := []struct {
		name   string
		mutate func(cs []Core, fs []Flow) ([]Core, []Flow)
	}{
		{"duplicate name", func(cs []Core, fs []Flow) ([]Core, []Flow) {
			cs[1].Name = "cpu"
			return cs, fs
		}},
		{"empty name", func(cs []Core, fs []Flow) ([]Core, []Flow) {
			cs[0].Name = ""
			return cs, fs
		}},
		{"zero size", func(cs []Core, fs []Flow) ([]Core, []Flow) {
			cs[0].Width = 0
			return cs, fs
		}},
		{"negative layer", func(cs []Core, fs []Flow) ([]Core, []Flow) {
			cs[0].Layer = -1
			return cs, fs
		}},
		{"flow out of range", func(cs []Core, fs []Flow) ([]Core, []Flow) {
			fs[0].Dst = 99
			return cs, fs
		}},
		{"self loop", func(cs []Core, fs []Flow) ([]Core, []Flow) {
			fs[0].Dst = fs[0].Src
			return cs, fs
		}},
		{"zero bandwidth", func(cs []Core, fs []Flow) ([]Core, []Flow) {
			fs[0].BandwidthMBps = 0
			return cs, fs
		}},
		{"negative latency", func(cs []Core, fs []Flow) ([]Core, []Flow) {
			fs[0].LatencyCycles = -1
			return cs, fs
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cs := append([]Core(nil), cores...)
			fs := append([]Flow(nil), flows...)
			cs, fs = tc.mutate(cs, fs)
			if _, err := NewCommGraph(cs, fs); err == nil {
				t.Errorf("expected error for %s", tc.name)
			}
		})
	}
}

func TestGraphQueries(t *testing.T) {
	g := mustGraph(t)
	if bw := g.MaxBandwidth(); bw != 400 {
		t.Errorf("MaxBandwidth = %v, want 400", bw)
	}
	if lat := g.MinLatency(); lat != 2 {
		t.Errorf("MinLatency = %v, want 2", lat)
	}
	if tb := g.TotalBandwidth(); tb != 750 {
		t.Errorf("TotalBandwidth = %v, want 750", tb)
	}
	if fl := g.InterLayerFlows(); len(fl) != 1 {
		t.Errorf("InterLayerFlows = %d, want 1", len(fl))
	}
	if bw := g.FlowsBetween(0, 1); bw != 100 {
		t.Errorf("FlowsBetween(0,1) = %v, want 100", bw)
	}
	if bw := g.FlowsBetween(3, 0); bw != 0 {
		t.Errorf("FlowsBetween(3,0) = %v, want 0", bw)
	}
	if l0 := g.CoresInLayer(0); len(l0) != 2 || l0[0] != 0 || l0[1] != 1 {
		t.Errorf("CoresInLayer(0) = %v", l0)
	}
	hist := g.LayerHistogram()
	if len(hist) != 2 || hist[0] != 2 || hist[1] != 2 {
		t.Errorf("LayerHistogram = %v", hist)
	}
}

func TestEmptyGraphQueries(t *testing.T) {
	g, err := NewCommGraph(nil, nil)
	if err != nil {
		t.Fatalf("empty graph should be valid: %v", err)
	}
	if g.MaxBandwidth() != 0 || g.MinLatency() != 0 || g.TotalBandwidth() != 0 {
		t.Error("empty graph aggregates should be zero")
	}
	if g.NumLayers() != 1 {
		t.Errorf("NumLayers of empty graph = %d, want 1", g.NumLayers())
	}
}

func TestCloneAndFlatten(t *testing.T) {
	g := mustGraph(t)
	c := g.Clone()
	c.Cores[0].Name = "changed"
	if g.Cores[0].Name != "cpu" {
		t.Error("Clone is not deep")
	}
	flat := g.Flatten2D()
	if flat.NumLayers() != 1 {
		t.Errorf("Flatten2D layers = %d, want 1", flat.NumLayers())
	}
	if g.NumLayers() != 2 {
		t.Error("Flatten2D mutated the original")
	}
}

func TestFlowsByBandwidth(t *testing.T) {
	g := mustGraph(t)
	order := g.FlowsByBandwidth()
	if len(order) != 4 {
		t.Fatalf("order length %d", len(order))
	}
	for i := 1; i < len(order); i++ {
		if g.Flows[order[i-1]].BandwidthMBps < g.Flows[order[i]].BandwidthMBps {
			t.Errorf("order not descending at %d", i)
		}
	}
	if order[0] != 3 {
		t.Errorf("heaviest flow should be index 3, got %d", order[0])
	}
}

// TestFlowsByBandwidthMatchesSliceStable checks FlowsByBandwidth against the
// reflection-based sort.SliceStable it replaced, under the same "greater
// bandwidth first" order, on random flow sets that draw from a few
// bandwidths, so most flows tie with many others and the stable order
// decides their place.
func TestFlowsByBandwidthMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		flows := make([]Flow, rng.Intn(150))
		levels := 1 + rng.Intn(5)
		for i := range flows {
			flows[i] = Flow{Src: 0, Dst: 1, BandwidthMBps: 25 * float64(1+rng.Intn(levels))}
		}
		g := &CommGraph{Flows: flows}
		want := make([]int, len(flows))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool {
			return flows[want[a]].BandwidthMBps > flows[want[b]].BandwidthMBps
		})
		if got := g.FlowsByBandwidth(); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d flows, %d bandwidths): %v, sort.SliceStable %v", trial, len(flows), levels, got, want)
		}
	}
}

func TestCoreGeometry(t *testing.T) {
	c := Core{Name: "x", Width: 2, Height: 4, X: 1, Y: 1, Layer: 2}
	r := c.Rect()
	if r.W != 2 || r.H != 4 || r.X != 1 || r.Y != 1 {
		t.Errorf("Rect = %v", r)
	}
	if ctr := c.Center(); ctr.X != 2 || ctr.Y != 3 {
		t.Errorf("Center = %v", ctr)
	}
	if c3 := c.Center3D(); c3.Layer != 2 {
		t.Errorf("Center3D layer = %d", c3.Layer)
	}
}

func TestMessageTypeString(t *testing.T) {
	if Request.String() != "request" || Response.String() != "response" {
		t.Error("MessageType.String mismatch")
	}
	if MessageType(9).String() == "" {
		t.Error("unknown MessageType should still produce a string")
	}
}

func TestValidateAfterMutation(t *testing.T) {
	g := mustGraph(t)
	g.Cores[1].Name = "cpu" // duplicate
	if err := g.Validate(); err == nil {
		t.Error("Validate should detect duplicate after mutation")
	}
	g.Cores[1].Name = "renamed"
	if err := g.Validate(); err != nil {
		t.Errorf("Validate after fix: %v", err)
	}
	if g.CoreIndex("renamed") != 1 {
		t.Error("Validate should rebuild the name index")
	}
}

func TestSummary(t *testing.T) {
	g := mustGraph(t)
	s := g.Summary()
	if !strings.Contains(s, "4 cores") || !strings.Contains(s, "2 layer") {
		t.Errorf("Summary = %q", s)
	}
	names := g.SortedCoreNames()
	if len(names) != 4 || names[0] != "cpu" {
		t.Errorf("SortedCoreNames = %v", names)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	g := mustGraph(t)

	var coreBuf, commBuf strings.Builder
	if err := WriteCoreSpec(&coreBuf, g.Cores); err != nil {
		t.Fatalf("WriteCoreSpec: %v", err)
	}
	if err := WriteCommSpec(&commBuf, g); err != nil {
		t.Fatalf("WriteCommSpec: %v", err)
	}

	g2, err := LoadDesign(strings.NewReader(coreBuf.String()), strings.NewReader(commBuf.String()))
	if err != nil {
		t.Fatalf("LoadDesign: %v", err)
	}
	if g2.NumCores() != g.NumCores() || g2.NumFlows() != g.NumFlows() {
		t.Fatalf("round trip lost entities: %d/%d vs %d/%d",
			g2.NumCores(), g2.NumFlows(), g.NumCores(), g.NumFlows())
	}
	for i := range g.Cores {
		if g.Cores[i] != g2.Cores[i] {
			t.Errorf("core %d mismatch: %+v vs %+v", i, g.Cores[i], g2.Cores[i])
		}
	}
	for i := range g.Flows {
		if g.Flows[i] != g2.Flows[i] {
			t.Errorf("flow %d mismatch: %+v vs %+v", i, g.Flows[i], g2.Flows[i])
		}
	}
}

func TestParseCoreSpecErrors(t *testing.T) {
	bad := []string{
		"core only 3 fields",
		"notcore a 1 1 0 0 0",
		"core a x 1 0 0 0",
		"core a 1 1 0 0 zz",
		"core a 1 1 0 0 0 weird",
	}
	for _, line := range bad {
		if _, err := ParseCoreSpec(strings.NewReader(line)); err == nil {
			t.Errorf("ParseCoreSpec(%q) should fail", line)
		}
	}
	// Comments and blank lines are fine.
	ok := "# header\n\ncore a 1 1 0 0 0 # trailing comment\n"
	cores, err := ParseCoreSpec(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("ParseCoreSpec(ok): %v", err)
	}
	if len(cores) != 1 || cores[0].Name != "a" {
		t.Errorf("cores = %+v", cores)
	}
}

func TestParseCommSpecErrors(t *testing.T) {
	cores := []Core{{Name: "a", Width: 1, Height: 1}, {Name: "b", Width: 1, Height: 1}}
	bad := []string{
		"flow a b 100 0",                // too few fields
		"flow a c 100 0 request",        // unknown core
		"flow a b xx 0 request",         // bad bandwidth
		"flow a b 100 yy request",       // bad latency
		"flow a b 100 0 neither",        // bad type
		"notflow a b 100 0 request",     // wrong keyword
		"flow a b 100 0 request extra7", // too many fields
	}
	for _, line := range bad {
		if _, err := ParseCommSpec(strings.NewReader(line), cores); err == nil {
			t.Errorf("ParseCommSpec(%q) should fail", line)
		}
	}
	flows, err := ParseCommSpec(strings.NewReader("flow a b 128 6 response\n"), cores)
	if err != nil {
		t.Fatalf("ParseCommSpec(ok): %v", err)
	}
	if len(flows) != 1 || flows[0].Type != Response || flows[0].BandwidthMBps != 128 {
		t.Errorf("flows = %+v", flows)
	}
}
