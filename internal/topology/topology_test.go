package topology

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sunfloor3d/internal/geom"
	"sunfloor3d/internal/model"
	"sunfloor3d/internal/noclib"
)

// testDesign builds a 4-core, 2-layer design with cross-layer traffic.
func testDesign(t *testing.T) *model.CommGraph {
	t.Helper()
	cores := []model.Core{
		{Name: "cpu", Width: 1, Height: 1, X: 0, Y: 0, Layer: 0},
		{Name: "mem0", Width: 1, Height: 1, X: 3, Y: 0, Layer: 0, IsMemory: true},
		{Name: "dsp", Width: 1, Height: 1, X: 0, Y: 0, Layer: 1},
		{Name: "mem1", Width: 1, Height: 1, X: 3, Y: 0, Layer: 1, IsMemory: true},
	}
	flows := []model.Flow{
		{Src: 0, Dst: 1, BandwidthMBps: 1000, LatencyCycles: 4, Type: model.Request},
		{Src: 2, Dst: 3, BandwidthMBps: 800, LatencyCycles: 4, Type: model.Request},
		{Src: 0, Dst: 3, BandwidthMBps: 400, LatencyCycles: 6, Type: model.Request},
		{Src: 3, Dst: 0, BandwidthMBps: 200, Type: model.Response},
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatalf("NewCommGraph: %v", err)
	}
	return g
}

// twoSwitchTopology attaches layer-0 cores to sw0 and layer-1 cores to sw1 and
// routes all flows.
func twoSwitchTopology(t *testing.T) *Topology {
	t.Helper()
	g := testDesign(t)
	top := New(g, noclib.DefaultLibrary(), 400)
	s0 := top.AddSwitch(0)
	s1 := top.AddSwitch(1)
	top.AttachCore(0, s0)
	top.AttachCore(1, s0)
	top.AttachCore(2, s1)
	top.AttachCore(3, s1)
	top.SetRoute(0, []int{s0})
	top.SetRoute(1, []int{s1})
	top.SetRoute(2, []int{s0, s1})
	top.SetRoute(3, []int{s1, s0})
	top.EstimateSwitchPositions()
	return top
}

func TestValidateGood(t *testing.T) {
	top := twoSwitchTopology(t)
	if err := top.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	base := func() *Topology { return twoSwitchTopology(t) }

	top := base()
	top.CoreAttach[0] = -1
	if err := top.Validate(); err == nil {
		t.Error("unattached core not detected")
	}

	top = base()
	top.Routes[0].Switches = nil
	if err := top.Validate(); err == nil {
		t.Error("missing route not detected")
	}

	top = base()
	top.Routes[0].Switches = []int{5}
	if err := top.Validate(); err == nil {
		t.Error("invalid switch in route not detected")
	}

	top = base()
	top.Routes[2].Switches = []int{1, 0} // starts at wrong switch
	if err := top.Validate(); err == nil {
		t.Error("route start mismatch not detected")
	}

	top = base()
	top.Routes[2].Switches = []int{0, 0, 1}
	if err := top.Validate(); err == nil {
		t.Error("repeated switch not detected")
	}
}

func TestSwitchLinksAggregation(t *testing.T) {
	top := twoSwitchTopology(t)
	links := top.SwitchLinks()
	if len(links) != 2 {
		t.Fatalf("links = %+v", links)
	}
	// 0->1 carries flow 2 (400), 1->0 carries flow 3 (200).
	if links[0].From != 0 || links[0].To != 1 || links[0].BandwidthMBps != 400 {
		t.Errorf("link 0 = %+v", links[0])
	}
	if links[1].From != 1 || links[1].To != 0 || links[1].BandwidthMBps != 200 {
		t.Errorf("link 1 = %+v", links[1])
	}
}

func TestCoreLinksAggregation(t *testing.T) {
	top := twoSwitchTopology(t)
	links := top.CoreLinks()
	// core0: out 1400 (flows 0 and 2), in 200 (flow 3) -> 2 entries
	var out0, in0 float64
	for _, l := range links {
		if l.Core == 0 {
			if l.ToCore {
				in0 += l.BandwidthMBps
			} else {
				out0 += l.BandwidthMBps
			}
		}
	}
	if out0 != 1400 || in0 != 200 {
		t.Errorf("core0 out=%v in=%v, want 1400/200", out0, in0)
	}
}

func TestSwitchPorts(t *testing.T) {
	top := twoSwitchTopology(t)
	in, out := top.SwitchPorts()
	// sw0: 2 cores (2 in, 2 out) + incoming link from sw1 + outgoing to sw1.
	if in[0] != 3 || out[0] != 3 {
		t.Errorf("sw0 ports = %d/%d, want 3/3", in[0], out[0])
	}
	if in[1] != 3 || out[1] != 3 {
		t.Errorf("sw1 ports = %d/%d, want 3/3", in[1], out[1])
	}
	// EvaluateWithPorts hands out the same counts with Evaluate's metrics.
	m, evIn, evOut := top.EvaluateWithPorts()
	if !slices.Equal(evIn, in) || !slices.Equal(evOut, out) {
		t.Errorf("EvaluateWithPorts ports = %v/%v, SwitchPorts %v/%v", evIn, evOut, in, out)
	}
	if !reflect.DeepEqual(m, top.Evaluate()) {
		t.Errorf("EvaluateWithPorts metrics %+v, Evaluate %+v", m, top.Evaluate())
	}
}

func TestInterLayerLinksAndTSVs(t *testing.T) {
	top := twoSwitchTopology(t)
	ill := top.InterLayerLinkCount()
	if len(ill) != 1 {
		t.Fatalf("ill = %v", ill)
	}
	// Two switch-to-switch links cross the boundary (0->1 and 1->0); all cores
	// attach to a switch in their own layer.
	if ill[0] != 2 {
		t.Errorf("ill[0] = %d, want 2", ill[0])
	}
	if top.MaxInterLayerLinks() != 2 {
		t.Errorf("MaxInterLayerLinks = %d", top.MaxInterLayerLinks())
	}
	if top.TSVMacroCount() != 2 {
		t.Errorf("TSVMacroCount = %d, want 2", top.TSVMacroCount())
	}
}

func TestCrossLayerCoreAttachment(t *testing.T) {
	g := testDesign(t)
	top := New(g, noclib.DefaultLibrary(), 400)
	s0 := top.AddSwitch(0)
	for c := 0; c < 4; c++ {
		top.AttachCore(c, s0)
	}
	for f := 0; f < 4; f++ {
		top.SetRoute(f, []int{s0})
	}
	top.EstimateSwitchPositions()
	if err := top.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	ill := top.InterLayerLinkCount()
	// Cores 2 and 3 are on layer 1 and attach to a switch on layer 0.
	if len(ill) != 1 || ill[0] != 2 {
		t.Errorf("ill = %v, want [2]", ill)
	}
	if top.TSVMacroCount() != 2 {
		t.Errorf("TSVMacroCount = %d, want 2", top.TSVMacroCount())
	}
}

func TestEstimateSwitchPositions(t *testing.T) {
	top := twoSwitchTopology(t)
	// Switch 0 serves cores at x-centres 0.5 and 3.5 on layer 0; its position
	// must lie between them.
	p := top.Switches[0].Pos
	if p.X <= 0.5 || p.X >= 3.5 {
		t.Errorf("sw0 position %v not between attached cores", p)
	}
	// Indirect switch with no cores gets the centroid of its neighbours.
	g := testDesign(t)
	top2 := New(g, noclib.DefaultLibrary(), 400)
	s0 := top2.AddSwitch(0)
	s1 := top2.AddSwitch(1)
	mid := top2.AddIndirectSwitch(0)
	top2.AttachCore(0, s0)
	top2.AttachCore(1, s0)
	top2.AttachCore(2, s1)
	top2.AttachCore(3, s1)
	top2.SetRoute(0, []int{s0})
	top2.SetRoute(1, []int{s1})
	top2.SetRoute(2, []int{s0, mid, s1})
	top2.SetRoute(3, []int{s1, mid, s0})
	top2.EstimateSwitchPositions()
	if !top2.Switches[mid].Indirect {
		t.Error("indirect flag lost")
	}
	mp := top2.Switches[mid].Pos
	if mp.X == 0 && mp.Y == 0 {
		// The neighbours have non-zero positions, so the indirect switch
		// should have moved.
		t.Errorf("indirect switch not positioned: %v", mp)
	}
}

func TestEvaluatePowerBreakdown(t *testing.T) {
	top := twoSwitchTopology(t)
	m := top.Evaluate()
	if m.Power.SwitchMW <= 0 || m.Power.CoreLinkMW <= 0 || m.Power.NIMW <= 0 {
		t.Errorf("power components must be positive: %+v", m.Power)
	}
	if m.Power.TotalMW() <= m.Power.SwitchMW {
		t.Error("total power must exceed switch power alone")
	}
	if !geom.AlmostEqual(m.Power.LinkMW(), m.Power.SwitchLinkMW+m.Power.CoreLinkMW, 1e-9) {
		t.Error("LinkMW inconsistent")
	}
	if m.NumSwitches != 2 {
		t.Errorf("NumSwitches = %d", m.NumSwitches)
	}
	if m.NoCAreaMM2 <= 0 {
		t.Error("NoC area must be positive")
	}
	if len(m.WireLengthsMM) == 0 {
		t.Error("wire lengths missing")
	}
	if m.TotalWireLengthMM <= 0 {
		t.Error("total wire length must be positive")
	}
}

func TestLatencyAccounting(t *testing.T) {
	top := twoSwitchTopology(t)
	// Flow 0 traverses one switch; flow 2 traverses two.
	if l := top.FlowLatencyCycles(0); l < 1 || l > 2 {
		t.Errorf("flow 0 latency = %v", l)
	}
	// The two-switch flow pays at least one more switch traversal than the
	// single-switch flow would with the same link pipelining, so it can never
	// be faster.
	l0 := top.FlowLatencyCycles(0)
	l2 := top.FlowLatencyCycles(2)
	if l2 < 2 {
		t.Errorf("two-switch flow latency = %v, want >= 2", l2)
	}
	if l2 < l0-1 {
		t.Errorf("two-switch flow latency (%v) implausibly below one-switch (%v)", l2, l0)
	}
	m := top.Evaluate()
	if m.AvgLatencyCycles <= 0 || m.MaxLatencyCycles < m.AvgLatencyCycles {
		t.Errorf("latency stats inconsistent: %+v", m)
	}
	if m.LatencyViolations != 0 {
		t.Errorf("unexpected latency violations: %d", m.LatencyViolations)
	}
	// An unrouted flow has infinite latency.
	top.Routes[1].Switches = nil
	if !math.IsInf(top.FlowLatencyCycles(1), 1) {
		t.Error("unrouted flow should have +Inf latency")
	}
}

func TestLatencyViolationDetection(t *testing.T) {
	g := testDesign(t)
	top := New(g, noclib.DefaultLibrary(), 400)
	// Chain of 6 switches so flow 0 (constraint 4 cycles) is violated.
	var chain []int
	for i := 0; i < 6; i++ {
		chain = append(chain, top.AddSwitch(0))
	}
	top.AttachCore(0, chain[0])
	top.AttachCore(1, chain[5])
	top.AttachCore(2, chain[0])
	top.AttachCore(3, chain[5])
	top.SetRoute(0, chain)
	top.SetRoute(1, chain)
	top.SetRoute(2, chain)
	top.SetRoute(3, []int{chain[5], chain[4], chain[3], chain[2], chain[1], chain[0]})
	top.EstimateSwitchPositions()
	m := top.Evaluate()
	if m.LatencyViolations == 0 {
		t.Error("expected latency violations on 6-hop route with 4-cycle constraint")
	}
}

func TestMoreSwitchesShorterCoreLinks(t *testing.T) {
	// With one switch per core, core-to-switch links are essentially zero
	// length, so their power must not exceed the shared-switch case. This is
	// one of the trends discussed in Section IV of the paper.
	g := testDesign(t)
	lib := noclib.DefaultLibrary()

	shared := New(g, lib, 400)
	s := shared.AddSwitch(0)
	for c := 0; c < 4; c++ {
		shared.AttachCore(c, s)
	}
	for f := 0; f < 4; f++ {
		shared.SetRoute(f, []int{s})
	}
	shared.EstimateSwitchPositions()

	perCore := New(g, lib, 400)
	for c := 0; c < 4; c++ {
		sw := perCore.AddSwitch(g.Cores[c].Layer)
		perCore.AttachCore(c, sw)
	}
	for f, fl := range g.Flows {
		perCore.SetRoute(f, []int{perCore.CoreAttach[fl.Src], perCore.CoreAttach[fl.Dst]})
	}
	perCore.EstimateSwitchPositions()

	ms := shared.Evaluate()
	mp := perCore.Evaluate()
	if mp.Power.CoreLinkMW > ms.Power.CoreLinkMW+1e-9 {
		t.Errorf("per-core switches should not increase core-link power: %v vs %v",
			mp.Power.CoreLinkMW, ms.Power.CoreLinkMW)
	}
	// And the per-core design uses more switches, so its switch count is higher.
	if mp.NumSwitches <= ms.NumSwitches {
		t.Error("per-core design should have more switches")
	}
}

func TestCloneIndependence(t *testing.T) {
	top := twoSwitchTopology(t)
	c := top.Clone()
	c.Switches[0].Layer = 7
	c.CoreAttach[0] = 1
	c.Routes[0].Switches[0] = 1
	if top.Switches[0].Layer == 7 || top.CoreAttach[0] == 1 || top.Routes[0].Switches[0] == 1 {
		t.Error("Clone shares state with original")
	}
}

func TestWireLengthHistogram(t *testing.T) {
	top := twoSwitchTopology(t)
	h := top.WireLengthHistogram(0.5)
	if len(h) == 0 {
		t.Fatal("histogram empty")
	}
	total := 0
	for _, c := range h {
		total += c
	}
	m := top.Evaluate()
	if total != len(m.WireLengthsMM) {
		t.Errorf("histogram total %d != %d links", total, len(m.WireLengthsMM))
	}
	// Degenerate bin widths: every one must yield an empty histogram, never
	// a panic (NaN slips past a plain <= 0 check and used to make the bin
	// count conversion undefined) and never an unbounded allocation.
	for _, tc := range []struct {
		name  string
		binMM float64
	}{
		{"zero", 0},
		{"negative", -0.5},
		{"negative zero", math.Copysign(0, -1)},
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
	} {
		if got := top.WireLengthHistogram(tc.binMM); got != nil {
			t.Errorf("WireLengthHistogram(%s) = %v, want nil", tc.name, got)
		}
	}
	sorted := top.SortedWireLengths()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] > sorted[i] {
			t.Fatal("SortedWireLengths not sorted")
		}
	}
}

func TestDescribeAndDOT(t *testing.T) {
	top := twoSwitchTopology(t)
	desc := top.Describe()
	for _, want := range []string{"sw0", "sw1", "cpu", "mem1", "bw="} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe missing %q:\n%s", want, desc)
		}
	}
	var sb strings.Builder
	if err := top.WriteDOT(&sb); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	dot := sb.String()
	for _, want := range []string{"digraph", "cluster_layer0", "cluster_layer1", "core0 -> sw0", "sw0 -> sw1"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}
