package noclib

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultLibraryValid(t *testing.T) {
	if err := DefaultLibrary().Validate(); err != nil {
		t.Fatalf("DefaultLibrary invalid: %v", err)
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	mutations := []func(*Library){
		func(l *Library) { l.LinkWidthBits = 0 },
		func(l *Library) { l.SwitchBasePowerMW = 0 },
		func(l *Library) { l.SwitchPortPowerMW = -1 },
		func(l *Library) { l.SwitchTrafficPowerMWPerGBps = -1 },
		func(l *Library) { l.SwitchBaseAreaMM2 = 0 },
		func(l *Library) { l.SwitchPortAreaMM2 = 0 },
		func(l *Library) { l.NIPowerMW = 0 },
		func(l *Library) { l.NIAreaMM2 = 0 },
		func(l *Library) { l.ReferenceFreqMHz = 0 },
		func(l *Library) { l.WirePowerMWPerMMPerGBps = 0 },
		func(l *Library) { l.WireLeakagePowerMWPerMM = -0.1 },
		func(l *Library) { l.WireDelayPSPerMM = 0 },
		func(l *Library) { l.MaxUnrepeatedLinkMM = 0 },
		func(l *Library) { l.TSVDelayPS = 0 },
		func(l *Library) { l.TSVPowerMWPerGBps = -1 },
		func(l *Library) { l.TSVPitchUM = 0 },
		func(l *Library) { l.VerticalPitchMM = 0 },
		func(l *Library) { l.SwitchFreqK = 0 },
		func(l *Library) { l.SwitchFreqCapMHz = 0 },
	}
	for i, mut := range mutations {
		l := DefaultLibrary()
		mut(&l)
		if err := l.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

func TestSwitchPowerMonotoneInPorts(t *testing.T) {
	l := DefaultLibrary()
	prev := 0.0
	for p := 2; p <= 12; p++ {
		pw := l.SwitchPowerMW(p, p, 400, 1000)
		if pw <= prev {
			t.Fatalf("switch power not increasing with ports: %d ports -> %v (prev %v)", p, pw, prev)
		}
		prev = pw
	}
}

func TestSwitchPowerScalesWithFrequencyAndTraffic(t *testing.T) {
	l := DefaultLibrary()
	low := l.SwitchPowerMW(4, 4, 200, 0)
	high := l.SwitchPowerMW(4, 4, 800, 0)
	if high <= low {
		t.Error("static switch power must grow with frequency")
	}
	idle := l.SwitchPowerMW(4, 4, 400, 0)
	busy := l.SwitchPowerMW(4, 4, 400, 4000)
	if busy <= idle {
		t.Error("switch power must grow with traffic")
	}
	// Degenerate port counts are clamped rather than producing nonsense.
	if l.SwitchPowerMW(0, -1, 400, 0) <= 0 {
		t.Error("clamped switch power must stay positive")
	}
}

func TestSwitchAreaGrowsQuadratically(t *testing.T) {
	l := DefaultLibrary()
	a4 := l.SwitchAreaMM2(4, 4)
	a8 := l.SwitchAreaMM2(8, 8)
	if a8 <= a4 {
		t.Error("area must grow with ports")
	}
	// Crossbar term: (64-16)*portArea difference
	wantDiff := 48 * l.SwitchPortAreaMM2
	if diff := a8 - a4; diff < wantDiff*0.99 || diff > wantDiff*1.01 {
		t.Errorf("area growth %v, want about %v", diff, wantDiff)
	}
	if l.SwitchAreaMM2(0, 0) <= 0 {
		t.Error("clamped area must stay positive")
	}
}

func TestMaxSwitchSizeAndFreqAreConsistent(t *testing.T) {
	l := DefaultLibrary()
	for _, f := range []float64{200, 400, 800, 1000} {
		size := l.MaxSwitchSize(f)
		if size < 2 {
			t.Fatalf("MaxSwitchSize(%v) = %d < 2", f, size)
		}
		// A switch of exactly that size must support the frequency...
		if got := l.MaxSwitchFreqMHz(size); got < f*0.999 {
			t.Errorf("switch of size %d supports only %v MHz < %v", size, got, f)
		}
	}
	// Higher frequency -> smaller or equal max size.
	if l.MaxSwitchSize(400) < l.MaxSwitchSize(800) {
		t.Error("max switch size must not grow with frequency")
	}
	if l.MaxSwitchSize(0) != 2 {
		t.Errorf("MaxSwitchSize(0) = %d, want 2", l.MaxSwitchSize(0))
	}
	if l.MaxSwitchFreqMHz(1) != l.MaxSwitchFreqMHz(2) {
		t.Error("port count below 2 should clamp")
	}
}

func TestWirePowerAndDelay(t *testing.T) {
	l := DefaultLibrary()
	if l.WirePowerMW(0, 1000) != 0 {
		t.Error("zero-length wire must have zero power")
	}
	if l.WirePowerMW(-1, 1000) != 0 {
		t.Error("negative length must clamp to zero")
	}
	p1 := l.WirePowerMW(1, 1000)
	p2 := l.WirePowerMW(2, 1000)
	if !almost(p2, 2*p1, 1e-9) {
		t.Errorf("wire power must be linear in length: %v vs %v", p2, 2*p1)
	}
	if l.WireDelayPS(2) != 2*l.WireDelayPSPerMM {
		t.Error("wire delay must be linear in length")
	}
	if l.WireDelayPS(-5) != 0 {
		t.Error("negative length delay must clamp to zero")
	}
}

func TestVerticalLinkCheaperThanPlanar(t *testing.T) {
	l := DefaultLibrary()
	// Per the paper, a vertical hop is substantially faster and more power
	// efficient than a moderate (1 mm) planar link.
	if l.VerticalLinkDelayPS(1) >= l.WireDelayPS(1.0) {
		t.Error("TSV hop must be faster than 1 mm planar wire")
	}
	if l.VerticalLinkPowerMW(1, 1000) >= l.WirePowerMW(1.0, 1000) {
		t.Error("TSV hop must consume less power than 1 mm planar wire")
	}
	if l.VerticalLinkPowerMW(-2, 1000) != l.VerticalLinkPowerMW(2, 1000) {
		t.Error("vertical power must use absolute layer distance")
	}
	if l.VerticalLinkDelayPS(-3) != l.VerticalLinkDelayPS(3) {
		t.Error("vertical delay must use absolute layer distance")
	}
}

func TestTSVMacroArea(t *testing.T) {
	l := DefaultLibrary()
	a := l.TSVMacroAreaMM2()
	if a <= 0 {
		t.Fatal("TSV macro area must be positive")
	}
	// 32 wires at 8um pitch: about 35 * 64e-6 mm^2 ~ 0.0023 mm^2, i.e. small
	// compared to a switch.
	if a >= l.SwitchAreaMM2(4, 4) {
		t.Errorf("TSV macro (%v mm2) should be smaller than a 4x4 switch (%v mm2)",
			a, l.SwitchAreaMM2(4, 4))
	}
}

func TestLinkPipelineStages(t *testing.T) {
	l := DefaultLibrary()
	if s := l.LinkPipelineStages(0.5, 400); s != 0 {
		t.Errorf("short link should need 0 stages, got %d", s)
	}
	if s := l.LinkPipelineStages(5.0, 400); s < 2 {
		t.Errorf("5 mm link at 400 MHz should need several stages, got %d", s)
	}
	if s := l.LinkPipelineStages(-1, 400); s != 0 {
		t.Errorf("negative length stages = %d", s)
	}
	if s := l.LinkPipelineStages(3, 0); s != 0 {
		t.Errorf("zero frequency stages = %d", s)
	}
	if c := l.CyclesForLink(0.5, 400); c != 1 {
		t.Errorf("CyclesForLink short = %v, want 1", c)
	}
	if c := l.CyclesForLink(5, 400); c < 3 {
		t.Errorf("CyclesForLink long = %v, want >= 3", c)
	}
}

// linkPipelineStagesOneStep is LinkPipelineStages as one function, before
// it was split into LinkReachMM and PipelineStages.
func linkPipelineStagesOneStep(l Library, lengthMM, freqMHz float64) int {
	if lengthMM <= 0 || freqMHz <= 0 {
		return 0
	}
	cyclePS := 1e6 / freqMHz
	reachable := math.Min(l.MaxUnrepeatedLinkMM, cyclePS/l.WireDelayPSPerMM)
	if reachable <= 0 {
		return 0
	}
	stages := int(math.Ceil(lengthMM/reachable)) - 1
	if stages < 0 {
		stages = 0
	}
	return stages
}

// TestPipelineStagesOfReachMatchOneStep checks that PipelineStages of the
// length at LinkReachMM, and LinkPipelineStages, which composes them, equal
// the one-step function on every length near a stage boundary (at it, one
// ulp either side and 2^-30 below it), on degenerate lengths (0, negatives,
// NaN, ±Inf, the smallest subnormal) and at frequencies that are not
// positive or NaN, for the default library's wire-limited reach and a
// delay-limited one.
func TestPipelineStagesOfReachMatchOneStep(t *testing.T) {
	l := DefaultLibrary()
	freqs := []float64{400, 1000, 5000, 12345.6, 0, -400, math.Inf(-1), math.NaN()}
	for _, f := range freqs {
		lengths := []float64{0, math.Copysign(0, -1), -1, -1.5, math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 0.1, 0.3}
		if reach := l.LinkReachMM(f); reach > 0 {
			for k := 1.0; k <= 6; k++ {
				b := k * reach
				lengths = append(lengths, b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)), b*(1-0x1p-30), b-b*0x1p-30)
			}
		}
		for _, x := range lengths {
			want := linkPipelineStagesOneStep(l, x, f)
			if got := PipelineStages(x, l.LinkReachMM(f)); got != want {
				t.Errorf("PipelineStages(%v, LinkReachMM(%v)) = %d, one step %d", x, f, got, want)
			}
			if got := l.LinkPipelineStages(x, f); got != want {
				t.Errorf("LinkPipelineStages(%v, %v) = %d, one step %d", x, f, got, want)
			}
		}
	}
	if r := l.LinkReachMM(400); r != 1.5 {
		t.Errorf("LinkReachMM(400) = %v, want the 1.5 mm unrepeated length", r)
	}
	if r := l.LinkReachMM(0); r != 0 {
		t.Errorf("LinkReachMM(0) = %v, want 0", r)
	}
}

func TestPipelineStagesMonotone(t *testing.T) {
	l := DefaultLibrary()
	f := func(a, b uint8) bool {
		la, lb := float64(a)/10, float64(b)/10
		if la > lb {
			la, lb = lb, la
		}
		return l.LinkPipelineStages(la, 400) <= l.LinkPipelineStages(lb, 400)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxInterLayerLinks(t *testing.T) {
	l := DefaultLibrary()
	if got := l.MaxInterLayerLinks(0); got != 0 {
		t.Errorf("MaxInterLayerLinks(0) = %d", got)
	}
	// 36 TSVs per 32-bit link (with 10% overhead): a 900-TSV budget gives 25
	// links, the constraint used throughout the paper's experiments.
	if got := l.MaxInterLayerLinks(900); got != 25 {
		t.Errorf("MaxInterLayerLinks(900) = %d, want 25", got)
	}
	if got := l.MaxInterLayerLinks(-10); got != 0 {
		t.Errorf("MaxInterLayerLinks(-10) = %d", got)
	}
}

func TestNIPower(t *testing.T) {
	l := DefaultLibrary()
	if l.NIPowerMWAt(500) >= l.NIPowerMWAt(1000) {
		t.Error("NI power must scale with frequency")
	}
}

func TestYieldModel(t *testing.T) {
	for _, p := range StandardProcesses() {
		if y := p.Yield(0); y > p.BaseYield+1e-9 || y < p.BaseYield*0.9 {
			t.Errorf("%s: Yield(0) = %v, base %v", p.Name, y, p.BaseYield)
		}
		// Monotone non-increasing in TSV count.
		prev := 2.0
		for _, n := range []int{0, 100, 500, 1000, 2000, 5000, 20000} {
			y := p.Yield(n)
			if y > prev+1e-12 {
				t.Errorf("%s: yield increased at %d TSVs", p.Name, n)
			}
			if y < 0 || y > 1 {
				t.Errorf("%s: yield out of range: %v", p.Name, y)
			}
			prev = y
		}
		// Sharp drop beyond the knee.
		atKnee := p.Yield(p.KneeTSVs)
		far := p.Yield(p.KneeTSVs * 10)
		if far >= atKnee {
			t.Errorf("%s: no drop after knee (%v vs %v)", p.Name, far, atKnee)
		}
		if p.Yield(-5) != p.Yield(0) {
			t.Errorf("%s: negative TSV count should clamp", p.Name)
		}
	}
}

func TestMaxTSVsForYield(t *testing.T) {
	p := StandardProcesses()[0]
	target := 0.90
	n := p.MaxTSVsForYield(target)
	if n <= 0 {
		t.Fatalf("MaxTSVsForYield = %d", n)
	}
	if p.Yield(n) < target {
		t.Errorf("yield at %d TSVs = %v < target", n, p.Yield(n))
	}
	if p.Yield(n+1) >= target {
		t.Errorf("n is not maximal: yield at %d TSVs = %v", n+1, p.Yield(n+1))
	}
	if got := p.MaxTSVsForYield(0.999); got != 0 {
		t.Errorf("unreachable target should give 0, got %d", got)
	}
}

func almost(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < eps
}
