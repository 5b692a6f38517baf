// Package noclib models the power, delay and area of the NoC building blocks
// used by the synthesis flow: switches, network interfaces, planar links and
// TSV-based vertical links, plus the yield model of Fig. 1 that motivates the
// inter-layer link constraint.
//
// The paper uses the xpipesLite component library characterised from 65 nm
// post-layout implementations. That library is proprietary, so this package
// substitutes analytic models calibrated to the magnitudes the paper reports:
// a switch costs a few mW at 1 GHz and a few thousand gates; the maximum
// unrepeated planar link is 1.5 mm in M2/M3; TSVs (4 um diameter, 8 um pitch)
// have roughly one order of magnitude lower R and C than a moderate planar
// link and a delay of 16-18.5 ps; larger crossbars lower the maximum switch
// operating frequency. Only the relative ordering of design points matters
// to the synthesis algorithm, and that ordering is preserved.
package noclib

import (
	"fmt"
	"math"
)

// Library bundles all technology parameters consumed by the synthesis flow.
// The zero value is not usable; construct one with DefaultLibrary (65 nm low
// power, matching the paper's experimental setup) and override fields as
// needed.
type Library struct {
	// TechnologyNM is the feature size in nanometres (informational).
	TechnologyNM int

	// LinkWidthBits is the data width of every NoC link in bits.
	LinkWidthBits int

	// SwitchBasePowerMW is the power of a minimal 2x2 switch at ReferenceFreqMHz
	// with zero load, in milliwatts.
	SwitchBasePowerMW float64
	// SwitchPortPowerMW is the additional power per input or output port at the
	// reference frequency, in milliwatts.
	SwitchPortPowerMW float64
	// SwitchTrafficPowerMWPerGBps is the load-dependent switch power in
	// milliwatts per GB/s of traffic crossing the switch.
	SwitchTrafficPowerMWPerGBps float64

	// SwitchBaseAreaMM2 and SwitchPortAreaMM2 give switch area as
	// base + ports^2 * portArea (crossbar area grows quadratically).
	SwitchBaseAreaMM2 float64
	SwitchPortAreaMM2 float64

	// NIPowerMW is the power of one network interface at the reference
	// frequency; NIAreaMM2 is its area.
	NIPowerMW float64
	NIAreaMM2 float64

	// ReferenceFreqMHz is the frequency at which the power numbers above are
	// characterised. Dynamic power scales linearly with frequency.
	ReferenceFreqMHz float64

	// WirePowerMWPerMMPerGBps is the planar link power per millimetre of wire
	// per GB/s of carried bandwidth.
	WirePowerMWPerMMPerGBps float64
	// WireLeakagePowerMWPerMM is the bandwidth-independent wire power
	// (repeaters and leakage) per millimetre.
	WireLeakagePowerMWPerMM float64
	// WireDelayPSPerMM is the (repeated) planar wire delay per millimetre.
	WireDelayPSPerMM float64
	// MaxUnrepeatedLinkMM is the longest planar segment that can be traversed
	// in one cycle without pipelining at the reference frequency.
	MaxUnrepeatedLinkMM float64

	// TSVDelayPS is the delay of a vertical hop through one layer.
	TSVDelayPS float64
	// TSVPowerMWPerGBps is the vertical link power per GB/s (about an order
	// of magnitude below a 1 mm planar wire, per the TSV models of Loi et al.).
	TSVPowerMWPerGBps float64
	// TSVPitchUM is the TSV pitch in micrometres; with LinkWidthBits wires a
	// TSV macro occupies (pitch * bits)^0.5-ish square area, see TSVMacroArea.
	TSVPitchUM float64
	// VerticalPitchMM is the physical distance between adjacent layers (die
	// thickness plus bond), used to convert layer crossings to wire length.
	VerticalPitchMM float64

	// MaxSwitchFreqMHz maps the number of switch ports to the maximum
	// operating frequency: f_max(ports) = SwitchFreqK / ports, clamped to
	// SwitchFreqCapMHz. Larger crossbars and arbiters have longer critical
	// paths, as described in Section V-B of the paper.
	SwitchFreqK      float64
	SwitchFreqCapMHz float64
}

// DefaultLibrary returns the 65 nm low-power library used by all experiments.
func DefaultLibrary() Library {
	return Library{
		TechnologyNM:  65,
		LinkWidthBits: 32,

		SwitchBasePowerMW:           0.8,
		SwitchPortPowerMW:           0.35,
		SwitchTrafficPowerMWPerGBps: 0.9,

		SwitchBaseAreaMM2: 0.012,
		SwitchPortAreaMM2: 0.0009,

		NIPowerMW: 0.45,
		NIAreaMM2: 0.02,

		ReferenceFreqMHz: 1000,

		WirePowerMWPerMMPerGBps: 0.30,
		WireLeakagePowerMWPerMM: 0.05,
		WireDelayPSPerMM:        180,
		MaxUnrepeatedLinkMM:     1.5,

		TSVDelayPS:        18.5,
		TSVPowerMWPerGBps: 0.03,
		TSVPitchUM:        8,
		VerticalPitchMM:   0.05,

		SwitchFreqK:      4800, // a 12-port switch tops out at 400 MHz, a 6-port one at 800 MHz
		SwitchFreqCapMHz: 1000,
	}
}

// Validate checks that all library parameters are physically meaningful.
func (l Library) Validate() error {
	checks := []struct {
		ok  bool
		msg string
	}{
		{l.LinkWidthBits > 0, "LinkWidthBits must be positive"},
		{l.SwitchBasePowerMW > 0, "SwitchBasePowerMW must be positive"},
		{l.SwitchPortPowerMW > 0, "SwitchPortPowerMW must be positive"},
		{l.SwitchTrafficPowerMWPerGBps >= 0, "SwitchTrafficPowerMWPerGBps must be non-negative"},
		{l.SwitchBaseAreaMM2 > 0, "SwitchBaseAreaMM2 must be positive"},
		{l.SwitchPortAreaMM2 > 0, "SwitchPortAreaMM2 must be positive"},
		{l.NIPowerMW > 0, "NIPowerMW must be positive"},
		{l.NIAreaMM2 > 0, "NIAreaMM2 must be positive"},
		{l.ReferenceFreqMHz > 0, "ReferenceFreqMHz must be positive"},
		{l.WirePowerMWPerMMPerGBps > 0, "WirePowerMWPerMMPerGBps must be positive"},
		{l.WireLeakagePowerMWPerMM >= 0, "WireLeakagePowerMWPerMM must be non-negative"},
		{l.WireDelayPSPerMM > 0, "WireDelayPSPerMM must be positive"},
		{l.MaxUnrepeatedLinkMM > 0, "MaxUnrepeatedLinkMM must be positive"},
		{l.TSVDelayPS > 0, "TSVDelayPS must be positive"},
		{l.TSVPowerMWPerGBps >= 0, "TSVPowerMWPerGBps must be non-negative"},
		{l.TSVPitchUM > 0, "TSVPitchUM must be positive"},
		{l.VerticalPitchMM > 0, "VerticalPitchMM must be positive"},
		{l.SwitchFreqK > 0, "SwitchFreqK must be positive"},
		{l.SwitchFreqCapMHz > 0, "SwitchFreqCapMHz must be positive"},
	}
	for _, c := range checks {
		if !c.ok {
			return fmt.Errorf("noclib: %s", c.msg)
		}
	}
	return nil
}

// freqScale returns the dynamic-power scaling factor for the given operating
// frequency relative to the reference frequency.
func (l Library) freqScale(freqMHz float64) float64 {
	return freqMHz / l.ReferenceFreqMHz
}

// SwitchPowerMW returns the power consumption of a switch with the given
// number of input and output ports, operating at freqMHz, forwarding
// trafficMBps megabytes per second of aggregate traffic.
func (l Library) SwitchPowerMW(inPorts, outPorts int, freqMHz, trafficMBps float64) float64 {
	if inPorts < 1 {
		inPorts = 1
	}
	if outPorts < 1 {
		outPorts = 1
	}
	static := l.SwitchBasePowerMW + float64(inPorts+outPorts)*l.SwitchPortPowerMW
	dynamic := l.SwitchTrafficPowerMWPerGBps * trafficMBps / 1000.0
	return static*l.freqScale(freqMHz) + dynamic
}

// SwitchPortMarginalMW returns the static power of adding one port to a
// switch dimension (input or output) currently holding `current` ports, at
// freqMHz. It equals SwitchPowerMW(current+1, other, f, 0) −
// SwitchPowerMW(current, other, f, 0) — zero when current is 0, because
// SwitchPowerMW clamps empty dimensions to one port — but is computed in
// closed form so the result is bit-identical regardless of the other
// dimension's port count. The router's incremental cost invalidation relies
// on that exact independence: a subtraction of two SwitchPowerMW
// evaluations drifts by ULPs as the other dimension grows, which is enough
// to flip shortest-path ties.
func (l Library) SwitchPortMarginalMW(current int, freqMHz float64) float64 {
	if current < 1 {
		return 0
	}
	return l.SwitchPortPowerMW * l.freqScale(freqMHz)
}

// SwitchAreaMM2 returns the silicon area of a switch with the given port
// counts. Crossbar area grows with the product of input and output ports.
func (l Library) SwitchAreaMM2(inPorts, outPorts int) float64 {
	if inPorts < 1 {
		inPorts = 1
	}
	if outPorts < 1 {
		outPorts = 1
	}
	return l.SwitchBaseAreaMM2 + float64(inPorts*outPorts)*l.SwitchPortAreaMM2
}

// NIPowerMWAt returns the power of one network interface at freqMHz.
func (l Library) NIPowerMWAt(freqMHz float64) float64 {
	return l.NIPowerMW * l.freqScale(freqMHz)
}

// MaxSwitchSize returns the maximum number of ports (max of in and out) a
// switch may have while still closing timing at freqMHz. This is the
// max_sw_size input of Algorithm 2. The result is at least 2.
func (l Library) MaxSwitchSize(freqMHz float64) int {
	if freqMHz <= 0 {
		return 2
	}
	f := math.Min(freqMHz, l.SwitchFreqCapMHz)
	size := int(math.Floor(l.SwitchFreqK / f))
	if size < 2 {
		size = 2
	}
	return size
}

// MaxSwitchFreqMHz returns the maximum operating frequency supported by a
// switch with the given number of ports.
func (l Library) MaxSwitchFreqMHz(ports int) float64 {
	if ports < 2 {
		ports = 2
	}
	return math.Min(l.SwitchFreqK/float64(ports), l.SwitchFreqCapMHz)
}

// WirePowerMW returns the power of a planar wire segment of the given length
// carrying bandwidthMBps.
func (l Library) WirePowerMW(lengthMM, bandwidthMBps float64) float64 {
	if lengthMM < 0 {
		lengthMM = 0
	}
	return lengthMM * (l.WirePowerMWPerMMPerGBps*bandwidthMBps/1000.0 + l.WireLeakagePowerMWPerMM)
}

// WireDelayPS returns the delay of a planar wire of the given length.
func (l Library) WireDelayPS(lengthMM float64) float64 {
	if lengthMM < 0 {
		lengthMM = 0
	}
	return lengthMM * l.WireDelayPSPerMM
}

// VerticalLinkPowerMW returns the power of a vertical (TSV) link crossing the
// given number of layers and carrying bandwidthMBps.
func (l Library) VerticalLinkPowerMW(layers int, bandwidthMBps float64) float64 {
	if layers < 0 {
		layers = -layers
	}
	return float64(layers) * l.TSVPowerMWPerGBps * bandwidthMBps / 1000.0
}

// VerticalLinkDelayPS returns the delay of a vertical link crossing the given
// number of layers.
func (l Library) VerticalLinkDelayPS(layers int) float64 {
	if layers < 0 {
		layers = -layers
	}
	return float64(layers) * l.TSVDelayPS
}

// TSVMacroAreaMM2 returns the silicon area reserved by one TSV macro for a
// link of LinkWidthBits wires (plus control), at the library's TSV pitch.
func (l Library) TSVMacroAreaMM2() float64 {
	// One TSV per signal wire plus ~10% control/redundancy overhead, each
	// occupying pitch^2 of silicon.
	wires := float64(l.LinkWidthBits) * 1.1
	pitchMM := l.TSVPitchUM / 1000.0
	return wires * pitchMM * pitchMM
}

// LinkPipelineStages returns the number of pipeline stages required for a
// planar link of the given length to sustain full throughput at freqMHz. A
// link shorter than the per-cycle reach needs no extra stage (returns 0). It
// is PipelineStages of the length at LinkReachMM(freqMHz).
func (l Library) LinkPipelineStages(lengthMM, freqMHz float64) int {
	return PipelineStages(lengthMM, l.LinkReachMM(freqMHz))
}

// LinkReachMM returns the longest planar link a flit crosses in one cycle
// at freqMHz: MaxUnrepeatedLinkMM, or less when the cycle is shorter than
// that wire's delay. It is 0 when freqMHz is not positive.
func (l Library) LinkReachMM(freqMHz float64) float64 {
	if freqMHz <= 0 {
		return 0
	}
	cyclePS := 1e6 / freqMHz
	return math.Min(l.MaxUnrepeatedLinkMM, cyclePS/l.WireDelayPSPerMM)
}

// PipelineStages returns the number of pipeline stages a planar link of
// lengthMM needs when a flit crosses reachMM of wire per cycle: one fewer
// than the cycles the link takes, and 0 when either argument is not
// positive. Callers that price many links at one frequency read the reach
// once (Library.LinkReachMM) and call this per link.
func PipelineStages(lengthMM, reachMM float64) int {
	if lengthMM <= 0 || reachMM <= 0 {
		return 0
	}
	stages := int(math.Ceil(lengthMM/reachMM)) - 1
	if stages < 0 {
		stages = 0
	}
	return stages
}

// CyclesForLink returns the number of NoC cycles needed to traverse a planar
// link of the given length at freqMHz (at least 1).
func (l Library) CyclesForLink(lengthMM, freqMHz float64) float64 {
	return float64(1 + l.LinkPipelineStages(lengthMM, freqMHz))
}

// MaxInterLayerLinks converts a TSV budget between two adjacent layers into
// the maximum number of NoC links crossing that boundary (the paper's
// max_ill), given that each link needs LinkWidthBits TSVs plus 10% overhead.
func (l Library) MaxInterLayerLinks(tsvBudget int) int {
	perLink := int(math.Ceil(float64(l.LinkWidthBits) * 1.1))
	if perLink <= 0 || tsvBudget <= 0 {
		return 0
	}
	return tsvBudget / perLink
}
