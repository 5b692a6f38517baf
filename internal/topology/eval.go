package topology

import (
	"math"
	"sort"

	"sunfloor3d/internal/geom"
)

// PowerBreakdown decomposes the NoC power consumption the way Figs. 10 and 11
// of the paper plot it: switch power, switch-to-switch link power and
// core-to-switch link power, all in milliwatts. The JSON tags are the
// serialised Result's.
type PowerBreakdown struct {
	SwitchMW     float64 `json:"switch_mw"`
	SwitchLinkMW float64 `json:"switch_link_mw"`
	CoreLinkMW   float64 `json:"core_link_mw"`
	NIMW         float64 `json:"ni_mw"`
}

// TotalMW returns the total NoC power.
func (p PowerBreakdown) TotalMW() float64 {
	return p.SwitchMW + p.SwitchLinkMW + p.CoreLinkMW + p.NIMW
}

// LinkMW returns the total link power (switch-to-switch plus core-to-switch),
// the "Link Power" column of Table I.
func (p PowerBreakdown) LinkMW() float64 { return p.SwitchLinkMW + p.CoreLinkMW }

// Metrics summarises a fully evaluated topology. The JSON tags are the
// serialised Result's, and the field order is its key order.
type Metrics struct {
	// Power is the NoC power breakdown.
	Power PowerBreakdown `json:"power"`
	// AvgLatencyCycles is the average zero-load latency over all flows.
	AvgLatencyCycles float64 `json:"avg_latency_cycles"`
	// MaxLatencyCycles is the worst zero-load latency over all flows.
	MaxLatencyCycles float64 `json:"max_latency_cycles"`
	// TotalWireLengthMM is the sum of WireLengthsMM.
	TotalWireLengthMM float64 `json:"total_wire_length_mm"`
	// NoCAreaMM2 is the silicon area of switches, NIs and TSV macros.
	NoCAreaMM2 float64 `json:"noc_area_mm2"`
	// MaxILL is the maximum number of links crossing any adjacent layer pair.
	MaxILL int `json:"max_ill"`
	// TSVMacros is the number of TSV macros needed.
	TSVMacros int `json:"tsv_macros"`
	// NumSwitches is the number of switches in the topology.
	NumSwitches int `json:"num_switches"`
	// LatencyViolations counts flows whose zero-load latency exceeds their
	// latency constraint.
	LatencyViolations int `json:"latency_violations"`
	// SpareTSVMacros is the number of spare TSVs provisioned by the
	// fault-aware sparing pass (0 when sparing is disabled). Evaluate never
	// sets it — sparing is sized after evaluation from the committed routes
	// and stamped onto the metrics by the synthesis engine.
	SpareTSVMacros int `json:"spare_tsv_macros,omitempty"`
	// WireLengthsMM lists the planar length of every physical link.
	WireLengthsMM []float64 `json:"wire_lengths_mm,omitempty"`
}

// switchDistance returns the planar Manhattan distance between two switches
// plus the vertical distance for crossed layers.
func (t *Topology) switchDistance(a, b int) (planarMM float64, layers int) {
	sa, sb := t.Switches[a], t.Switches[b]
	d := sa.Layer - sb.Layer
	if d < 0 {
		d = -d
	}
	return geom.Manhattan(sa.Pos, sb.Pos), d
}

// coreSwitchDistance returns the planar Manhattan distance between a core and
// its switch plus the number of crossed layers.
func (t *Topology) coreSwitchDistance(core, sw int) (planarMM float64, layers int) {
	c := t.Design.Cores[core]
	s := t.Switches[sw]
	d := c.Layer - s.Layer
	if d < 0 {
		d = -d
	}
	return geom.Manhattan(c.Center(), s.Pos), d
}

// Evaluate computes all metrics of the topology at its current switch
// positions. Callers should have attached all cores and routed all flows
// (Validate reports violations); Evaluate itself is tolerant of partial
// topologies so that the synthesis loop can use it for incremental estimates.
func (t *Topology) Evaluate() Metrics {
	var m Metrics
	m.NumSwitches = len(t.Switches)

	swLinks := t.SwitchLinks()
	inPorts, outPorts := t.SwitchPorts()

	// Traffic through each switch: everything entering it (from cores or
	// other switches).
	through := make([]float64, len(t.Switches))
	for f, r := range t.Routes {
		if len(r.Switches) == 0 {
			continue
		}
		bw := t.Design.Flows[f].BandwidthMBps
		for _, s := range r.Switches {
			through[s] += bw
		}
	}

	// Switch and NI power.
	for i := range t.Switches {
		m.Power.SwitchMW += t.Lib.SwitchPowerMW(inPorts[i], outPorts[i], t.FreqMHz, through[i])
		m.NoCAreaMM2 += t.Lib.SwitchAreaMM2(inPorts[i], outPorts[i])
	}
	attached := 0
	for _, sw := range t.CoreAttach {
		if sw >= 0 {
			attached++
		}
	}
	m.Power.NIMW = float64(attached) * t.Lib.NIPowerMWAt(t.FreqMHz)
	m.NoCAreaMM2 += float64(attached) * t.Lib.NIAreaMM2

	// Switch-to-switch links.
	for _, l := range swLinks {
		planar, layers := t.switchDistance(l.From, l.To)
		m.Power.SwitchLinkMW += t.Lib.WirePowerMW(planar, l.BandwidthMBps) +
			t.Lib.VerticalLinkPowerMW(layers, l.BandwidthMBps)
		m.WireLengthsMM = append(m.WireLengthsMM, planar)
	}

	// Core-to-switch links.
	for _, l := range t.CoreLinks() {
		if l.Switch < 0 {
			continue
		}
		planar, layers := t.coreSwitchDistance(l.Core, l.Switch)
		m.Power.CoreLinkMW += t.Lib.WirePowerMW(planar, l.BandwidthMBps) +
			t.Lib.VerticalLinkPowerMW(layers, l.BandwidthMBps)
		m.WireLengthsMM = append(m.WireLengthsMM, planar)
	}

	for _, w := range m.WireLengthsMM {
		m.TotalWireLengthMM += w
	}

	// Zero-load latency per flow: one cycle per traversed switch, plus extra
	// pipeline stages for long planar links, plus one cycle when a
	// core-to-switch attachment needs pipelining.
	var latSum float64
	count := 0
	for f, r := range t.Routes {
		if len(r.Switches) == 0 {
			continue
		}
		lat := t.FlowLatencyCycles(f)
		latSum += lat
		count++
		if lat > m.MaxLatencyCycles {
			m.MaxLatencyCycles = lat
		}
		if c := t.Design.Flows[f].LatencyCycles; c > 0 && lat > c {
			m.LatencyViolations++
		}
	}
	if count > 0 {
		m.AvgLatencyCycles = latSum / float64(count)
	}

	m.MaxILL = t.MaxInterLayerLinks()
	m.TSVMacros = t.TSVMacroCount()
	m.NoCAreaMM2 += float64(m.TSVMacros) * t.Lib.TSVMacroAreaMM2()
	return m
}

// FlowLatencyCycles returns the zero-load latency of the flow in cycles at
// the current switch positions: one cycle per traversed switch plus the
// pipeline stages needed on each traversed link. Unrouted flows return
// +Inf.
func (t *Topology) FlowLatencyCycles(flow int) float64 {
	r := t.Routes[flow]
	if len(r.Switches) == 0 {
		return math.Inf(1)
	}
	lat := float64(len(r.Switches)) // one cycle of switch traversal each
	f := t.Design.Flows[flow]

	// Source core to first switch.
	planar, _ := t.coreSwitchDistance(f.Src, r.Switches[0])
	lat += float64(t.Lib.LinkPipelineStages(planar, t.FreqMHz))
	// Inter-switch hops.
	for i := 1; i < len(r.Switches); i++ {
		planar, _ := t.switchDistance(r.Switches[i-1], r.Switches[i])
		lat += float64(t.Lib.LinkPipelineStages(planar, t.FreqMHz))
	}
	// Last switch to destination core.
	planar, _ = t.coreSwitchDistance(f.Dst, r.Switches[len(r.Switches)-1])
	lat += float64(t.Lib.LinkPipelineStages(planar, t.FreqMHz))
	return lat
}

// WireLengthHistogram buckets the link lengths into bins of the given width
// (in mm) and returns the counts; used to reproduce Fig. 12. A non-positive,
// NaN or infinite bin width returns an empty histogram: NaN in particular
// fails every ordered comparison, so without the explicit guard it would
// slip past the <= 0 check and turn the bin index computation into an
// undefined float-to-int conversion.
func (t *Topology) WireLengthHistogram(binMM float64) []int {
	if binMM <= 0 || math.IsNaN(binMM) || math.IsInf(binMM, 0) {
		return nil
	}
	m := t.Evaluate()
	if len(m.WireLengthsMM) == 0 {
		return nil
	}
	maxLen := 0.0
	for _, w := range m.WireLengthsMM {
		if w > maxLen {
			maxLen = w
		}
	}
	bins := make([]int, int(maxLen/binMM)+1)
	for _, w := range m.WireLengthsMM {
		bins[int(w/binMM)]++
	}
	return bins
}

// SortedWireLengths returns all link lengths in ascending order.
func (t *Topology) SortedWireLengths() []float64 {
	m := t.Evaluate()
	ws := append([]float64(nil), m.WireLengthsMM...)
	sort.Float64s(ws)
	return ws
}
