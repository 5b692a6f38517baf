// Package topology defines the NoC topology data structure produced by the
// synthesis flow — switches, network interfaces, core-to-switch attachments
// and per-flow routes — together with its evaluation: power consumption
// (broken down into switch, switch-to-switch link and core-to-switch link
// power as plotted in Figs. 10 and 11 of the paper), zero-load latency, wire
// lengths (Fig. 12), inter-layer link usage (the max_ill constraint), silicon
// area and TSV macro counts.
package topology

import (
	"cmp"
	"fmt"
	"slices"

	"sunfloor3d/internal/geom"
	"sunfloor3d/internal/model"
	"sunfloor3d/internal/noclib"
)

// Switch is one NoC switch instance.
type Switch struct {
	// ID is the index of the switch in the topology.
	ID int
	// Layer is the 3-D layer the switch is assigned to.
	Layer int
	// Pos is the planar position of the switch centre within its layer. It
	// is first estimated at the centroid of the attached cores and later
	// refined by the LP of the placement step.
	Pos geom.Point
	// Indirect marks switches inserted by the path computation step purely
	// to connect other switches (no cores attach to them).
	Indirect bool
}

// Route is the switch path assigned to one communication flow. The flow
// enters the network at the switch attached to its source core and leaves at
// the switch attached to its destination core; Switches lists the traversed
// switch IDs in order (length >= 1).
type Route struct {
	Flow     int
	Switches []int
}

// Topology is a synthesized NoC for a given design.
type Topology struct {
	// Design is the input communication graph.
	Design *model.CommGraph
	// Lib is the component library used for evaluation.
	Lib noclib.Library
	// FreqMHz is the NoC operating frequency.
	FreqMHz float64

	// Switches are the NoC switches.
	Switches []Switch
	// CoreAttach maps every core index to the switch it is attached to
	// through its network interface (-1 while unassigned).
	CoreAttach []int
	// Routes holds one route per flow, indexed like Design.Flows.
	Routes []Route
}

// New returns an empty topology for the design with no switches and all cores
// unattached.
func New(design *model.CommGraph, lib noclib.Library, freqMHz float64) *Topology {
	attach := make([]int, design.NumCores())
	for i := range attach {
		attach[i] = -1
	}
	return &Topology{
		Design:     design,
		Lib:        lib,
		FreqMHz:    freqMHz,
		CoreAttach: attach,
		Routes:     make([]Route, design.NumFlows()),
	}
}

// AddSwitch appends a switch on the given layer and returns its ID.
func (t *Topology) AddSwitch(layer int) int {
	id := len(t.Switches)
	t.Switches = append(t.Switches, Switch{ID: id, Layer: layer})
	return id
}

// AddIndirectSwitch appends an indirect switch (used only for switch-to-switch
// connectivity) on the given layer and returns its ID.
func (t *Topology) AddIndirectSwitch(layer int) int {
	id := t.AddSwitch(layer)
	t.Switches[id].Indirect = true
	return id
}

// AttachCore attaches the core to the switch.
func (t *Topology) AttachCore(core, sw int) {
	t.CoreAttach[core] = sw
}

// SetRoute records the switch path for the flow.
func (t *Topology) SetRoute(flow int, switches []int) {
	t.Routes[flow] = Route{Flow: flow, Switches: append([]int(nil), switches...)}
}

// NumSwitches returns the number of switches.
func (t *Topology) NumSwitches() int { return len(t.Switches) }

// Clone returns a deep copy of the topology (sharing the design and library).
func (t *Topology) Clone() *Topology {
	c := &Topology{Design: t.Design, Lib: t.Lib, FreqMHz: t.FreqMHz}
	c.Switches = append([]Switch(nil), t.Switches...)
	c.CoreAttach = append([]int(nil), t.CoreAttach...)
	c.Routes = make([]Route, len(t.Routes))
	for i, r := range t.Routes {
		c.Routes[i] = Route{Flow: r.Flow, Switches: append([]int(nil), r.Switches...)}
	}
	return c
}

// Validate checks structural consistency: every core is attached to an
// existing switch, and every flow has a route that starts at its source
// core's switch, ends at its destination core's switch and only steps between
// existing switches.
func (t *Topology) Validate() error {
	for c, sw := range t.CoreAttach {
		if sw < 0 || sw >= len(t.Switches) {
			return fmt.Errorf("core %d (%s) attached to invalid switch %d",
				c, t.Design.Cores[c].Name, sw)
		}
	}
	for f, r := range t.Routes {
		if len(r.Switches) == 0 {
			return fmt.Errorf("flow %d has no route", f)
		}
		for _, s := range r.Switches {
			if s < 0 || s >= len(t.Switches) {
				return fmt.Errorf("flow %d routes through invalid switch %d", f, s)
			}
		}
		src := t.Design.Flows[f].Src
		dst := t.Design.Flows[f].Dst
		if r.Switches[0] != t.CoreAttach[src] {
			return fmt.Errorf("flow %d route starts at switch %d, source core attached to %d",
				f, r.Switches[0], t.CoreAttach[src])
		}
		if r.Switches[len(r.Switches)-1] != t.CoreAttach[dst] {
			return fmt.Errorf("flow %d route ends at switch %d, destination core attached to %d",
				f, r.Switches[len(r.Switches)-1], t.CoreAttach[dst])
		}
		for i := 1; i < len(r.Switches); i++ {
			if r.Switches[i] == r.Switches[i-1] {
				return fmt.Errorf("flow %d route repeats switch %d consecutively", f, r.Switches[i])
			}
		}
	}
	return nil
}

// EstimateSwitchPositions places every switch at the bandwidth-weighted
// centroid of the cores attached to it (indirect switches at the centroid of
// their neighbouring switches). This is the pre-LP estimate used while
// exploring topologies; the placement step later refines it.
func (t *Topology) EstimateSwitchPositions() {
	type acc struct {
		x, y, w float64
	}
	accs := make([]acc, len(t.Switches))
	for c, sw := range t.CoreAttach {
		if sw < 0 || sw >= len(t.Switches) {
			continue
		}
		// Weight by the core's total traffic so busy cores pull the switch
		// closer, mirroring the LP objective.
		w := 1.0
		for _, f := range t.Design.Flows {
			if f.Src == c || f.Dst == c {
				w += f.BandwidthMBps
			}
		}
		p := t.Design.Cores[c].Center()
		accs[sw].x += p.X * w
		accs[sw].y += p.Y * w
		accs[sw].w += w
	}
	for i := range t.Switches {
		if accs[i].w > 0 {
			t.Switches[i].Pos = geom.Point{X: accs[i].x / accs[i].w, Y: accs[i].y / accs[i].w}
		}
	}
	// Indirect switches (or switches with no cores): centroid of the switches
	// they exchange traffic with.
	links := t.SwitchLinks()
	for i := range t.Switches {
		if accs[i].w > 0 {
			continue
		}
		var x, y float64
		n := 0
		for _, l := range links {
			var other int
			switch i {
			case l.From:
				other = l.To
			case l.To:
				other = l.From
			default:
				continue
			}
			x += t.Switches[other].Pos.X
			y += t.Switches[other].Pos.Y
			n++
		}
		if n > 0 {
			t.Switches[i].Pos = geom.Point{X: x / float64(n), Y: y / float64(n)}
		}
	}
}

// SwitchLink is an aggregated switch-to-switch physical link with the total
// bandwidth of the flows routed over it.
type SwitchLink struct {
	From, To      int
	BandwidthMBps float64
}

// SwitchLinks aggregates the per-flow routes into directed switch-to-switch
// links, summing bandwidth, sorted by (From, To). A link sums its flows'
// bandwidths in ascending flow order. Every switch of a route must index
// Switches, as Validate requires.
func (t *Topology) SwitchLinks() []SwitchLink {
	// first[s] is 1 + the index in links of the last link out of switch s
	// that aggregation met (0 before any), and next[k] the same for the link
	// out of the same switch met before links[k]: one short list per switch.
	// They are allocated at the first link, so an unrouted topology (the
	// sweep estimates positions and checks inter-layer links before it
	// routes) allocates nothing.
	links := []SwitchLink{}
	var first, next []int32
	for f, r := range t.Routes {
		if len(r.Switches) < 2 {
			continue
		}
		if first == nil {
			first = make([]int32, len(t.Switches))
			links = make([]SwitchLink, 0, 2*len(t.Switches))
			next = make([]int32, 0, cap(links))
		}
		bw := t.Design.Flows[f].BandwidthMBps
		for i := 1; i < len(r.Switches); i++ {
			from, to := r.Switches[i-1], r.Switches[i]
			k := first[from] - 1
			for k >= 0 && links[k].To != to {
				k = next[k] - 1
			}
			if k < 0 {
				links = append(links, SwitchLink{From: from, To: to})
				next = append(next, first[from])
				k = int32(len(links) - 1)
				first[from] = k + 1
			}
			links[k].BandwidthMBps += bw
		}
	}
	slices.SortFunc(links, func(a, b SwitchLink) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return links
}

// CoreLink is an aggregated core-to-switch (or switch-to-core) physical link.
type CoreLink struct {
	Core          int
	Switch        int
	ToCore        bool // true when the link direction is switch -> core
	BandwidthMBps float64
}

// CoreLinks aggregates per-flow traffic on the core/switch attachment links,
// sorted by (Core, ToCore), each link summing its flows' bandwidths in
// ascending flow order. A core without flows in one direction has no link
// in it.
func (t *Topology) CoreLinks() []CoreLink {
	// sums[2c] is core c's traffic into the network and sums[2c+1] its
	// traffic out of it; used marks the ones some flow contributed to.
	sums := make([]float64, 2*t.Design.NumCores())
	used := make([]bool, len(sums))
	for _, fl := range t.Design.Flows {
		sums[2*fl.Src] += fl.BandwidthMBps
		used[2*fl.Src] = true
		sums[2*fl.Dst+1] += fl.BandwidthMBps
		used[2*fl.Dst+1] = true
	}
	links := make([]CoreLink, 0, len(sums))
	for k, bw := range sums {
		if used[k] {
			c := k / 2
			links = append(links, CoreLink{Core: c, Switch: t.CoreAttach[c], ToCore: k%2 == 1, BandwidthMBps: bw})
		}
	}
	return links
}

// SwitchPorts returns the number of input and output ports of every switch:
// one port pair per attached core plus one per incident switch link direction.
func (t *Topology) SwitchPorts() (in, out []int) { return t.switchPorts(t.SwitchLinks()) }

// switchPorts is SwitchPorts over the topology's switch links.
func (t *Topology) switchPorts(links []SwitchLink) (in, out []int) {
	in = make([]int, len(t.Switches))
	out = make([]int, len(t.Switches))
	for _, sw := range t.CoreAttach {
		if sw >= 0 && sw < len(t.Switches) {
			in[sw]++ // from the core's NI into the switch
			out[sw]++
		}
	}
	for _, l := range links {
		out[l.From]++
		in[l.To]++
	}
	return in, out
}

// InterLayerLinkCount returns, for every pair of adjacent layers (i, i+1), the
// number of physical links crossing that boundary. Links spanning multiple
// layers count once per crossed boundary. Core-to-switch attachments that
// cross layers are included.
func (t *Topology) InterLayerLinkCount() []int { return t.interLayerLinkCount(t.SwitchLinks()) }

// interLayerLinkCount is InterLayerLinkCount over the topology's switch links.
func (t *Topology) interLayerLinkCount(links []SwitchLink) []int {
	layers := t.Design.NumLayers()
	for _, s := range t.Switches {
		if s.Layer+1 > layers {
			layers = s.Layer + 1
		}
	}
	if layers < 2 {
		return nil
	}
	counts := make([]int, layers-1)
	cross := func(a, b int) {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		for l := lo; l < hi; l++ {
			counts[l]++
		}
	}
	for _, l := range links {
		cross(t.Switches[l.From].Layer, t.Switches[l.To].Layer)
	}
	for c, sw := range t.CoreAttach {
		if sw >= 0 {
			cross(t.Design.Cores[c].Layer, t.Switches[sw].Layer)
		}
	}
	return counts
}

// MaxInterLayerLinks returns the maximum of InterLayerLinkCount over all
// adjacent layer pairs (0 for single-layer designs).
func (t *Topology) MaxInterLayerLinks() int { return maxOf(t.InterLayerLinkCount()) }

// maxOf returns the largest count, or 0 for none.
func maxOf(counts []int) int {
	m := 0
	for _, c := range counts {
		if c > m {
			m = c
		}
	}
	return m
}

// TSVMacroCount returns the total number of TSV macros required: one per
// boundary crossed by every vertical link (switch-to-switch or
// core-to-switch), as described in Section III.
func (t *Topology) TSVMacroCount() int { return t.tsvMacroCount(t.SwitchLinks()) }

// tsvMacroCount is TSVMacroCount over the topology's switch links.
func (t *Topology) tsvMacroCount(links []SwitchLink) int {
	n := 0
	for _, l := range links {
		d := t.Switches[l.From].Layer - t.Switches[l.To].Layer
		if d < 0 {
			d = -d
		}
		n += d
	}
	for c, sw := range t.CoreAttach {
		if sw < 0 {
			continue
		}
		d := t.Design.Cores[c].Layer - t.Switches[sw].Layer
		if d < 0 {
			d = -d
		}
		n += d
	}
	return n
}
