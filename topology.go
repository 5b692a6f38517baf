package sunfloor3d

import (
	"fmt"
	"io"
	"strings"

	"sunfloor3d/internal/place"
	"sunfloor3d/internal/topology"
)

// Topology is a synthesized NoC: the switches with their layer assignment
// and positions, the core-to-switch attachments, and the routed paths of
// every flow.
type Topology struct {
	t *topology.Topology
}

// NumSwitches returns the number of switches in the topology.
func (t *Topology) NumSwitches() int { return t.t.NumSwitches() }

// Describe renders the topology as human-readable text: one block per
// switch with its attached cores and links.
func (t *Topology) Describe() string { return t.t.Describe() }

// WriteDOT writes the topology in Graphviz DOT format.
func (t *Topology) WriteDOT(w io.Writer) error { return t.t.WriteDOT(w) }

// WireLengthHistogram buckets the link lengths into bins of the given width
// (in mm) and returns the counts.
func (t *Topology) WireLengthHistogram(binMM float64) []int {
	return t.t.WireLengthHistogram(binMM)
}

// Evaluate recomputes the power, latency and area metrics of the topology.
func (t *Topology) Evaluate() Metrics { return t.t.Evaluate() }

// Floorplan inserts the NoC components (switches, NIs, TSV macros) into the
// input core floorplan and returns the combined floorplan. The topology
// itself is not modified.
func (t *Topology) Floorplan() (*Floorplan, error) {
	fp, err := place.InsertNoC(t.t.Clone())
	if err != nil {
		return nil, err
	}
	return &Floorplan{fp: fp}, nil
}

// Floorplan is the result of inserting the NoC components into the input
// core floorplan, organised per layer.
type Floorplan struct {
	fp *place.Floorplan
}

// ChipAreaMM2 returns the area of the largest layer bounding box.
func (f *Floorplan) ChipAreaMM2() float64 { return f.fp.ChipAreaMM2() }

// MovedCount returns how many components were displaced from their input or
// ideal positions during overlap removal.
func (f *Floorplan) MovedCount() int { return f.fp.MovedCount() }

// Text renders the floorplan as human-readable text: one line per component,
// grouped by layer, followed by the chip area.
func (f *Floorplan) Text() string {
	var b strings.Builder
	for l, layer := range f.fp.Layers {
		fmt.Fprintf(&b, "layer %d (bbox %.3f mm2)\n", l, f.fp.LayerBoundingBox(l).Area())
		for _, c := range layer {
			fmt.Fprintf(&b, "  %-12s %-6s %v\n", c.Name, c.Kind, c.Rect)
		}
	}
	fmt.Fprintf(&b, "chip_area_mm2 %.3f\n", f.fp.ChipAreaMM2())
	return b.String()
}
