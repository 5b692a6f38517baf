package model

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// The design flow of the paper takes two input files: a core specification
// file (core names, sizes, positions and 3-D layer assignment) and a
// communication specification file (bandwidth, latency constraint and message
// type of every traffic flow). This file implements a simple, line-oriented
// text format for both, together with the corresponding writers, so that the
// cmd/ tools can exchange designs.
//
// Core specification format (whitespace separated, '#' starts a comment):
//
//	core <name> <width_mm> <height_mm> <x_mm> <y_mm> <layer> [mem]
//
// Communication specification format:
//
//	flow <src_core> <dst_core> <bandwidth_MBps> <latency_cycles> <request|response>
//
// A latency of 0 means "unconstrained".

// ParseCoreSpec reads a core specification from r and returns the cores in
// file order.
func ParseCoreSpec(r io.Reader) ([]Core, error) {
	var cores []Core
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		fields, err := specFields(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("core spec line %d: %w", lineNo, err)
		}
		if fields == nil {
			continue
		}
		if fields[0] != "core" {
			return nil, fmt.Errorf("core spec line %d: expected 'core', got %q", lineNo, fields[0])
		}
		if len(fields) < 7 || len(fields) > 8 {
			return nil, fmt.Errorf("core spec line %d: expected 7 or 8 fields, got %d", lineNo, len(fields))
		}
		c := Core{Name: fields[1]}
		vals := make([]float64, 4)
		for i := 0; i < 4; i++ {
			v, err := strconv.ParseFloat(fields[2+i], 64)
			if err != nil {
				return nil, fmt.Errorf("core spec line %d: bad number %q: %w", lineNo, fields[2+i], err)
			}
			vals[i] = v
		}
		c.Width, c.Height, c.X, c.Y = vals[0], vals[1], vals[2], vals[3]
		layer, err := strconv.Atoi(fields[6])
		if err != nil {
			return nil, fmt.Errorf("core spec line %d: bad layer %q: %w", lineNo, fields[6], err)
		}
		c.Layer = layer
		if len(fields) == 8 {
			if fields[7] != "mem" {
				return nil, fmt.Errorf("core spec line %d: unexpected trailing field %q", lineNo, fields[7])
			}
			c.IsMemory = true
		}
		cores = append(cores, c)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading core spec: %w", err)
	}
	return cores, nil
}

// ParseCommSpec reads a communication specification from r. The cores slice
// is needed to resolve core names to indices.
func ParseCommSpec(r io.Reader, cores []Core) ([]Flow, error) {
	idx := make(map[string]int, len(cores))
	for i, c := range cores {
		idx[c.Name] = i
	}
	var flows []Flow
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		fields, err := specFields(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("comm spec line %d: %w", lineNo, err)
		}
		if fields == nil {
			continue
		}
		if fields[0] != "flow" {
			return nil, fmt.Errorf("comm spec line %d: expected 'flow', got %q", lineNo, fields[0])
		}
		if len(fields) != 6 {
			return nil, fmt.Errorf("comm spec line %d: expected 6 fields, got %d", lineNo, len(fields))
		}
		src, ok := idx[fields[1]]
		if !ok {
			return nil, fmt.Errorf("comm spec line %d: unknown source core %q", lineNo, fields[1])
		}
		dst, ok := idx[fields[2]]
		if !ok {
			return nil, fmt.Errorf("comm spec line %d: unknown destination core %q", lineNo, fields[2])
		}
		bw, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("comm spec line %d: bad bandwidth %q: %w", lineNo, fields[3], err)
		}
		lat, err := strconv.ParseFloat(fields[4], 64)
		if err != nil {
			return nil, fmt.Errorf("comm spec line %d: bad latency %q: %w", lineNo, fields[4], err)
		}
		var mt MessageType
		switch fields[5] {
		case "request":
			mt = Request
		case "response":
			mt = Response
		default:
			return nil, fmt.Errorf("comm spec line %d: bad message type %q", lineNo, fields[5])
		}
		flows = append(flows, Flow{Src: src, Dst: dst, BandwidthMBps: bw, LatencyCycles: lat, Type: mt})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading comm spec: %w", err)
	}
	return flows, nil
}

// specFields strips comments and splits a spec line into fields. It returns
// nil for blank or comment-only lines.
func specFields(line string) ([]string, error) {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil, nil
	}
	return fields, nil
}

// WriteCoreSpec writes the cores to w in the core specification format.
func WriteCoreSpec(w io.Writer, cores []Core) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# core <name> <width_mm> <height_mm> <x_mm> <y_mm> <layer> [mem]")
	for _, c := range cores {
		mem := ""
		if c.IsMemory {
			mem = " mem"
		}
		fmt.Fprintf(bw, "core %s %g %g %g %g %d%s\n", c.Name, c.Width, c.Height, c.X, c.Y, c.Layer, mem)
	}
	return bw.Flush()
}

// WriteCommSpec writes the flows to w in the communication specification
// format.
func WriteCommSpec(w io.Writer, g *CommGraph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# flow <src> <dst> <bandwidth_MBps> <latency_cycles> <request|response>")
	for _, f := range g.Flows {
		fmt.Fprintf(bw, "flow %s %s %g %g %s\n",
			g.Cores[f.Src].Name, g.Cores[f.Dst].Name, f.BandwidthMBps, f.LatencyCycles, f.Type)
	}
	return bw.Flush()
}

// LoadDesign parses the two specification readers and returns the validated
// communication graph.
func LoadDesign(coreSpec, commSpec io.Reader) (*CommGraph, error) {
	cores, err := ParseCoreSpec(coreSpec)
	if err != nil {
		return nil, err
	}
	flows, err := ParseCommSpec(commSpec, cores)
	if err != nil {
		return nil, err
	}
	return NewCommGraph(cores, flows)
}

// Summary returns a short human-readable description of the design, suitable
// for tool banners and logs.
func (g *CommGraph) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d cores, %d flows, %d layer(s)", g.NumCores(), g.NumFlows(), g.NumLayers())
	fmt.Fprintf(&sb, ", total bandwidth %.1f MB/s", g.TotalBandwidth())
	hist := g.LayerHistogram()
	if len(hist) > 1 {
		parts := make([]string, len(hist))
		for i, n := range hist {
			parts[i] = fmt.Sprintf("L%d:%d", i, n)
		}
		fmt.Fprintf(&sb, " [%s]", strings.Join(parts, " "))
	}
	return sb.String()
}

// FlowsByBandwidth returns the indices of all flows sorted by decreasing
// bandwidth (ties broken by flow index for determinism). The path-computation
// step routes flows in this order so that the heaviest flows get the shortest
// paths.
func (g *CommGraph) FlowsByBandwidth() []int {
	idx := make([]int, len(g.Flows))
	for i := range idx {
		idx[i] = i
	}
	// a sorts before b exactly when its bandwidth is greater; a stable sort
	// keeps every other pair in flow order.
	slices.SortStableFunc(idx, func(a, b int) int {
		switch x, y := g.Flows[a].BandwidthMBps, g.Flows[b].BandwidthMBps; {
		case x > y:
			return -1
		case x < y:
			return 1
		}
		return 0
	})
	return idx
}
