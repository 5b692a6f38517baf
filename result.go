package sunfloor3d

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"sunfloor3d/internal/synth"
	"sunfloor3d/internal/topology"
)

// PowerBreakdown splits the NoC power into its components, in milliwatts.
type PowerBreakdown = topology.PowerBreakdown

// Metrics summarises a fully evaluated topology: power, zero-load latency,
// wire length, area, inter-layer links and TSV macros.
type Metrics = topology.Metrics

// RouteStats reports what the path-computation step did for one design
// point: flows routed and failed, indirect switches inserted and deadlock
// retries. Routing is deterministic given the topology, so the stats are
// identical between serial, parallel, cached and uncached runs.
type RouteStats = synth.RouteStats

// DesignPoint is one explored topology with its evaluation. Its fields are
// the engine's serialised point, promoted from the embedded Point (FreqMHz,
// SwitchCount, Phase, Theta, Valid, Pruned, FailReason, Metrics, Route,
// Survivability, Contention, SimTriage, and the json-excluded Elapsed, Sim
// and SimElapsed), and so is Cost. Those fields survive JSON round trips;
// the synthesized topology itself is only available on points produced by
// a live run (Topology returns nil after unmarshalling).
type DesignPoint struct {
	synth.Point
	topo *topology.Topology
}

// Topology returns the synthesized NoC of this point, or nil when the point
// has none (some rejected points, or points restored from JSON).
func (p *DesignPoint) Topology() *Topology {
	if p.topo == nil {
		return nil
	}
	return &Topology{t: p.topo}
}

// Report renders the point's metrics as "key value" lines, one metric per
// line (the format of the CLI's report.txt).
func (p *DesignPoint) Report() string {
	var b strings.Builder
	m := p.Metrics
	fmt.Fprintf(&b, "frequency_mhz %g\n", p.FreqMHz)
	fmt.Fprintf(&b, "switches %d\n", m.NumSwitches)
	fmt.Fprintf(&b, "total_power_mw %.3f\n", m.Power.TotalMW())
	fmt.Fprintf(&b, "switch_power_mw %.3f\n", m.Power.SwitchMW)
	fmt.Fprintf(&b, "switch_link_power_mw %.3f\n", m.Power.SwitchLinkMW)
	fmt.Fprintf(&b, "core_link_power_mw %.3f\n", m.Power.CoreLinkMW)
	fmt.Fprintf(&b, "ni_power_mw %.3f\n", m.Power.NIMW)
	fmt.Fprintf(&b, "avg_latency_cycles %.3f\n", m.AvgLatencyCycles)
	fmt.Fprintf(&b, "max_latency_cycles %.3f\n", m.MaxLatencyCycles)
	fmt.Fprintf(&b, "max_inter_layer_links %d\n", m.MaxILL)
	fmt.Fprintf(&b, "tsv_macros %d\n", m.TSVMacros)
	if m.SpareTSVMacros > 0 {
		fmt.Fprintf(&b, "spare_tsv_macros %d\n", m.SpareTSVMacros)
	}
	fmt.Fprintf(&b, "noc_area_mm2 %.4f\n", m.NoCAreaMM2)
	if e := p.Contention; e != nil {
		fmt.Fprintf(&b, "contention_avg_latency_cycles %.3f\n", e.AvgLatencyCycles)
		fmt.Fprintf(&b, "contention_max_latency_cycles %.3f\n", e.MaxLatencyCycles)
		fmt.Fprintf(&b, "contention_max_utilization %.4f\n", e.MaxUtilization)
		if e.SaturatedLinks > 0 {
			fmt.Fprintf(&b, "contention_saturated_links %d\n", e.SaturatedLinks)
		}
	}
	if p.SimTriage != "" {
		fmt.Fprintf(&b, "sim_triage %s\n", p.SimTriage)
	}
	if s := p.Survivability; s != nil {
		fmt.Fprintf(&b, "fault_plans %d\n", s.Plans)
		fmt.Fprintf(&b, "fault_survived_fraction %.4f\n", s.SurvivedFraction())
		fmt.Fprintf(&b, "fault_absorbed %d\n", s.Absorbed)
		fmt.Fprintf(&b, "fault_repaired %d\n", s.Repaired)
		fmt.Fprintf(&b, "fault_dead %d\n", s.Dead)
		fmt.Fprintf(&b, "fault_worst_latency_inflation %.4f\n", s.WorstLatencyInflation)
		if s.SpareTSVs > 0 || s.SpareWires > 0 {
			fmt.Fprintf(&b, "spare_utilization %.4f\n", s.SpareUtilization)
		}
	}
	return b.String()
}

// Event reports the completion of one design-point evaluation during a run.
type Event struct {
	// Done is the number of design points evaluated so far.
	Done int `json:"done"`
	// Total is the number of design points scheduled so far. It can grow
	// while the run is in progress: the theta rescaling loop and the Phase-2
	// fallback schedule additional points only when the initial sweep leaves
	// switch counts unmet.
	Total int `json:"total"`
	// Point is the design point that just finished (valid or not).
	Point DesignPoint `json:"point"`
}

// CacheStats reports the partition-cache activity of one synthesis run: how
// many PG/SPG/LPG constructions and min-cut partitions were answered from the
// sweep-wide cache versus computed. The cache is always on; these counts are
// telemetry about the run, not part of its result.
type CacheStats = synth.CacheStats

// Result is the outcome of a synthesis run.
type Result struct {
	// Points holds every explored design point (valid and invalid), ordered
	// by frequency then switch count. The ordering is deterministic and
	// independent of the parallelism used.
	Points []DesignPoint `json:"points"`
	// BestIndex is the index into Points of the valid point with the lowest
	// objective, or -1 when no valid point exists.
	BestIndex int `json:"best_index"`
	// Cache reports the partition-cache activity of the run. It is excluded
	// from JSON because it describes how the run was computed, not what it
	// found; a Result restored from its serialised form (a design-point cache
	// hit or a daemon response) reports zero counts.
	Cache CacheStats `json:"-"`
}

func resultFromInternal(r *synth.Result) *Result {
	out := &Result{Points: make([]DesignPoint, len(r.Points)), BestIndex: -1}
	for i := range r.Points {
		// Best aliases an element of Points, so any LP refinement of the
		// winning point is already reflected in the slice element.
		out.Points[i] = DesignPoint{Point: r.Points[i].Point, topo: r.Points[i].Topology}
		if r.Best == &r.Points[i] {
			out.BestIndex = i
		}
	}
	out.Cache = r.Cache
	return out
}

// Best returns the best valid design point, or nil when no valid point
// exists.
func (r *Result) Best() *DesignPoint {
	if r.BestIndex < 0 || r.BestIndex >= len(r.Points) {
		return nil
	}
	return &r.Points[r.BestIndex]
}

// ValidPoints returns only the valid design points.
func (r *Result) ValidPoints() []DesignPoint {
	var out []DesignPoint
	for _, p := range r.Points {
		if p.Valid {
			out = append(out, p)
		}
	}
	return out
}

// ParetoFront returns the valid points that are not dominated in
// (power, latency) by any other valid point, sorted by power.
func (r *Result) ParetoFront() []DesignPoint {
	valid := r.ValidPoints()
	power := make([]float64, len(valid))
	latency := make([]float64, len(valid))
	for i, p := range valid {
		power[i] = p.Metrics.Power.TotalMW()
		latency[i] = p.Metrics.AvgLatencyCycles
	}
	idx := synth.ParetoIndices(power, latency)
	front := make([]DesignPoint, len(idx))
	for i, j := range idx {
		front[i] = valid[j]
	}
	return front
}

// Text renders a human-readable summary of the run: point counts, the best
// point, and the power/latency trade-off curve.
func (r *Result) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "explored %d design points, %d valid\n", len(r.Points), len(r.ValidPoints()))
	best := r.Best()
	if best == nil {
		b.WriteString("no valid topology meets the constraints\n")
		return b.String()
	}
	fmt.Fprintf(&b, "best point: %d switches at %.0f MHz, %.2f mW, %.2f cycles avg latency, %d inter-layer links\n",
		best.Metrics.NumSwitches, best.FreqMHz, best.Metrics.Power.TotalMW(),
		best.Metrics.AvgLatencyCycles, best.Metrics.MaxILL)
	front := r.ParetoFront()
	if len(front) > 1 {
		b.WriteString("power/latency trade-off:\n")
		for _, p := range front {
			fmt.Fprintf(&b, "  %3d switches @ %4.0f MHz: %8.2f mW  %6.2f cycles\n",
				p.Metrics.NumSwitches, p.FreqMHz, p.Metrics.Power.TotalMW(), p.Metrics.AvgLatencyCycles)
		}
	}
	return b.String()
}

// WriteJSON writes the result as indented JSON. The serialisation is
// canonical: for equal inputs the engine produces byte-identical output
// regardless of parallelism, caching, progress callbacks or the scheduler
// used, which is what makes results content-addressable (see Fingerprint).
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// MarshalStable returns exactly the bytes WriteJSON would write: the
// canonical serialisation stored by the design-point cache and served by
// sunfloor-server.
func (r *Result) MarshalStable() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReadResult parses a serialised Result (the WriteJSON format, as stored in
// the design-point cache or returned by a sunfloor-server result fetch).
// Restored points carry their scalar fields and Metrics but no live
// Topology, exactly like any other Result that crossed a JSON boundary.
func ReadResult(r io.Reader) (*Result, error) {
	dec := json.NewDecoder(r)
	var res Result
	if err := dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("sunfloor3d: parsing serialised result: %w", err)
	}
	return &res, nil
}
