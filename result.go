package sunfloor3d

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"sunfloor3d/internal/route"
	"sunfloor3d/internal/synth"
	"sunfloor3d/internal/topology"
)

// PowerBreakdown splits the NoC power into its components, in milliwatts.
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

// LinkMW returns the total link power (switch-to-switch plus core-to-switch).
func (p PowerBreakdown) LinkMW() float64 { return p.SwitchLinkMW + p.CoreLinkMW }

// Metrics summarises a fully evaluated topology.
type Metrics struct {
	// Power is the NoC power breakdown.
	Power PowerBreakdown `json:"power"`
	// AvgLatencyCycles is the average zero-load latency over all flows.
	AvgLatencyCycles float64 `json:"avg_latency_cycles"`
	// MaxLatencyCycles is the worst zero-load latency over all flows.
	MaxLatencyCycles float64 `json:"max_latency_cycles"`
	// TotalWireLengthMM is the total planar length of all physical links.
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
	// SpareTSVMacros is the number of spare TSVs provisioned by WithSparing
	// (0 when sparing is disabled).
	SpareTSVMacros int `json:"spare_tsv_macros,omitempty"`
	// WireLengthsMM lists the planar length of every physical link.
	WireLengthsMM []float64 `json:"wire_lengths_mm,omitempty"`
}

func metricsFromInternal(m topology.Metrics) Metrics {
	return Metrics{
		Power: PowerBreakdown{
			SwitchMW:     m.Power.SwitchMW,
			SwitchLinkMW: m.Power.SwitchLinkMW,
			CoreLinkMW:   m.Power.CoreLinkMW,
			NIMW:         m.Power.NIMW,
		},
		AvgLatencyCycles:  m.AvgLatencyCycles,
		MaxLatencyCycles:  m.MaxLatencyCycles,
		TotalWireLengthMM: m.TotalWireLengthMM,
		NoCAreaMM2:        m.NoCAreaMM2,
		MaxILL:            m.MaxILL,
		TSVMacros:         m.TSVMacros,
		NumSwitches:       m.NumSwitches,
		LatencyViolations: m.LatencyViolations,
		SpareTSVMacros:    m.SpareTSVMacros,
		WireLengthsMM:     append([]float64(nil), m.WireLengthsMM...),
	}
}

// RouteStats reports what the path-computation step did for one design
// point. Routing is deterministic given the topology, so the stats are
// identical between serial, parallel, cached and uncached runs.
type RouteStats struct {
	// Routed is the number of flows that received a valid path.
	Routed int `json:"routed"`
	// FailedFlows is the number of flows that could not be routed.
	FailedFlows int `json:"failed_flows,omitempty"`
	// IndirectSwitches is the number of switches the router inserted purely
	// to connect other switches.
	IndirectSwitches int `json:"indirect_switches,omitempty"`
	// DeadlockRetries counts path recomputations forced by channel
	// dependency cycles.
	DeadlockRetries int `json:"deadlock_retries,omitempty"`
}

// DesignPoint is one explored topology with its evaluation. The scalar
// fields and Metrics survive JSON round trips; the synthesized topology
// itself is only available on points produced by a live run (Topology
// returns nil after unmarshalling).
type DesignPoint struct {
	// FreqMHz is the NoC operating frequency of this point.
	FreqMHz float64 `json:"freq_mhz"`
	// SwitchCount is the number of switches requested by the sweep.
	SwitchCount int `json:"switch_count"`
	// Phase is 1 or 2 depending on which connectivity method produced it.
	Phase int `json:"phase"`
	// Theta is the SPG scaling factor used (0 when the plain PG sufficed).
	Theta float64 `json:"theta,omitempty"`
	// Valid reports whether the point meets all constraints.
	Valid bool `json:"valid"`
	// Pruned reports that the design-space explorer proved the point cannot
	// beat an already-explored point and skipped building it; FailReason
	// names the pruning decision. Pruning is exact: a pruned run's Pareto
	// front and best point are byte-identical to the brute-force run's.
	Pruned bool `json:"pruned,omitempty"`
	// FailReason explains why an invalid point was rejected (or why a
	// pruned or shard-skipped stub was not built).
	FailReason string `json:"fail_reason,omitempty"`
	// Metrics is the evaluation of the point's topology.
	Metrics Metrics `json:"metrics"`
	// Route reports what the router did for this point.
	Route RouteStats `json:"route_stats"`
	// Survivability is the fault-replay report of the point (nil unless the
	// run used WithFaultModel and the point is valid). Unlike Sim it is part
	// of the serialised Result: the replay is deterministic and the request
	// fingerprint covers the fault and sparing configuration.
	Survivability *Survivability `json:"survivability,omitempty"`
	// Contention is the analytic M/D/1 contention estimate of the point (nil
	// unless the run used WithContention and the point is valid). Like
	// Survivability it is part of the serialised Result: the estimate is
	// byte-deterministic and the request fingerprint covers the option.
	Contention *ContentionEstimate `json:"contention,omitempty"`
	// SimTriage is the fidelity-ladder decision for the point when the run
	// used WithSimBand: "sim" for points inside the estimated Pareto band
	// (fully simulated), "skip" for points outside it (analytic estimate
	// only). Empty without WithSimBand.
	SimTriage string `json:"sim_triage,omitempty"`
	// Elapsed is the wall-clock time spent building, routing and evaluating
	// this point. It is excluded from JSON so that serialised results stay
	// byte-identical across runs, parallelism levels and cache settings.
	Elapsed time.Duration `json:"-"`
	// Sim is the flit-level traffic simulation of this point (nil unless the
	// run used WithSimulation and the point is valid). Like Elapsed it is
	// excluded from JSON so that serialised results stay byte-identical with
	// and without simulation.
	Sim *SimStats `json:"-"`
	// SimElapsed is the wall-clock time spent simulating this point (zero
	// when simulation was not requested or the point was invalid); it is the
	// number behind the CLI's per-point sim timing under -progress. Excluded
	// from JSON like Elapsed.
	SimElapsed time.Duration `json:"-"`

	topo *topology.Topology
}

func pointFromInternal(dp synth.DesignPoint) DesignPoint {
	return DesignPoint{
		FreqMHz:     dp.FreqMHz,
		SwitchCount: dp.SwitchCount,
		Phase:       dp.Phase,
		Theta:       dp.Theta,
		Valid:       dp.Valid,
		Pruned:      dp.Pruned,
		FailReason:  dp.FailReason,
		Metrics:     metricsFromInternal(dp.Metrics),
		Route: RouteStats{
			Routed:           dp.Route.Routed,
			FailedFlows:      len(dp.Route.Failed),
			IndirectSwitches: dp.Route.IndirectSwitches,
			DeadlockRetries:  dp.Route.DeadlockRetries,
		},
		Survivability: dp.Survivability,
		Contention:    dp.Contention,
		SimTriage:     dp.SimTriage,
		Elapsed:       dp.Elapsed,
		Sim:           dp.Sim,
		SimElapsed:    dp.SimElapsed,
		topo:          dp.Topology,
	}
}

// internalFromPoint is the inverse of pointFromInternal over the serialised
// fields: it rebuilds the internal design point a checkpointed public point
// came from, such that re-serialising it reproduces the original bytes.
// Execution-only fields (Elapsed, Sim, the live Topology) are gone, exactly
// like on any point that crossed a JSON boundary; Route.Failed is
// reconstructed by length only, which is all the serialisation carries.
func internalFromPoint(p DesignPoint) synth.DesignPoint {
	dp := synth.DesignPoint{
		FreqMHz:     p.FreqMHz,
		SwitchCount: p.SwitchCount,
		Phase:       p.Phase,
		Theta:       p.Theta,
		Valid:       p.Valid,
		Pruned:      p.Pruned,
		FailReason:  p.FailReason,
		Metrics: topology.Metrics{
			Power: topology.PowerBreakdown{
				SwitchMW:     p.Metrics.Power.SwitchMW,
				SwitchLinkMW: p.Metrics.Power.SwitchLinkMW,
				CoreLinkMW:   p.Metrics.Power.CoreLinkMW,
				NIMW:         p.Metrics.Power.NIMW,
			},
			AvgLatencyCycles:  p.Metrics.AvgLatencyCycles,
			MaxLatencyCycles:  p.Metrics.MaxLatencyCycles,
			TotalWireLengthMM: p.Metrics.TotalWireLengthMM,
			NoCAreaMM2:        p.Metrics.NoCAreaMM2,
			MaxILL:            p.Metrics.MaxILL,
			TSVMacros:         p.Metrics.TSVMacros,
			NumSwitches:       p.Metrics.NumSwitches,
			LatencyViolations: p.Metrics.LatencyViolations,
			SpareTSVMacros:    p.Metrics.SpareTSVMacros,
			WireLengthsMM:     append([]float64(nil), p.Metrics.WireLengthsMM...),
		},
		Route: route.Result{
			Routed:           p.Route.Routed,
			IndirectSwitches: p.Route.IndirectSwitches,
			DeadlockRetries:  p.Route.DeadlockRetries,
		},
		Survivability: p.Survivability,
		Contention:    p.Contention,
		SimTriage:     p.SimTriage,
	}
	if p.Route.FailedFlows > 0 {
		dp.Route.Failed = make([]int, p.Route.FailedFlows)
	}
	return dp
}

// Topology returns the synthesized NoC of this point, or nil when the point
// has none (some rejected points, or points restored from JSON).
func (p *DesignPoint) Topology() *Topology {
	if p.topo == nil {
		return nil
	}
	return &Topology{t: p.topo}
}

// Cost returns the scalar objective of the point under the given weights.
func (p DesignPoint) Cost(powerWeight, latencyWeight float64) float64 {
	return powerWeight*p.Metrics.Power.TotalMW() + latencyWeight*p.Metrics.AvgLatencyCycles
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
type CacheStats struct {
	// Hits is the number of lookups answered from the cache.
	Hits int
	// Misses is the number of lookups that computed their entry.
	Misses int
}

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
		out.Points[i] = pointFromInternal(r.Points[i])
		if r.Best == &r.Points[i] {
			out.BestIndex = i
		}
	}
	out.Cache = CacheStats{Hits: r.Cache.Hits, Misses: r.Cache.Misses}
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
