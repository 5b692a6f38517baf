// Package synth implements the core contribution of the paper: the
// SunFloor 3D topology-synthesis engine. For a given application (cores with
// 3-D layer assignment and floorplan positions, plus the communication
// specification) it sweeps NoC architectural parameters (operating frequency
// and switch count), establishes core-to-switch connectivity either with
// Phase 1 (min-cut partitioning of the whole-design PG, with the SPG theta
// scaling loop when the inter-layer link constraint is violated — Algorithm 1)
// or Phase 2 (layer-by-layer partitioning of per-layer LPGs — Algorithm 2),
// computes deadlock-free paths for all flows under the max_ill and
// max_switch_size constraints, places the switches, evaluates power, latency
// and area, and returns the set of valid design points together with the best
// one for the chosen objective. Running the engine on a single-layer design
// degenerates to the 2-D flow of [16], which is how the 2-D baselines of the
// paper's comparison are produced.
package synth

import (
	"fmt"
	"math"

	"sunfloor3d/internal/fault"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/partition"
	"sunfloor3d/internal/sim"
)

// Phase selects which core-to-switch connectivity method the engine may use.
type Phase int

const (
	// PhaseAuto runs Phase 1 and falls back to Phase 2 for switch counts
	// where Phase 1 cannot meet the inter-layer link constraint (the two-phase
	// strategy described in Section IV).
	PhaseAuto Phase = iota
	// Phase1Only restricts the engine to Phase 1 (cores may connect to
	// switches in any layer).
	Phase1Only
	// Phase2Only restricts the engine to Phase 2 (cores connect only to
	// switches in their own layer; links only between adjacent layers).
	Phase2Only
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseAuto:
		return "auto"
	case Phase1Only:
		return "phase1"
	case Phase2Only:
		return "phase2"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// SwitchLayerRule selects how the layer of a Phase-1 switch is derived from
// its member cores.
type SwitchLayerRule int

const (
	// LayerAverage assigns the switch to the rounded average layer of its
	// cores (Algorithm 1, step 7).
	LayerAverage SwitchLayerRule = iota
	// LayerMajority assigns the switch to the layer holding most of its cores.
	LayerMajority
)

// Options configures a synthesis run.
type Options struct {
	// Lib is the NoC component library (power/delay/area models).
	Lib noclib.Library
	// FrequenciesMHz lists the NoC operating frequencies to sweep. The best
	// design point over all frequencies is reported.
	FrequenciesMHz []float64
	// MaxILL is the maximum number of NoC links allowed across any two
	// adjacent layers (0 = unconstrained).
	MaxILL int
	// SoftILLMargin is the distance below MaxILL at which the soft threshold
	// of Algorithm 3 starts penalising new vertical links.
	SoftILLMargin int
	// Phase selects the connectivity method (see Phase).
	Phase Phase
	// Partition holds the PG/SPG/LPG construction parameters.
	Partition partition.Params
	// SwitchLayer selects the Phase-1 switch layer assignment rule.
	SwitchLayer SwitchLayerRule
	// PowerWeight and LatencyWeight define the objective used to pick the
	// best design point: PowerWeight*TotalPowerMW + LatencyWeight*AvgLatency.
	PowerWeight, LatencyWeight float64
	// RunLPPlacement runs the switch-position LP on every explored design
	// point. When false (the default used by the sweeps) only the centroid
	// estimate is used during exploration and the LP is run on the best
	// point, which is much faster and yields the same ranking in practice.
	RunLPPlacement bool
	// LPOnBest runs the LP placement on the winning design point even when
	// RunLPPlacement is false.
	LPOnBest bool
	// MaxSwitchesPerLayer caps the Phase-2 sweep (0 = up to one switch per
	// core, the full sweep of Algorithm 2).
	MaxSwitchesPerLayer int
	// RequireLatencyMet rejects design points that violate any flow latency
	// constraint.
	RequireLatencyMet bool
	// Parallelism bounds how many design points are evaluated concurrently.
	// 0 or 1 evaluates serially, n > 1 uses at most n workers, and a negative
	// value uses one worker per available CPU. Serial and parallel runs
	// produce identical Result.Points ordering and identical Best. When
	// Scheduler is set, a positive Parallelism additionally caps this run's
	// share of the shared slots; 0 or negative leaves the run bounded only by
	// the scheduler capacity.
	Parallelism int
	// Scheduler, when non-nil, makes the run draw its evaluation slots from
	// the given shared, process-wide fair-share scheduler instead of a
	// private worker pool, so many concurrent Synthesize calls multiplex a
	// fixed CPU budget instead of oversubscribing it. Scheduling never
	// affects results: a run through a contended shared scheduler is
	// byte-identical to a serial run.
	Scheduler *Scheduler
	// Weight is the fair-share weight of the run on the shared scheduler
	// (<= 0 selects 1). A run with weight 2 is granted twice the slots of a
	// weight-1 run when both are backlogged. Ignored without Scheduler.
	Weight int
	// Progress, when non-nil, receives an Event after every evaluated design
	// point. Callbacks are serialised; a slow callback stalls the sweep.
	Progress func(Event)
	// Sim, when non-nil, runs the flit-level traffic simulator on every valid
	// design point after evaluation and attaches the resulting statistics to
	// DesignPoint.Sim. Simulation runs on the same worker pool as the rest of
	// the point's evaluation and is deterministic for a fixed config, so it
	// does not perturb the ordering or identity of the returned points.
	Sim *sim.Config
	// Sparing, when non-nil, provisions spare TSVs (vertical links) and spare
	// wires (planar links) on every valid design point so the fabricated link
	// set reaches the configured target yield on the configured process. The
	// spare counts are reported in Metrics.SpareTSVMacros and consumed by the
	// fault replay (faults on spared links are absorbed without re-routing).
	Sparing *fault.SparingConfig
	// Fault, when non-nil, replays deterministic fault plans against every
	// valid design point — spares absorb what they can, stranded flows are
	// re-routed over the surviving fabricated links, and the result is
	// attached to DesignPoint.Survivability. With Sim also set, every
	// non-absorbed plan is additionally cross-validated in the flit simulator
	// (fault injection on the unrepaired topology, clean run on the repaired
	// one).
	Fault *fault.ModelConfig
	// Contend attaches the analytic M/D/1 contention estimate of
	// internal/contend to every valid design point (DesignPoint.Contention).
	// The estimate is computed from the committed routes in microseconds and
	// is byte-deterministic, so it never perturbs ordering or best-point
	// identity; it only adds data.
	Contend bool
	// SimBand, when positive, turns full simulation into a triage step (the
	// fidelity ladder): instead of simulating every valid point, only the
	// points within the given fractional band of the estimated-contention
	// Pareto front are simulated; the rest keep their analytic estimate and
	// are marked SimTriage "skip". Requires Sim and Contend. A point p is
	// skipped when some other valid point q dominates it outright (no worse
	// in power or estimated latency, strictly better in one) and clears a
	// SimBand margin in one coordinate: the exact power coordinate by a
	// plain (1+SimBand) factor, or the latency coordinate with only the
	// estimated waiting component — the part that can actually be wrong —
	// hedged by (1+SimBand) each way. The band thus keeps the whole
	// estimated front plus every near-tie, and widening it absorbs more
	// estimator error.
	SimBand float64
	// Space, when non-nil, is the N-dimensional design space to explore: the
	// cross product of its axes is enumerated in a deterministic order,
	// provably dominated regions are pruned before partitioning and routing
	// (unless Space.NoPrune), and every point — evaluated or pruned — appears
	// in Result.Points. A space with a freq_mhz axis overrides
	// FrequenciesMHz. When nil, the run is the classic sweep: the same
	// driver explores the one-axis space of FrequenciesMHz with pruning off,
	// and adds the two whole-run steps an exploration cannot apply, the sim
	// band cut over all points and the LPOnBest refinement (re-run the
	// winning cell of an exploration as a classic sweep for refined switch
	// positions).
	Space *Space
}

// DefaultOptions returns the options used throughout the paper's experiments:
// 400 MHz through 1 GHz sweep left to the caller (single 400 MHz here),
// max_ill of 25, power-dominated objective, LP placement on the best point.
func DefaultOptions() Options {
	return Options{
		Lib:               noclib.DefaultLibrary(),
		FrequenciesMHz:    []float64{400},
		MaxILL:            25,
		SoftILLMargin:     2,
		Phase:             PhaseAuto,
		Partition:         partition.DefaultParams(),
		SwitchLayer:       LayerAverage,
		PowerWeight:       1.0,
		LatencyWeight:     0.5,
		RunLPPlacement:    false,
		LPOnBest:          true,
		RequireLatencyMet: false,
	}
}

// Validate checks the option values.
func (o Options) Validate() error {
	if err := o.Lib.Validate(); err != nil {
		return err
	}
	if len(o.FrequenciesMHz) == 0 {
		return fmt.Errorf("synth: no frequencies to sweep")
	}
	// The checks below are written so that NaN fails them: NaN compares
	// false with everything, so a plain f <= 0 would let it through.
	for _, f := range o.FrequenciesMHz {
		if !(f > 0) || math.IsInf(f, 0) {
			return fmt.Errorf("synth: frequency %g is not a positive finite number", f)
		}
	}
	if o.MaxILL < 0 {
		return fmt.Errorf("synth: negative MaxILL")
	}
	if err := o.Partition.Validate(); err != nil {
		return err
	}
	for _, w := range []float64{o.PowerWeight, o.LatencyWeight} {
		if !(w >= 0) || math.IsInf(w, 0) {
			return fmt.Errorf("synth: objective weight %g is not a finite non-negative number", w)
		}
	}
	if o.PowerWeight == 0 && o.LatencyWeight == 0 {
		return fmt.Errorf("synth: objective weights are both zero")
	}
	if o.Sim != nil {
		if err := o.Sim.Validate(); err != nil {
			return err
		}
	}
	if math.IsNaN(o.SimBand) || math.IsInf(o.SimBand, 0) || o.SimBand < 0 {
		return fmt.Errorf("synth: SimBand must be a finite non-negative fraction, got %g", o.SimBand)
	}
	if o.SimBand > 0 {
		if o.Sim == nil {
			return fmt.Errorf("synth: SimBand requires Sim (there is no simulation to triage)")
		}
		if !o.Contend {
			return fmt.Errorf("synth: SimBand requires Contend (the band is cut on the contention estimate)")
		}
	}
	if o.Sparing != nil {
		if err := o.Sparing.Validate(); err != nil {
			return err
		}
	}
	if o.Fault != nil {
		if err := o.Fault.Validate(); err != nil {
			return err
		}
	}
	if o.Space != nil {
		if err := o.Space.validate(o); err != nil {
			return err
		}
	}
	return nil
}
