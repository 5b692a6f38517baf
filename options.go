package sunfloor3d

import (
	"fmt"

	"sunfloor3d/internal/contend"
	"sunfloor3d/internal/fault"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/synth"
)

// Phase selects which core-to-switch connectivity method the engine may use.
type Phase = synth.Phase

// Connectivity methods.
const (
	// PhaseAuto runs Phase 1 and falls back to Phase 2 for switch counts
	// where Phase 1 cannot meet the inter-layer link constraint.
	PhaseAuto = synth.PhaseAuto
	// Phase1Only restricts the engine to Phase 1 (cores may connect to
	// switches in any layer).
	Phase1Only = synth.Phase1Only
	// Phase2Only restricts the engine to Phase 2 (cores connect only to
	// switches in their own layer; links only between adjacent layers).
	Phase2Only = synth.Phase2Only
)

// ParsePhase converts a phase name ("auto", "phase1", "phase2") to a Phase.
func ParsePhase(s string) (Phase, error) {
	switch s {
	case "auto":
		return PhaseAuto, nil
	case "phase1":
		return Phase1Only, nil
	case "phase2":
		return Phase2Only, nil
	default:
		return PhaseAuto, fmt.Errorf("sunfloor3d: unknown phase %q (valid: auto, phase1, phase2)", s)
	}
}

// SwitchLayerRule selects how the layer of a Phase-1 switch is derived from
// its member cores.
type SwitchLayerRule = synth.SwitchLayerRule

// Switch layer assignment rules.
const (
	// LayerAverage assigns the switch to the rounded average layer of its
	// cores.
	LayerAverage = synth.LayerAverage
	// LayerMajority assigns the switch to the layer holding most of its
	// cores.
	LayerMajority = synth.LayerMajority
)

// Library is the NoC component library: switch/link/TSV power, delay and
// area models.
type Library = noclib.Library

// DefaultLibrary returns the component library used throughout the paper's
// experiments.
func DefaultLibrary() Library { return noclib.DefaultLibrary() }

// Process is a 3-D integration process with its TSV yield model.
type Process = noclib.Process

// StandardProcesses returns the processes of the paper's yield study
// (Fig. 1).
func StandardProcesses() []Process { return noclib.StandardProcesses() }

// ProcessByName returns the standard process with the given name (see
// StandardProcesses).
func ProcessByName(name string) (Process, error) {
	for _, p := range noclib.StandardProcesses() {
		if p.Name == name {
			return p, nil
		}
	}
	return Process{}, fmt.Errorf("sunfloor3d: unknown process %q (valid: wafer-level-A, wafer-level-B, die-to-wafer)", name)
}

// Axis is one dimension of an exploration Space: a named parameter and the
// ordered values to sweep (see the Axis* constants).
type Axis = synth.Axis

// Space is an N-dimensional design space for the explorer (WithSpace): the
// cross product of its axes, enumerated deterministically, with exact
// dominated-region pruning unless NoPrune is set.
type Space = synth.Space

// Axis names accepted by Space.
const (
	// AxisFreqMHz sweeps the NoC operating frequency (replaces
	// WithFrequenciesMHz as the frequency dimension when present).
	AxisFreqMHz = synth.AxisFreqMHz
	// AxisSwitchCount restricts the switch-count sweep to the listed counts.
	AxisSwitchCount = synth.AxisSwitchCount
	// AxisVCs sweeps the simulator virtual-channel count (needs
	// WithSimulation).
	AxisVCs = synth.AxisVCs
	// AxisLinkWidthBits sweeps the library link width.
	AxisLinkWidthBits = synth.AxisLinkWidthBits
	// AxisLayerCount sweeps the stacking depth: each value L folds the design
	// onto L layers (core layer mod L, planar positions kept) before
	// synthesis, so one exploration compares 3-D depths down to the L=1
	// 2-D baseline.
	AxisLayerCount = synth.AxisLayerCount
	// AxisTSVBudget sweeps a hard cap on the TSV macro count; points needing
	// more TSV macros than the budget are invalid.
	AxisTSVBudget = synth.AxisTSVBudget
)

// config collects the effect of the functional options of a run.
type config struct {
	opt        synth.Options
	progress   func(Event)
	checkpoint string
	// shard records a WithShard call, so that a count below 1 is rejected
	// instead of reading as "no shard".
	shard      bool
	shardIndex int
	shardCount int
}

// validate checks the cross-option constraints the synth layer cannot see.
func (c *config) validate() error {
	if err := c.opt.Validate(); err != nil {
		return err
	}
	if c.shard {
		if c.shardCount < 1 {
			return fmt.Errorf("sunfloor3d: shard count %d is below 1", c.shardCount)
		}
		if c.opt.Space == nil {
			return fmt.Errorf("sunfloor3d: WithShard requires WithSpace")
		}
		if c.shardIndex < 0 || c.shardIndex >= c.shardCount {
			return fmt.Errorf("sunfloor3d: shard index %d out of range [0, %d)", c.shardIndex, c.shardCount)
		}
	}
	if c.checkpoint != "" && c.opt.Space == nil {
		return fmt.Errorf("sunfloor3d: WithCheckpoint requires WithSpace")
	}
	return nil
}

func defaultConfig() config {
	return config{opt: synth.DefaultOptions()}
}

// Option configures a synthesis run. Options are applied in order; later
// options override earlier ones. Options are created with the With*
// constructors in this package.
type Option func(*config)

// WithFrequenciesMHz sets the NoC operating frequencies to sweep. The best
// design point over all frequencies is reported.
func WithFrequenciesMHz(freqs ...float64) Option {
	return func(c *config) { c.opt.FrequenciesMHz = append([]float64(nil), freqs...) }
}

// WithMaxILL sets the maximum number of NoC links allowed across any two
// adjacent layers (0 = unconstrained).
func WithMaxILL(n int) Option {
	return func(c *config) { c.opt.MaxILL = n }
}

// WithSoftILLMargin sets the distance below the max-ILL constraint at which
// the router starts penalising new vertical links.
func WithSoftILLMargin(n int) Option {
	return func(c *config) { c.opt.SoftILLMargin = n }
}

// WithPhase selects the connectivity method.
func WithPhase(p Phase) Option {
	return func(c *config) { c.opt.Phase = p }
}

// WithObjective sets the weights of the scalar objective used to pick the
// best design point: powerWeight*TotalPowerMW + latencyWeight*AvgLatency.
func WithObjective(powerWeight, latencyWeight float64) Option {
	return func(c *config) {
		c.opt.PowerWeight = powerWeight
		c.opt.LatencyWeight = latencyWeight
	}
}

// WithAlpha sets the bandwidth/latency weight of the partitioning graphs
// (1 = bandwidth only, 0 = latency only).
func WithAlpha(alpha float64) Option {
	return func(c *config) { c.opt.Partition.Alpha = alpha }
}

// WithParallelism bounds how many design points are evaluated concurrently.
// 0 or 1 evaluates serially, n > 1 uses at most n workers, and a negative
// value uses one worker per available CPU. Serial and parallel runs produce
// identical Result.Points ordering and an identical best point.
func WithParallelism(n int) Option {
	return func(c *config) { c.opt.Parallelism = n }
}

// WithProgress registers a callback that receives an Event after every
// evaluated design point. Within one Synthesize call, callbacks are
// serialised (never invoked concurrently) and a slow callback stalls the
// sweep. Concurrent Synthesize calls on a shared Engine invoke the callback
// independently, so a callback shared across runs must be safe for
// concurrent use.
func WithProgress(fn func(Event)) Option {
	return func(c *config) { c.progress = fn }
}

// WithLibrary replaces the NoC component library.
func WithLibrary(lib Library) Option {
	return func(c *config) { c.opt.Lib = lib }
}

// WithSwitchLayerRule selects the Phase-1 switch layer assignment rule.
func WithSwitchLayerRule(r SwitchLayerRule) Option {
	return func(c *config) { c.opt.SwitchLayer = r }
}

// WithMaxSwitchesPerLayer caps the Phase-2 sweep (0 = up to one switch per
// core, the full sweep of Algorithm 2).
func WithMaxSwitchesPerLayer(n int) Option {
	return func(c *config) { c.opt.MaxSwitchesPerLayer = n }
}

// WithLPPlacement runs the switch-position LP on every explored design point
// instead of only on the best one. Slower, but exact positions for every
// point.
func WithLPPlacement(everyPoint bool) Option {
	return func(c *config) {
		c.opt.RunLPPlacement = everyPoint
		c.opt.LPOnBest = !everyPoint
	}
}

// WithRequireLatencyMet rejects design points that violate any flow latency
// constraint.
func WithRequireLatencyMet(require bool) Option {
	return func(c *config) { c.opt.RequireLatencyMet = require }
}

// Scheduler is a process-wide, fair-share admission controller for
// design-point evaluations. Without one, every Synthesize call runs on its
// own bounded worker pool, so N concurrent calls can oversubscribe the CPU
// N-fold; runs attached to a shared Scheduler (see WithScheduler) draw from
// one fixed slot budget instead, with backlogged runs served proportionally
// to their fair-share weights (stride scheduling). sunfloor-server creates
// one Scheduler per process and attaches every request to it.
type Scheduler = synth.Scheduler

// SchedulerStats is a snapshot of a shared scheduler's occupancy: its slot
// capacity, registered runs, held slots and blocked evaluations.
type SchedulerStats = synth.SchedStats

// NewScheduler returns a shared scheduler with the given number of
// evaluation slots. A non-positive capacity selects one slot per available
// CPU.
func NewScheduler(capacity int) *Scheduler { return synth.NewScheduler(capacity) }

// WithScheduler attaches the run to a shared process-wide scheduler. The
// run's design points then compete for the scheduler's slots instead of
// spawning a private pool; a positive WithParallelism value additionally
// caps this run's share. Scheduling never affects results: a run through a
// contended shared scheduler returns a byte-identical Result to a serial
// run.
func WithScheduler(s *Scheduler) Option {
	return func(c *config) { c.opt.Scheduler = s }
}

// WithFairShareWeight sets the run's weight on the shared scheduler (<= 0
// selects 1): when several runs are backlogged, each is granted slots in
// proportion to its weight. Without WithScheduler the weight is ignored.
func WithFairShareWeight(w int) Option {
	return func(c *config) { c.opt.Weight = w }
}

// WithSpace makes the run an exploration of the given N-dimensional design
// space. The engine has one sweep driver: a classic run without WithSpace
// is the exploration of the one-axis space of WithFrequenciesMHz, every
// switch count swept, with pruning off. Points are enumerated in a
// deterministic order (frequency, then layer count, then TSV budget, then
// VC count, then link width, with the switch-count sweep innermost);
// provably dominated regions are pruned before partitioning and routing
// unless Space.NoPrune is set, and every pruned point appears in
// Result.Points as a stub with DesignPoint.Pruned and a FailReason naming
// the decision. Pruning is exact: the Pareto front and the best point are
// byte-identical to the brute-force enumeration of the same space.
//
// A classic sweep adds two steps over the whole run that an exploration
// cannot apply: it cuts the WithSimBand band over all points, and it runs
// the switch-position LP on the best point (unless WithLPPlacement(true)
// already ran it on every point). An exploration cuts the band per cell
// and never refines, because a cell must be final when it is checkpointed
// for computed, restored and shard-merged cells to stay byte-identical;
// re-run the winning configuration as a classic sweep when refined switch
// positions are needed.
func WithSpace(s Space) Option {
	return func(c *config) {
		sc := Space{Axes: make([]Axis, len(s.Axes)), NoPrune: s.NoPrune}
		for i, a := range s.Axes {
			sc.Axes[i] = Axis{Name: a.Name, Values: append([]float64(nil), a.Values...)}
		}
		c.opt.Space = &sc
	}
}

// WithCheckpoint makes an explorer run resumable: every finished exploration
// cell is appended to the JSON-lines file at path (one atomic line per
// cell), keyed by the request's Fingerprint, and a later run with the same
// design, options and checkpoint restores the finished cells instead of
// recomputing them. A resumed run returns a Result byte-identical to an
// uninterrupted one. Checkpoint files of different shards of the same
// request can be concatenated and restored together, which makes shard
// merges exact. Resuming with a checkpoint written by a different request
// fails rather than mixing results. Requires WithSpace.
func WithCheckpoint(path string) Option {
	return func(c *config) { c.checkpoint = path }
}

// WithShard(i, n) makes the run evaluate only the exploration cells c with
// c % n == i (plus the witness cell 0 that pruning needs everywhere);
// all other cells appear in the result as skipped stubs. Running every
// shard 0..n-1 with per-shard checkpoints and then re-running unsharded
// against the concatenated checkpoint yields the exact unsharded Result.
// A sharded run's Result is partial — do not cache it under the request
// fingerprint. Requires WithSpace.
func WithShard(index, count int) Option {
	return func(c *config) {
		c.shard = true
		c.shardIndex = index
		c.shardCount = count
	}
}

// WithSimulation runs the flit-level traffic simulator on every valid design
// point and attaches the resulting SimStats to DesignPoint.Sim. The simulator
// replays the committed per-flow routes with wormhole switching, finite VC
// buffers and the configured injection profile; it is deterministic for a
// fixed config and seed, so it does not perturb the ordering or identity of
// the returned points. Like Elapsed and Cache, SimStats is excluded from the
// JSON serialisation of a Result, which stays byte-identical with and without
// simulation enabled.
//
// Sweeps that only read the aggregate and per-flow numbers should set
// cfg.StatsLevel to SimStatsSummary: it skips the per-link/per-switch tables
// each run would otherwise materialise and discard, without changing any
// simulated number (see SimStatsLevel).
func WithSimulation(cfg SimConfig) Option {
	return func(c *config) { c.opt.Sim = &cfg }
}

// ContentionEstimate is the analytic M/D/1 contention estimate attached to
// valid design points by WithContention: per-link utilizations derived from
// the committed routes and flow bandwidths, an estimated per-flow latency of
// zero-load latency plus per-hop queueing waits, and an explicit saturated-
// link count. All fields are finite by construction (saturation is clamped
// and flagged, never propagated as Inf), and the estimate is byte-
// deterministic, so it serialises identically across serial, parallel,
// cached, checkpointed and sharded runs.
type ContentionEstimate = contend.Estimate

// WithContention attaches a ContentionEstimate to every valid design point
// (DesignPoint.Contention, serialised under "contention"). The estimate
// costs microseconds per point — orders of magnitude below flit-level
// simulation — and is the cheap rung of the fidelity ladder: combine it with
// WithSimulation and WithSimBand to run full simulation only on the
// estimated Pareto band. It also sharpens the explorer's branch-and-bound
// bound (witnesses qualify on estimated rather than zero-load latency).
func WithContention() Option {
	return func(c *config) { c.opt.Contend = true }
}

// WithSimBand turns full simulation into a triage step (the fidelity
// ladder): instead of simulating every valid point, only points within frac
// of the estimated-contention Pareto front are simulated (SimTriage "sim");
// the rest keep their analytic estimate (SimTriage "skip"). A point is
// skipped only when another valid point dominates it outright and clears a
// frac margin in one coordinate — a (1+frac) factor on the exact power
// coordinate, or a latency win that survives hedging the estimated waiting
// components (the only part the estimator can get wrong) by (1+frac) each
// way — so every point on the estimated front and every near-tie is always
// simulated, and larger fractions absorb more estimator error. Requires
// WithContention and
// WithSimulation; composable with WithSpace (the band is then cut per
// exploration cell, so checkpointed and sharded cells stay final and
// exactly mergeable). Triage decisions are deterministic and flow through
// progress events, the server stream and checkpoint records.
func WithSimBand(frac float64) Option {
	return func(c *config) { c.opt.SimBand = frac }
}

// FaultModelConfig configures the fault-injection replay of WithFaultModel:
// how many fault plans to draw, how many links fail per plan, the sampling
// seed, the exhaustive-enumeration threshold and the simulated fault cycle.
type FaultModelConfig = fault.ModelConfig

// DefaultFaultModelConfig returns the replay configuration the CLI uses for
// -faults: 16 single-fault plans with exhaustive single-fault enumeration on
// designs of up to 24 inter-switch links.
func DefaultFaultModelConfig() FaultModelConfig { return fault.DefaultModelConfig() }

// Survivability is the per-point fault report of WithFaultModel: how many
// plans the design survived (absorbed by spares or repaired by re-routing),
// how many are certified dead, the worst latency inflation among repairs and
// the spare utilization.
type Survivability = fault.Survivability

// WithSparing provisions spare TSVs (on vertical links) and spare wires (on
// planar links) on every valid design point, sized so the fabricated
// inter-switch link set reaches targetYield on the given manufacturing
// process (the per-link spare count is the smallest whose binomial survival
// probability meets the evenly-split per-link target). The spare TSV count is
// reported in Metrics.SpareTSVMacros, and the fault replay of WithFaultModel
// absorbs faults on spared links without re-routing. Sizing is deterministic:
// equal inputs provision byte-identical spare plans.
func WithSparing(proc Process, targetYield float64) Option {
	return func(c *config) {
		c.opt.Sparing = &fault.SparingConfig{Process: proc, TargetYield: targetYield}
	}
}

// WithFaultModel replays deterministic link-fault plans against every valid
// design point and attaches the resulting Survivability report to
// DesignPoint.Survivability (serialised under "survivability"). Plans are
// either the exhaustive single-fault enumeration (small designs) or a
// seed-deterministic weighted random sample; each plan ends absorbed (a
// spare masked every fault), repaired (stranded flows re-routed
// deadlock-free over the surviving links) or certified dead (some flow
// provably has no surviving path). Combined with WithSimulation, every
// non-absorbed plan is additionally cross-validated in the flit simulator —
// faults are injected into the unrepaired topology at cfg.FaultCycle, and
// the repaired topology must run without tripping the deadlock watchdog;
// those counters are the one place the simulation reaches the serialised
// Result, and the request fingerprint covers the simulation config, so the
// cache stays sound. The replay is fully deterministic: equal inputs produce
// byte-identical reports across serial, parallel, cached and uncached runs.
func WithFaultModel(cfg FaultModelConfig) Option {
	return func(c *config) { c.opt.Fault = &cfg }
}
