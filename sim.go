package sunfloor3d

import (
	"sunfloor3d/internal/sim"
)

// SimConfig configures the flit-level traffic simulator: injection horizon
// and drain budget, traffic profile, packet size, virtual channels and buffer
// depths, and the deadlock/livelock watchdog horizons. The zero value is not
// usable; start from DefaultSimConfig and override fields as needed.
//
// The simulator is deterministic: the same topology, config and seed produce
// byte-identical SimStats. Only the bursty profile consumes randomness (the
// on/off period draws); the uniform and hotspot profiles are rate-accumulator
// based and ignore the seed entirely.
type SimConfig = sim.Config

// SimStats is the outcome of simulating one design point: per-flow achieved
// latency and throughput, per-link and per-switch utilization, and the
// runtime deadlock/livelock watchdog verdict.
type SimStats = sim.Stats

// SimFlowStats, SimLinkStats and SimSwitchStats are the per-flow, per-link
// and per-switch rows of SimStats.
type (
	SimFlowStats   = sim.FlowStats
	SimLinkStats   = sim.LinkStats
	SimSwitchStats = sim.SwitchStats
)

// SimProfile selects how packet injection is derived from the flow
// bandwidths of the communication graph.
type SimProfile = sim.Profile

// SimStatsLevel selects how much of the SimStats breakdown a run collects.
// The level never changes the simulation — cycle-by-cycle behaviour and
// every aggregate and per-flow number are identical at every level — it only
// controls whether the per-link and per-switch tables are materialised.
// Sweep-mode simulation that discards those tables should use
// SimStatsSummary; it removes the dominant share of collection cost.
type SimStatsLevel = sim.StatsLevel

// Stats collection levels for SimConfig.StatsLevel.
const (
	// SimStatsFull (the zero value) collects aggregates, per-flow, per-link
	// and per-switch rows.
	SimStatsFull = sim.StatsFull
	// SimStatsSummary collects aggregates and per-flow rows only; the Links
	// and Switches tables stay nil.
	SimStatsSummary = sim.StatsSummary
)

// Injection profiles.
const (
	// SimUniform injects every flow at its nominal bandwidth with a
	// deterministic rate accumulator.
	SimUniform = sim.Uniform
	// SimBursty alternates exponentially distributed on/off periods per flow
	// while preserving each flow's long-run average rate.
	SimBursty = sim.Bursty
	// SimHotspot multiplies the rate of flows targeting the hottest core by
	// SimConfig.HotspotFactor.
	SimHotspot = sim.Hotspot
)

// DefaultSimConfig returns the simulation configuration used by the CLI when
// -simulate is given without further tuning.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// ParseSimProfile converts a profile name ("uniform", "bursty", "hotspot")
// to a SimProfile.
func ParseSimProfile(s string) (SimProfile, error) { return sim.ParseProfile(s) }

// Simulate runs the flit-level traffic simulator on the synthesized topology
// and returns the collected statistics. The topology is not modified. This
// is the building block behind WithSimulation for callers that want to
// re-simulate one topology under several traffic scenarios without re-running
// synthesis.
func (t *Topology) Simulate(cfg SimConfig) (*SimStats, error) {
	return sim.Run(t.t, cfg)
}

// ZeroLoadLatencies simulates every flow of the topology in isolation (one
// single-flit packet in an otherwise empty network) and returns the measured
// head-flit latency of each flow in cycles. The returned values equal
// the analytic zero-load model exactly; the function exists as the
// cross-validation oracle between the simulator and Metrics latencies. The
// network is built once and reset between flows, so the oracle is cheap
// enough to run inside sweeps.
func (t *Topology) ZeroLoadLatencies() ([]float64, error) {
	return sim.ZeroLoadLatencies(t.t, sim.DefaultConfig())
}
