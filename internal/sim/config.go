// Package sim is a deterministic, seedable flit-level wormhole simulator for
// synthesized SunFloor 3D topologies. It executes a routed topology — the
// switches, the committed per-flow paths and the link pipeline stages implied
// by the switch positions — under traffic derived from the input communication
// graph, with finite virtual-channel buffers, credit-based flow control and
// per-output-port round-robin arbitration. The simulator is the dynamic
// cross-check of the analytic models: with zero contention the simulated
// head-flit latency of every flow equals Topology.FlowLatencyCycles exactly,
// and a deadlock detected by the runtime watchdog on a topology whose channel
// dependency graph is acyclic would falsify the static deadlock-freedom
// argument of internal/route.
//
// Determinism contract: for a fixed topology, Config and seed the simulation
// is fully reproducible — same injection times, same arbitration decisions,
// byte-identical Stats. The seed feeds only the bursty profile's on/off
// period draws; the uniform and hotspot profiles are rate-accumulator based
// and do not consume randomness at all.
//
// Execution core: the production engine keeps packets in an index-based
// arena with a free list, buffers flits in fixed-capacity ring buffers (the
// credit bound makes VC depth exact), resolves each packet's output port
// once per hop through dense per-switch routing tables, and makes a cycle
// cost in proportion to the output ports with work. Each output port keeps
// a request set, a bitset over its switch's (input port, VC) candidates
// holding the VCs whose buffered head flit requests the port: a bit is set
// when the head flit enters the VC and cleared on grant, and round-robin
// arbitration takes the first member at or after the last grant whose head
// is out of the link pipeline. One network-wide active-port set, in (switch,
// port) order, holds the ports that carry a packet or have a requester;
// step walks it in ascending order, the reference scan's order. Idle NIs
// are skipped, and a fully drained network fast-forwards the clock to the
// next injector event. A steady-state cycle performs no heap allocation.
// The pre-optimization stepper is kept in the package's tests
// (reference_test.go) as the equivalence oracle: the production engine must
// produce byte-identical Stats.
package sim

import (
	"fmt"
	"math"
)

// Profile selects how packet injection is derived from the flow bandwidths.
type Profile int

const (
	// Uniform injects every flow at its communication-graph bandwidth with a
	// deterministic rate accumulator (no randomness).
	Uniform Profile = iota
	// Bursty alternates exponentially distributed on/off periods per flow.
	// During a burst the flow injects at BurstFactor times its nominal rate
	// (capped at link capacity); the off periods are sized so the long-run
	// average rate still matches the communication graph.
	Bursty
	// Hotspot multiplies the rate of every flow whose destination is the
	// hottest core (the one with the highest total incoming bandwidth) by
	// HotspotFactor, leaving all other flows at their nominal rate.
	Hotspot
)

// String implements fmt.Stringer.
func (p Profile) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Bursty:
		return "bursty"
	case Hotspot:
		return "hotspot"
	default:
		return fmt.Sprintf("Profile(%d)", int(p))
	}
}

// ParseProfile converts a profile name ("uniform", "bursty", "hotspot") to a
// Profile.
func ParseProfile(s string) (Profile, error) {
	switch s {
	case "uniform":
		return Uniform, nil
	case "bursty":
		return Bursty, nil
	case "hotspot":
		return Hotspot, nil
	default:
		return Uniform, fmt.Errorf("sim: unknown profile %q (valid: uniform, bursty, hotspot)", s)
	}
}

// StatsLevel selects how much of the Stats breakdown a run collects. The
// level never changes the simulation itself — the cycle-by-cycle behaviour
// and every aggregate and per-flow number are identical at every level — it
// only controls which per-resource rows are materialised at the end of the
// run. Sweep-mode simulation (one run per valid design point) typically
// discards the per-link and per-switch tables, so skipping them removes the
// dominant share of collection cost and garbage.
type StatsLevel int

const (
	// StatsFull collects everything: aggregates, per-flow, per-link and
	// per-switch rows. It is the zero value, so existing configurations keep
	// their behaviour.
	StatsFull StatsLevel = iota
	// StatsSummary collects the aggregates and the per-flow rows only;
	// Stats.Links and Stats.Switches stay nil.
	StatsSummary
)

// Config controls one simulation run.
type Config struct {
	// Cycles is the injection horizon: flows inject packets during cycles
	// [0, Cycles).
	Cycles int
	// DrainCycles bounds how long the simulator keeps running after the
	// injection horizon to let in-flight packets reach their destinations.
	// Cycles + DrainCycles, the last cycle a run may reach, must fit an
	// int64.
	DrainCycles int
	// Seed drives the randomised parts of the injection profiles (only the
	// bursty profile draws randomness).
	Seed int64
	// Profile selects the injection profile.
	Profile Profile
	// InjectionScale multiplies every flow's nominal bandwidth (1 = simulate
	// the communication graph as specified).
	InjectionScale float64
	// PacketFlits is the number of flits per packet (head and tail included).
	PacketFlits int
	// VCs is the number of virtual channels per switch input port.
	VCs int
	// BufferFlits is the depth of each virtual-channel buffer, in flits.
	BufferFlits int
	// WatchdogCycles is the runtime deadlock horizon: if flits are buffered in
	// the network and none moves for this many consecutive cycles, the run is
	// aborted with Stats.Deadlock set.
	WatchdogCycles int
	// LivelockCycles is the livelock horizon: if flits keep moving but no
	// packet is delivered for this many consecutive cycles, the run is aborted
	// with Stats.Livelock set.
	LivelockCycles int
	// BurstFactor is the rate multiplier during a bursty-profile burst.
	BurstFactor float64
	// MeanBurstCycles is the mean length of a bursty-profile on period.
	MeanBurstCycles float64
	// HotspotFactor is the rate multiplier of hotspot-destined flows under the
	// hotspot profile.
	HotspotFactor float64
	// StatsLevel selects how much of the Stats breakdown the run collects
	// (StatsFull, the zero value, collects everything).
	StatsLevel StatsLevel
	// DeadLinks lists inter-switch links, as (from, to) switch-ID pairs, that
	// fail during the run: from cycle FaultCycle on a listed link forwards no
	// further flit (flits already in its pipeline still arrive). Listing a
	// link the topology does not have is a build error — fault plans are
	// always expressed against the committed routes. Injection and ejection
	// links cannot fail; manufacturing faults hit the switch fabric.
	DeadLinks [][2]int
	// FaultCycle is the cycle at which the DeadLinks fail (0 = dead from the
	// start of the run).
	FaultCycle int
}

// DefaultConfig returns the configuration used by the CLI and facade when the
// caller provides none: a 4000-cycle injection window with an equal drain
// budget, four-flit packets, two VCs of four flits each, and watchdog horizons
// comfortably above the deepest link pipelines.
func DefaultConfig() Config {
	return Config{
		Cycles:          4000,
		DrainCycles:     4000,
		Seed:            1,
		Profile:         Uniform,
		InjectionScale:  1.0,
		PacketFlits:     4,
		VCs:             2,
		BufferFlits:     4,
		WatchdogCycles:  500,
		LivelockCycles:  2500,
		BurstFactor:     4.0,
		MeanBurstCycles: 64,
		HotspotFactor:   2.0,
	}
}

// Validate checks the configuration ranges.
func (c Config) Validate() error {
	checks := []struct {
		ok  bool
		msg string
	}{
		{c.Cycles > 0, "Cycles must be positive"},
		{c.DrainCycles >= 0, "DrainCycles must be non-negative"},
		// The run's last cycle is int64(Cycles) + int64(DrainCycles).
		{int64(c.DrainCycles) <= math.MaxInt64-int64(c.Cycles), "Cycles + DrainCycles must not exceed MaxInt64"},
		{c.InjectionScale > 0, "InjectionScale must be positive"},
		{c.PacketFlits > 0, "PacketFlits must be positive"},
		{c.VCs > 0, "VCs must be positive"},
		{c.BufferFlits > 0, "BufferFlits must be positive"},
		{c.WatchdogCycles > 0, "WatchdogCycles must be positive"},
		{c.LivelockCycles > 0, "LivelockCycles must be positive"},
		{c.BurstFactor >= 1, "BurstFactor must be at least 1"},
		{c.MeanBurstCycles > 0, "MeanBurstCycles must be positive"},
		{c.HotspotFactor >= 1, "HotspotFactor must be at least 1"},
		// The comparisons above are false for NaN only: +Inf passes them.
		{!math.IsInf(c.InjectionScale, 0), "InjectionScale must be finite"},
		{!math.IsInf(c.BurstFactor, 0), "BurstFactor must be finite"},
		{!math.IsInf(c.MeanBurstCycles, 0), "MeanBurstCycles must be finite"},
		{!math.IsInf(c.HotspotFactor, 0), "HotspotFactor must be finite"},
		{c.FaultCycle >= 0, "FaultCycle must be non-negative"},
		{c.StatsLevel == StatsFull || c.StatsLevel == StatsSummary, "StatsLevel must be StatsFull or StatsSummary"},
	}
	for _, chk := range checks {
		if !chk.ok {
			return fmt.Errorf("sim: %s", chk.msg)
		}
	}
	return nil
}
