package sim_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"sunfloor3d/internal/bench"
	"sunfloor3d/internal/model"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/route"
	"sunfloor3d/internal/sim"
	"sunfloor3d/internal/synth"
	"sunfloor3d/internal/topology"
)

// testDesign is an 8-core, 2-layer design that synthesizes quickly.
func testDesign(t *testing.T) *model.CommGraph {
	t.Helper()
	var cores []model.Core
	for l := 0; l < 2; l++ {
		for i := 0; i < 4; i++ {
			cores = append(cores, model.Core{
				Name:  "c" + string(rune('0'+l)) + string(rune('0'+i)),
				Width: 1.5, Height: 1.5, X: float64(i) * 1.8, Y: float64(l) * 0.1, Layer: l,
			})
		}
	}
	flows := []model.Flow{
		{Src: 0, Dst: 4, BandwidthMBps: 800, LatencyCycles: 4},
		{Src: 1, Dst: 5, BandwidthMBps: 700, LatencyCycles: 4},
		{Src: 2, Dst: 6, BandwidthMBps: 750, LatencyCycles: 4},
		{Src: 3, Dst: 7, BandwidthMBps: 650, LatencyCycles: 4},
		{Src: 0, Dst: 1, BandwidthMBps: 100, LatencyCycles: 8},
		{Src: 1, Dst: 2, BandwidthMBps: 120, LatencyCycles: 8},
		{Src: 4, Dst: 5, BandwidthMBps: 90, LatencyCycles: 8},
		{Src: 6, Dst: 7, BandwidthMBps: 110, LatencyCycles: 8},
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// synthBest synthesizes the design and returns the best point's topology.
func synthBest(t *testing.T, g *model.CommGraph) *topology.Topology {
	t.Helper()
	opt := synth.DefaultOptions()
	opt.MaxILL = 10
	res, err := synth.Synthesize(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Best.Topology == nil {
		t.Fatal("no valid design point")
	}
	return res.Best.Topology
}

// TestZeroLoadMatchesAnalytic is the sim-vs-analytic equivalence detector of
// the cross-validation contract: for every flow of every benchmark's best
// design point, the simulated zero-contention head-flit latency must equal
// Topology.FlowLatencyCycles exactly.
func TestZeroLoadMatchesAnalytic(t *testing.T) {
	tops := []*topology.Topology{synthBest(t, testDesign(t))}
	for _, b := range bench.All(1) {
		opt := synth.DefaultOptions()
		res, err := synth.Synthesize(b.Graph3D, opt)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if res.Best == nil {
			t.Fatalf("%s: no valid point", b.Name)
		}
		tops = append(tops, res.Best.Topology)
	}
	for i, top := range tops {
		lats, err := sim.ZeroLoadLatencies(top, sim.DefaultConfig())
		if err != nil {
			t.Fatalf("topology %d: %v", i, err)
		}
		for f := range lats {
			if want := top.FlowLatencyCycles(f); lats[f] != want {
				t.Errorf("topology %d flow %d: simulated zero-load latency %v, analytic %v",
					i, f, lats[f], want)
			}
		}
	}
}

// TestZeroLoadEveryValidPoint runs the same equivalence check over every
// valid point of one benchmark sweep, not just the winner.
func TestZeroLoadEveryValidPoint(t *testing.T) {
	b := bench.ByNameMust("D_26_media", 1)
	opt := synth.DefaultOptions()
	res, err := synth.Synthesize(b.Graph3D, opt)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, p := range res.Points {
		if !p.Valid || p.Topology == nil {
			continue
		}
		lats, err := sim.ZeroLoadLatencies(p.Topology, sim.DefaultConfig())
		if err != nil {
			t.Fatalf("point with %d switches: %v", p.SwitchCount, err)
		}
		for f := range lats {
			if want := p.Topology.FlowLatencyCycles(f); lats[f] != want {
				t.Fatalf("point with %d switches, flow %d: simulated %v, analytic %v",
					p.SwitchCount, f, lats[f], want)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no valid points checked")
	}
}

// TestDeterminism checks the byte-identical reproducibility contract for all
// three injection profiles.
func TestDeterminism(t *testing.T) {
	top := synthBest(t, testDesign(t))
	for _, profile := range []sim.Profile{sim.Uniform, sim.Bursty, sim.Hotspot} {
		cfg := sim.DefaultConfig()
		cfg.Profile = profile
		cfg.Cycles = 1500
		cfg.DrainCycles = 1500
		cfg.Seed = 42
		a, err := sim.Run(top, cfg)
		if err != nil {
			t.Fatalf("%v: %v", profile, err)
		}
		b, err := sim.Run(top, cfg)
		if err != nil {
			t.Fatalf("%v: %v", profile, err)
		}
		aj, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		bj, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(aj, bj) {
			t.Errorf("%v: repeated runs differ:\n%s\n%s", profile, aj, bj)
		}
		if a.PacketsInjected == 0 {
			t.Errorf("%v: no packets injected", profile)
		}
	}
}

// TestNoDeadlockOnAcyclicCDG cross-validates the static deadlock check
// dynamically: every synthesized point has an acyclic CDG, and simulating it
// under every profile must not trip the runtime watchdog.
func TestNoDeadlockOnAcyclicCDG(t *testing.T) {
	tops := []*topology.Topology{synthBest(t, testDesign(t))}
	for _, name := range []string{"D_26_media", "D_36_4", "D_38_tvopd"} {
		b := bench.ByNameMust(name, 1)
		opt := synth.DefaultOptions()
		res, err := synth.Synthesize(b.Graph3D, opt)
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, res.Best.Topology)
	}
	for i, top := range tops {
		if !route.DeadlockFree(top) {
			t.Fatalf("topology %d: synthesized routes have a cyclic CDG", i)
		}
		for _, profile := range []sim.Profile{sim.Uniform, sim.Bursty, sim.Hotspot} {
			cfg := sim.DefaultConfig()
			cfg.Profile = profile
			cfg.Cycles = 2000
			cfg.DrainCycles = 2000
			st, err := sim.Run(top, cfg)
			if err != nil {
				t.Fatalf("topology %d %v: %v", i, profile, err)
			}
			if st.Deadlock {
				t.Errorf("topology %d %v: simulated deadlock on a CDG-acyclic design (cycle %d)",
					i, profile, st.DeadlockCycle)
			}
			if st.Livelock {
				t.Errorf("topology %d %v: simulated livelock", i, profile)
			}
			if st.PacketsDelivered == 0 {
				t.Errorf("topology %d %v: nothing delivered", i, profile)
			}
		}
	}
}

// deadlockRing builds a 4-switch ring whose routes form a cyclic CDG: flow i
// travels two hops clockwise, so link (i, i+1) always waits on (i+1, i+2).
func deadlockRing(t *testing.T) *topology.Topology {
	t.Helper()
	cores := make([]model.Core, 4)
	for i := range cores {
		cores[i] = model.Core{
			Name: "c" + string(rune('0'+i)), Width: 1, Height: 1,
			X: float64(i%2) * 6, Y: float64(i/2) * 6,
		}
	}
	// Ring order 0 -> 1 -> 3 -> 2 -> 0 keeps consecutive switches adjacent.
	// Flow i enters at ring position i and travels two hops clockwise, so
	// every ring link waits on the next one: a cyclic CDG.
	ring := []int{0, 1, 3, 2}
	flows := make([]model.Flow, 4)
	for i := range flows {
		flows[i] = model.Flow{Src: ring[i], Dst: ring[(i+2)%4], BandwidthMBps: 1600}
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	top := topology.New(g, noclib.DefaultLibrary(), 400)
	for i := 0; i < 4; i++ {
		top.AddSwitch(0)
		top.AttachCore(i, i)
		top.Switches[i].Pos = cores[i].Center()
	}
	for f := range flows {
		top.SetRoute(f, []int{ring[f], ring[(f+1)%4], ring[(f+2)%4]})
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	return top
}

// TestWatchdogDetectsDeadlock checks the other direction of the
// cross-validation: routes with a cyclic CDG must both fail the static check
// and trip the simulator's runtime deadlock watchdog under saturating load.
func TestWatchdogDetectsDeadlock(t *testing.T) {
	top := deadlockRing(t)
	if route.DeadlockFree(top) {
		t.Fatal("ring routes should have a cyclic CDG")
	}
	cfg := sim.DefaultConfig()
	cfg.Cycles = 3000
	cfg.DrainCycles = 3000
	cfg.PacketFlits = 8
	cfg.VCs = 1
	cfg.BufferFlits = 2
	cfg.WatchdogCycles = 200
	st, err := sim.Run(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Deadlock {
		t.Fatalf("saturated cyclic-CDG ring did not deadlock: %+v", st)
	}
	if st.DeadlockCycle <= 0 || st.DeadlockCycle >= int64(cfg.Cycles+cfg.DrainCycles) {
		t.Errorf("deadlock cycle %d outside run", st.DeadlockCycle)
	}
}

// partialDeadlockTopology builds the 4-switch ring of deadlockRing plus an
// independent live flow on two extra switches: the ring wedges while the
// extra flow keeps the global movement counter alive.
func partialDeadlockTopology(t *testing.T) *topology.Topology {
	t.Helper()
	cores := make([]model.Core, 6)
	for i := range cores {
		cores[i] = model.Core{
			Name: "c" + string(rune('0'+i)), Width: 1, Height: 1,
			X: float64(i%3) * 6, Y: float64(i/3) * 6,
		}
	}
	ring := []int{0, 1, 3, 2}
	flows := make([]model.Flow, 4)
	for i := range flows {
		flows[i] = model.Flow{Src: ring[i], Dst: ring[(i+2)%4], BandwidthMBps: 1600}
	}
	flows = append(flows, model.Flow{Src: 4, Dst: 5, BandwidthMBps: 200})
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	top := topology.New(g, noclib.DefaultLibrary(), 400)
	for i := 0; i < 6; i++ {
		top.AddSwitch(0)
		top.AttachCore(i, i)
		top.Switches[i].Pos = cores[i].Center()
	}
	for f := 0; f < 4; f++ {
		top.SetRoute(f, []int{ring[f], ring[(f+1)%4], ring[(f+2)%4]})
	}
	top.SetRoute(4, []int{4, 5})
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	return top
}

// TestWatchdogDetectsPartialDeadlock checks that a wedged subnetwork is
// detected even while unrelated traffic keeps flowing: the global-stall
// watchdog never fires (flits keep moving on the healthy pair of switches),
// so only the circular-wait detector can see the dead ring.
func TestWatchdogDetectsPartialDeadlock(t *testing.T) {
	top := partialDeadlockTopology(t)
	if route.DeadlockFree(top) {
		t.Fatal("ring routes should have a cyclic CDG")
	}
	cfg := sim.DefaultConfig()
	cfg.Cycles = 4000
	cfg.DrainCycles = 4000
	cfg.PacketFlits = 8
	cfg.VCs = 1
	cfg.BufferFlits = 2
	cfg.WatchdogCycles = 200
	st, err := sim.Run(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Deadlock {
		t.Fatalf("partial deadlock not detected: %+v", st)
	}
	// The independent flow must have made progress before the abort,
	// proving the global-stall watchdog alone could not have fired.
	if st.Flows[4].PacketsDelivered == 0 {
		t.Error("independent flow delivered nothing; the scenario did not exercise partial deadlock")
	}
}

// TestLowLoadDeliversEverything checks conservation and throughput at a load
// the network can sustain: every injected packet is delivered and the
// achieved bandwidth tracks the offered bandwidth.
func TestLowLoadDeliversEverything(t *testing.T) {
	top := synthBest(t, testDesign(t))
	cfg := sim.DefaultConfig()
	cfg.InjectionScale = 0.05
	cfg.Cycles = 2000
	cfg.DrainCycles = 2000
	st, err := sim.Run(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.PacketsInjected == 0 {
		t.Fatal("no packets injected at 5% load")
	}
	if st.PacketsDelivered != st.PacketsInjected {
		t.Fatalf("delivered %d of %d packets at 5%% load", st.PacketsDelivered, st.PacketsInjected)
	}
	if st.FlitsInFlight != 0 || st.SourceBacklogPackets != 0 {
		t.Fatalf("network not drained: %d flits, %d backlog", st.FlitsInFlight, st.SourceBacklogPackets)
	}
	for _, f := range st.Flows {
		if f.FlitsInjected != f.FlitsDelivered {
			t.Errorf("flow %d: %d flits injected, %d delivered", f.Flow, f.FlitsInjected, f.FlitsDelivered)
		}
		if f.PacketsDelivered > 0 && f.MinLatencyCycles < top.FlowLatencyCycles(f.Flow) {
			t.Errorf("flow %d: min latency %v below zero-load latency %v",
				f.Flow, f.MinLatencyCycles, top.FlowLatencyCycles(f.Flow))
		}
	}
	// Link conservation: every flit delivered crossed each route link once.
	for _, l := range st.Links {
		if l.Utilization < 0 || l.Utilization > 1 {
			t.Errorf("link %+v utilization out of range", l)
		}
	}
}

// TestConfigValidation exercises the config and profile parsing errors.
func TestConfigValidation(t *testing.T) {
	if err := sim.DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*sim.Config){
		func(c *sim.Config) { c.Cycles = 0 },
		func(c *sim.Config) { c.DrainCycles = -1 },
		func(c *sim.Config) { c.InjectionScale = 0 },
		func(c *sim.Config) { c.PacketFlits = 0 },
		func(c *sim.Config) { c.VCs = 0 },
		func(c *sim.Config) { c.BufferFlits = 0 },
		func(c *sim.Config) { c.WatchdogCycles = 0 },
		func(c *sim.Config) { c.LivelockCycles = 0 },
		func(c *sim.Config) { c.BurstFactor = 0.5 },
		func(c *sim.Config) { c.MeanBurstCycles = 0 },
		func(c *sim.Config) { c.HotspotFactor = 0 },
		// +Inf passes every comparison above.
		func(c *sim.Config) { c.InjectionScale = math.Inf(1) },
		func(c *sim.Config) { c.BurstFactor = math.Inf(1) },
		func(c *sim.Config) { c.MeanBurstCycles = math.Inf(1) },
		func(c *sim.Config) { c.HotspotFactor = math.Inf(1) },
	}
	if math.MaxInt == math.MaxInt64 {
		// The run's last cycle, Cycles + DrainCycles, overflows an int64.
		bad = append(bad,
			func(c *sim.Config) { c.Cycles = math.MaxInt },
			func(c *sim.Config) { c.DrainCycles = math.MaxInt - c.Cycles + 1 })
	}
	top := synthBest(t, testDesign(t))
	for i, mutate := range bad {
		cfg := sim.DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
		if _, err := sim.Run(top, cfg); err == nil {
			t.Errorf("mutation %d: Run accepted the config", i)
		}
	}
	for _, name := range []string{"uniform", "bursty", "hotspot"} {
		p, err := sim.ParseProfile(name)
		if err != nil {
			t.Errorf("ParseProfile(%q): %v", name, err)
		}
		if p.String() != name {
			t.Errorf("ParseProfile(%q).String() = %q", name, p.String())
		}
	}
	if _, err := sim.ParseProfile("bogus"); err == nil {
		t.Error("unknown profile should fail")
	}
	if sim.Profile(99).String() == "" {
		t.Error("unknown profile String empty")
	}
}

// TestRunRejectsUnroutedTopology checks that the simulator refuses a
// topology whose flows carry no committed routes.
func TestRunRejectsUnroutedTopology(t *testing.T) {
	g := testDesign(t)
	top := topology.New(g, noclib.DefaultLibrary(), 400)
	top.AddSwitch(0)
	for c := range g.Cores {
		top.AttachCore(c, 0)
	}
	if _, err := sim.Run(top, sim.DefaultConfig()); err == nil {
		t.Fatal("unrouted topology should be rejected")
	}
	if _, err := sim.Run(synthBest(t, g), sim.Config{}); err == nil {
		t.Fatal("zero config should be rejected")
	}
}

// TestStatsReport sanity-checks the text renderer.
func TestStatsReport(t *testing.T) {
	top := synthBest(t, testDesign(t))
	cfg := sim.DefaultConfig()
	cfg.Cycles = 500
	cfg.DrainCycles = 500
	st, err := sim.Run(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := st.Report()
	for _, want := range []string{"profile uniform", "packets_delivered", "deadlock false", "flows:", "links:", "switches:"} {
		if !bytes.Contains([]byte(rep), []byte(want)) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if st.DeliveredFraction() <= 0 || !st.Healthy() {
		t.Errorf("unexpected stats health: delivered=%v healthy=%v", st.DeliveredFraction(), st.Healthy())
	}
}
