package sim_test

// Dead-link injection tests: a link listed in Config.DeadLinks forwards no
// flit from FaultCycle on, the watchdog observes the starvation, both engines
// agree byte for byte, and unknown links are a build error.

import (
	"encoding/json"
	"reflect"
	"testing"

	"sunfloor3d/internal/model"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/sim"
	"sunfloor3d/internal/topology"
)

// faultTriangle builds the 3-core, 3-switch topology with a detour: killing
// link 0->1 strands flow 0 while flows 1 and 2 keep their paths.
func faultTriangle(t *testing.T) *topology.Topology {
	t.Helper()
	cores := []model.Core{
		{Name: "c0", Width: 1, Height: 1, X: 0, Y: 0, Layer: 0},
		{Name: "c1", Width: 1, Height: 1, X: 2, Y: 0, Layer: 0},
		{Name: "c2", Width: 1, Height: 1, X: 1, Y: 2, Layer: 0},
	}
	flows := []model.Flow{
		{Src: 0, Dst: 1, BandwidthMBps: 300},
		{Src: 0, Dst: 2, BandwidthMBps: 200},
		{Src: 2, Dst: 1, BandwidthMBps: 100},
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	top := topology.New(g, noclib.DefaultLibrary(), 400)
	s0, s1, s2 := top.AddSwitch(0), top.AddSwitch(0), top.AddSwitch(0)
	top.AttachCore(0, s0)
	top.AttachCore(1, s1)
	top.AttachCore(2, s2)
	top.EstimateSwitchPositions()
	top.SetRoute(0, []int{s0, s1})
	top.SetRoute(1, []int{s0, s2})
	top.SetRoute(2, []int{s2, s1})
	return top
}

func faultSimConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cycles = 1500
	cfg.DrainCycles = 1500
	return cfg
}

func TestDeadLinkStarvesFlowAndTripsWatchdog(t *testing.T) {
	top := faultTriangle(t)

	healthy, err := sim.Run(top, faultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !healthy.Healthy() {
		t.Fatal("baseline run unhealthy")
	}

	cfg := faultSimConfig()
	cfg.DeadLinks = [][2]int{{0, 1}}
	st, err := sim.Run(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Healthy() {
		t.Error("watchdog did not observe the dead link")
	}
	if st.Flows[0].PacketsDelivered >= healthy.Flows[0].PacketsDelivered {
		t.Errorf("stranded flow still delivered %d packets (healthy: %d)",
			st.Flows[0].PacketsDelivered, healthy.Flows[0].PacketsDelivered)
	}
}

// TestDeadLinkMidRunDeliversUntilFault checks FaultCycle semantics: a link
// dying mid-run forwards traffic up to the fault and nothing after, so the
// stranded flow lands strictly between the healthy and dead-from-reset runs.
func TestDeadLinkMidRunDeliversUntilFault(t *testing.T) {
	top := faultTriangle(t)
	healthy, err := sim.Run(top, faultSimConfig())
	if err != nil {
		t.Fatal(err)
	}

	atReset := faultSimConfig()
	atReset.DeadLinks = [][2]int{{0, 1}}
	fromStart, err := sim.Run(top, atReset)
	if err != nil {
		t.Fatal(err)
	}

	midRun := atReset
	midRun.FaultCycle = 700
	mid, err := sim.Run(top, midRun)
	if err != nil {
		t.Fatal(err)
	}

	if got, lo, hi := mid.Flows[0].PacketsDelivered, fromStart.Flows[0].PacketsDelivered, healthy.Flows[0].PacketsDelivered; got <= lo || got >= hi {
		t.Errorf("mid-run fault delivered %d packets on the stranded flow, want strictly between %d (dead at reset) and %d (healthy)",
			got, lo, hi)
	}
}

// TestDeadLinkEnginesEquivalent extends the byte-identical-Stats contract of
// the two execution cores to fault injection.
func TestDeadLinkEnginesEquivalent(t *testing.T) {
	top := faultTriangle(t)
	for _, fc := range []int{0, 400} {
		cfg := faultSimConfig()
		cfg.DeadLinks = [][2]int{{0, 1}}
		cfg.FaultCycle = fc

		opt, err := sim.Run(top, cfg)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := sim.RunReference(top, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(opt, oracle) {
			a, _ := json.Marshal(opt)
			b, _ := json.Marshal(oracle)
			t.Errorf("FaultCycle %d: engines diverge under fault injection:\noptimized: %s\nreference: %s", fc, a, b)
		}
	}
}

func TestDeadLinkUnknownPairRejected(t *testing.T) {
	top := faultTriangle(t)
	cases := [][2]int{
		{1, 2}, // reverse of a fabricated link
		{7, 8}, // switches that do not exist
		{0, 0}, // self loop
	}
	for _, dl := range cases {
		cfg := faultSimConfig()
		cfg.DeadLinks = [][2]int{dl}
		if _, err := sim.Run(top, cfg); err == nil {
			t.Errorf("dead link %v accepted, want build error", dl)
		}
	}
}
