package sim

// White-box performance regression tests of the execution core: a
// steady-state cycle must not allocate (the arena, the VC rings, the NI ring
// deque and the request and active-port sets exist to guarantee it), and the
// engine must stay deterministic and reference-equivalent on randomly
// generated specs (FuzzSimDeterminism).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"sunfloor3d/internal/geom"
	"sunfloor3d/internal/model"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/topology"
)

// chainTopology builds a hand-routed line of k switches (one core each) with
// the given flows routed along the chain. It is the minimal valid topology:
// every flow's path is the contiguous switch interval between its endpoints.
func chainTopology(k int, flows []model.Flow) (*topology.Topology, error) {
	cores := make([]model.Core, k)
	for i := range cores {
		cores[i] = model.Core{
			Name: "c" + string(rune('a'+i)), Width: 1, Height: 1,
			X: float64(i) * 3, Y: 0,
		}
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		return nil, err
	}
	top := topology.New(g, noclib.DefaultLibrary(), 400)
	for i := 0; i < k; i++ {
		top.AddSwitch(0)
		top.AttachCore(i, i)
		top.Switches[i].Pos = cores[i].Center()
	}
	for f, fl := range flows {
		var path []int
		if fl.Src <= fl.Dst {
			for s := fl.Src; s <= fl.Dst; s++ {
				path = append(path, s)
			}
		} else {
			for s := fl.Src; s >= fl.Dst; s-- {
				path = append(path, s)
			}
		}
		top.SetRoute(f, path)
	}
	if err := top.Validate(); err != nil {
		return nil, err
	}
	return top, nil
}

// hubTopology builds a star of k leaf switches around one hub switch with no
// core: core i sits on leaf switch i+1 and every flow routes leaf, hub, leaf.
// The hub has one input port per leaf, so its candidate list holds k×VCs
// entries, and from 65 candidates on (12 leaves at 6 VCs give 72) each of
// its output ports' request sets spans more than one 64-bit word. The leaves
// sit at mixed distances from the hub, so the hub's input links differ in
// pipeline depth (0 to 5 stages at 400 MHz), and a head flit that requested
// a port can still be in the pipeline while a later requester is ready.
func hubTopology(k int, flows []model.Flow) (*topology.Topology, error) {
	const centre = 20.0
	cores := make([]model.Core, k)
	for i := range cores {
		a := 2 * math.Pi * float64(i) / float64(k)
		d := 1 + 1.5*float64(i%4)
		cores[i] = model.Core{
			Name: fmt.Sprintf("c%d", i), Width: 1, Height: 1,
			X: centre + d*math.Cos(a) - 0.5, Y: centre + d*math.Sin(a) - 0.5,
		}
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		return nil, err
	}
	top := topology.New(g, noclib.DefaultLibrary(), 400)
	hub := top.AddSwitch(0)
	top.Switches[hub].Pos = geom.Point{X: centre, Y: centre}
	for i := range cores {
		s := top.AddSwitch(0)
		top.AttachCore(i, s)
		top.Switches[s].Pos = cores[i].Center()
	}
	for f, fl := range flows {
		top.SetRoute(f, []int{fl.Src + 1, hub, fl.Dst + 1})
	}
	if err := top.Validate(); err != nil {
		return nil, err
	}
	return top, nil
}

// hubFlows has every core of a k-leaf hub send to the next core and to the
// core halfway round, so each of the hub's output ports has two requesting
// inputs, and under the hotspot profile core 0's port has more traffic than
// its link carries.
func hubFlows(k int, bw float64) []model.Flow {
	var flows []model.Flow
	for i := 0; i < k; i++ {
		flows = append(flows,
			model.Flow{Src: i, Dst: (i + 1) % k, BandwidthMBps: bw},
			model.Flow{Src: i, Dst: (i + k/2) % k, BandwidthMBps: bw})
	}
	return flows
}

// TestRunSteadyStateAllocs is the regression test for the reference engine's
// allocation patterns (a packet per injection, append-grown queues, and the
// q = q[1:] NI queue that kept delivered packets reachable): on a reused
// network, a whole run — thousands of cycles, hundreds of packets — must
// allocate only the per-run bookkeeping (run state, injector, collected
// stats), independent of how much traffic flows.
func TestRunSteadyStateAllocs(t *testing.T) {
	chain, err := chainTopology(4, []model.Flow{
		{Src: 0, Dst: 3, BandwidthMBps: 900},
		{Src: 3, Dst: 0, BandwidthMBps: 700},
		{Src: 1, Dst: 2, BandwidthMBps: 500},
		{Src: 2, Dst: 1, BandwidthMBps: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	hub, err := hubTopology(12, hubFlows(12, 500))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		top  *topology.Topology
		vcs  int
	}{
		{"chain", chain, 2},
		{"hub", hub, 6}, // 72 candidates at the hub: two-word request sets
	} {
		cfg := DefaultConfig()
		cfg.StatsLevel = StatsSummary
		cfg.VCs = tc.vcs

		allocsFor := func(cycles int) float64 {
			cfg.Cycles = cycles
			cfg.DrainCycles = cycles
			net, err := buildNetwork(tc.top, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Warm-up run: lets the packet arena and the NI rings reach their
			// steady-state capacity before counting.
			net.run(newProfileInjector(tc.top, cfg), cfg)
			return testing.AllocsPerRun(5, func() {
				net.reset()
				st := net.run(newProfileInjector(tc.top, cfg), cfg)
				if st.PacketsDelivered == 0 {
					t.Fatalf("%s: no traffic simulated", tc.name)
				}
			})
		}

		short := allocsFor(500)
		long := allocsFor(4000)
		// Per-run bookkeeping: run state slices, injector, Stats with
		// per-flow rows. Anything scaling with traffic blows well past this.
		const budget = 48
		if short > budget || long > budget {
			t.Errorf("%s: run allocates too much: %v allocs at 500 cycles, %v at 4000 (budget %d)", tc.name, short, long, budget)
		}
		if long > short+4 {
			t.Errorf("%s: allocations scale with simulated cycles: %v at 500, %v at 4000", tc.name, short, long)
		}
	}
}

// FuzzSimDeterminism generates a random chain or hub spec and traffic
// configuration and checks the two halves of the simulator's core contract:
// the same seed twice produces byte-identical Stats, and the optimized engine
// matches the retained reference stepper bit for bit. A hub of up to 12
// leaves at up to 9 VCs has up to 108 candidates at the hub, so the request
// sets of its output ports span up to two words.
func FuzzSimDeterminism(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(0), uint16(300), false, false, uint8(1))
	f.Add(int64(42), uint8(2), uint8(1), uint8(1), uint16(128), true, false, uint8(1))
	f.Add(int64(7), uint8(6), uint8(7), uint8(2), uint16(500), false, false, uint8(1))
	f.Add(int64(5), uint8(10), uint8(23), uint8(0), uint16(400), false, true, uint8(5))
	f.Add(int64(9), uint8(10), uint8(17), uint8(1), uint16(300), false, true, uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, nsw, nflows, profile uint8, cycles uint16, tight, hub bool, vcs uint8) {
		k := 2 + int(nsw%5)    // 2..6 switches
		m := 1 + int(nflows%6) // 1..6 flows
		build := chainTopology
		if hub {
			k = 2 + int(nsw%11)    // 2..12 leaves
			m = 1 + int(nflows%24) // 1..24 flows
			build = hubTopology
		}
		flows := make([]model.Flow, 0, m)
		for i := 0; i < m; i++ {
			// Derive deterministic, spread-out endpoints from the fuzz input.
			src := (int(seed>>(uint(i)%40)) + i) % k
			if src < 0 {
				src += k
			}
			dst := (src + 1 + i%(k-1)) % k
			bw := 100 + float64((int(cycles)+97*i)%1500)
			flows = append(flows, model.Flow{Src: src, Dst: dst, BandwidthMBps: bw})
		}
		top, err := build(k, flows)
		if err != nil {
			t.Skip() // degenerate spec (e.g. duplicate flow endpoints)
		}
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Profile = Profile(int(profile) % 3)
		cfg.Cycles = 64 + int(cycles%448)
		cfg.DrainCycles = cfg.Cycles
		cfg.WatchdogCycles = 64
		cfg.LivelockCycles = 256
		cfg.VCs = 1 + int(vcs%9) // 1..9
		if tight {
			cfg.VCs = 1
			cfg.BufferFlits = 2
			cfg.PacketFlits = 6
		}

		run := func(engine func(*topology.Topology, Config) (*Stats, error)) []byte {
			st, err := engine(top, cfg)
			if err != nil {
				t.Fatal(err)
			}
			j, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			return j
		}
		a, b := run(Run), run(Run)
		if !bytes.Equal(a, b) {
			t.Fatalf("same seed diverged:\n%s\n%s", a, b)
		}
		ref := run(runReference)
		if !bytes.Equal(a, ref) {
			t.Fatalf("optimized engine diverged from reference:\noptimized: %s\nreference: %s", a, ref)
		}
	})
}
