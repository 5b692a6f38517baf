package sim

// White-box performance regression tests of the execution core: a
// steady-state cycle must not allocate (the arena, the VC rings and the NI
// ring deque exist to guarantee it), and the engine must stay deterministic
// and reference-equivalent on randomly generated specs (FuzzSimDeterminism).

import (
	"bytes"
	"encoding/json"
	"testing"

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

// TestRunSteadyStateAllocs is the regression test for the reference engine's
// allocation patterns (a packet per injection, append-grown queues, and the
// q = q[1:] NI queue that kept delivered packets reachable): on a reused
// network, a whole run — thousands of cycles, hundreds of packets — must
// allocate only the per-run bookkeeping (run state, injector, collected
// stats), independent of how much traffic flows.
func TestRunSteadyStateAllocs(t *testing.T) {
	flows := []model.Flow{
		{Src: 0, Dst: 3, BandwidthMBps: 900},
		{Src: 3, Dst: 0, BandwidthMBps: 700},
		{Src: 1, Dst: 2, BandwidthMBps: 500},
		{Src: 2, Dst: 1, BandwidthMBps: 300},
	}
	top, err := chainTopology(4, flows)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.StatsLevel = StatsSummary

	allocsFor := func(cycles int) float64 {
		cfg.Cycles = cycles
		cfg.DrainCycles = cycles
		net, err := buildNetwork(top, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Warm-up run: lets the packet arena and the NI rings reach their
		// steady-state capacity before counting.
		net.run(newProfileInjector(top, cfg), cfg)
		return testing.AllocsPerRun(5, func() {
			net.reset()
			st := net.run(newProfileInjector(top, cfg), cfg)
			if st.PacketsDelivered == 0 {
				t.Fatal("no traffic simulated")
			}
		})
	}

	short := allocsFor(500)
	long := allocsFor(4000)
	// Per-run bookkeeping: run state slices, injector, Stats with per-flow
	// rows. Anything scaling with traffic blows well past this.
	const budget = 48
	if short > budget || long > budget {
		t.Errorf("run allocates too much: %v allocs at 500 cycles, %v at 4000 (budget %d)", short, long, budget)
	}
	if long > short+4 {
		t.Errorf("allocations scale with simulated cycles: %v at 500, %v at 4000", short, long)
	}
}

// FuzzSimDeterminism generates a random chain spec and traffic configuration
// and checks the two halves of the simulator's core contract: the same seed
// twice produces byte-identical Stats, and the optimized engine matches the
// retained reference stepper bit for bit.
func FuzzSimDeterminism(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(0), uint16(300), false)
	f.Add(int64(42), uint8(2), uint8(1), uint8(1), uint16(128), true)
	f.Add(int64(7), uint8(6), uint8(7), uint8(2), uint16(500), false)
	f.Fuzz(func(t *testing.T, seed int64, nsw, nflows, profile uint8, cycles uint16, tight bool) {
		k := 2 + int(nsw%5)    // 2..6 switches
		m := 1 + int(nflows%6) // 1..6 flows
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
		top, err := chainTopology(k, flows)
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
