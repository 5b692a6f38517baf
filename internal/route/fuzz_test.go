package route_test

// Fuzz harness for the path-computation step: randomized communication
// graphs and switch assignments must never panic the router, the committed
// paths must validate and stay deadlock free (acyclic CDG), the router,
// which keeps its routing state up to date commit by commit, must return
// byte-identical results to the test-only full-rebuild reference router,
// ComputePathsFullRebuild, and a call with Config.StopAtFirstFailure must
// stop exactly where the full call first fails.

import (
	"reflect"
	"testing"

	"sunfloor3d/internal/model"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/route"
	"sunfloor3d/internal/topology"
)

// fuzzReader doles out bytes from the fuzz input, falling back to a rolling
// default when the input is exhausted so every prefix decodes to a valid
// scenario.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		r.pos++
		return byte(r.pos * 37)
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// intn returns a value in [1, n] derived from the next byte.
func (r *fuzzReader) intn(n int) int { return 1 + int(r.byte())%n }

// buildScenario decodes the fuzz input into a routed-topology scenario: a
// communication graph, a switch set with layers and positions, and core
// attachments. It returns nil when the decoded design is degenerate.
func buildScenario(data []byte) (*model.CommGraph, func() *topology.Topology) {
	r := &fuzzReader{data: data}
	nCores := 2 + int(r.byte())%9    // 2..10
	nLayers := 1 + int(r.byte())%3   // 1..3
	nSwitches := 1 + int(r.byte())%6 // 1..6
	nFlows := 1 + int(r.byte())%16   // 1..16

	cores := make([]model.Core, nCores)
	for i := range cores {
		cores[i] = model.Core{
			Name:   "c" + string(rune('a'+i)),
			Width:  0.5 + float64(r.intn(8))/4,
			Height: 0.5 + float64(r.intn(8))/4,
			X:      float64(r.intn(12)),
			Y:      float64(r.intn(12)),
			Layer:  int(r.byte()) % nLayers,
		}
	}
	var flows []model.Flow
	for i := 0; i < nFlows; i++ {
		src := int(r.byte()) % nCores
		dst := int(r.byte()) % nCores
		if src == dst {
			continue
		}
		flows = append(flows, model.Flow{
			Src: src, Dst: dst,
			BandwidthMBps: float64(25 * r.intn(80)),
			LatencyCycles: float64(int(r.byte()) % 12), // 0 = unconstrained
		})
	}
	if len(flows) == 0 {
		return nil, nil
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		return nil, nil
	}

	swLayer := make([]int, nSwitches)
	swX := make([]float64, nSwitches)
	swY := make([]float64, nSwitches)
	for s := 0; s < nSwitches; s++ {
		swLayer[s] = int(r.byte()) % nLayers
		swX[s] = float64(r.intn(12))
		swY[s] = float64(r.intn(12))
	}
	attach := make([]int, nCores)
	for c := range attach {
		attach[c] = int(r.byte()) % nSwitches
	}

	build := func() *topology.Topology {
		top := topology.New(g, noclib.DefaultLibrary(), 400)
		for s := 0; s < nSwitches; s++ {
			id := top.AddSwitch(swLayer[s])
			top.Switches[id].Pos.X = swX[s]
			top.Switches[id].Pos.Y = swY[s]
		}
		for c, s := range attach {
			top.AttachCore(c, s)
		}
		return top
	}
	return g, build
}

// routesEqual compares the committed routes of two topologies.
func routesEqual(a, b *topology.Topology) bool {
	if len(a.Routes) != len(b.Routes) {
		return false
	}
	for f := range a.Routes {
		ra, rb := a.Routes[f].Switches, b.Routes[f].Switches
		if len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if ra[i] != rb[i] {
				return false
			}
		}
	}
	return true
}

func FuzzComputePaths(f *testing.F) {
	// Seed corpus: hand-picked shapes covering single-switch, multi-layer,
	// constrained and dense scenarios. Of the committed corpus files,
	// 0db140fa605cd308 fails when router.commit opens a link across layers
	// without recomputing the max_ill table, ca9e11b5915669a5 when
	// router.updateMarginals leaves a switch's input-port verdict as it was
	// before the commit, and 805902b3cafca686 (a deadlock retry) when
	// router.deadlockArc keeps the CDG edges of a path it rejected.
	f.Add([]byte{})
	f.Add([]byte{4, 2, 3, 8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{9, 3, 5, 15, 200, 100, 50, 25, 12, 6, 3, 1, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{2, 1, 1, 1, 0, 1, 10, 0})
	f.Add([]byte{10, 3, 6, 16, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})

	f.Fuzz(func(t *testing.T, data []byte) {
		g, build := buildScenario(data)
		if g == nil {
			return
		}
		cfg := route.DefaultConfig()
		// Derive mild constraints from the input so both constrained and
		// unconstrained paths are explored.
		if len(data) > 0 {
			cfg.MaxILL = int(data[0]) % 8 // 0 = unconstrained
			cfg.MaxSwitchSize = int(data[len(data)-1]) % 10
			if cfg.MaxSwitchSize > 0 && cfg.MaxSwitchSize < 2 {
				cfg.MaxSwitchSize = 2
			}
		}

		// Incremental arc table (production) vs full rebuild (reference):
		// both must route identically from identical starting topologies.
		incTop := build()
		incRes, incErr := route.ComputePaths(incTop, cfg)

		refTop := build()
		refRes, first, refErr := route.ComputePathsFullRebuildFirstFailure(refTop, cfg)

		if (incErr == nil) != (refErr == nil) {
			t.Fatalf("error divergence: incremental %v, reference %v", incErr, refErr)
		}
		if incErr != nil {
			return
		}
		if incRes.Routed != refRes.Routed || len(incRes.Failed) != len(refRes.Failed) ||
			incRes.IndirectSwitches != refRes.IndirectSwitches ||
			incRes.DeadlockRetries != refRes.DeadlockRetries {
			t.Fatalf("result divergence:\nincremental %+v\nreference   %+v", incRes, refRes)
		}
		if incTop.NumSwitches() != refTop.NumSwitches() {
			t.Fatalf("switch count divergence: %d vs %d", incTop.NumSwitches(), refTop.NumSwitches())
		}
		if !routesEqual(incTop, refTop) {
			t.Fatal("committed routes diverge between incremental and full-rebuild router")
		}

		checkEarlyStop(t, build(), cfg, incTop, incRes, first)

		// Committed paths of a fully routed topology must validate and be
		// deadlock free.
		if incRes.Success() {
			if err := incTop.Validate(); err != nil {
				t.Fatalf("routed topology does not validate: %v", err)
			}
			if !route.DeadlockFree(incTop) {
				t.Fatal("committed paths have a cyclic channel dependency graph")
			}
		}
	})
}

// checkEarlyStop routes top, a fresh copy of the fuzz input, with
// StopAtFirstFailure. When the full call (full, fullRes) routed every flow,
// the stopped call must equal it. Otherwise it must stop right after the
// full call's first failed flow in routing order, in the state the
// full-rebuild router recorded there (first): the same failed flow, Routed,
// IndirectSwitches, DeadlockRetries, switches and routes.
func checkEarlyStop(t *testing.T, top *topology.Topology, cfg route.Config, full *topology.Topology, fullRes route.Result, first *route.FirstFailure) {
	t.Helper()
	cfg.StopAtFirstFailure = true
	res, err := route.ComputePaths(top, cfg)
	if err != nil {
		t.Fatalf("the stopped call failed where the full call did not: %v", err)
	}
	wantRes, wantTop := fullRes, full
	if first != nil {
		wantRes, wantTop = first.Result, first.Top
	}
	if (first == nil) != fullRes.Success() {
		t.Fatalf("the reference recorded first failure %+v, the full call's result is %+v", first, fullRes)
	}
	if !reflect.DeepEqual(res, wantRes) {
		t.Fatalf("early stop: result %+v, want %+v", res, wantRes)
	}
	if !reflect.DeepEqual(top.Switches, wantTop.Switches) {
		t.Fatalf("early stop: switches %+v, want %+v", top.Switches, wantTop.Switches)
	}
	if !routesEqual(top, wantTop) {
		t.Fatal("early stop: committed routes differ from the full call's at its first failure")
	}
}
