package route

import (
	"math/rand"
	"reflect"
	"testing"

	"sunfloor3d/internal/geom"
	"sunfloor3d/internal/model"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/topology"
)

// TestIndirectSwitchRollbackOnFailure checks that a failed indirect-switch
// retry leaves the topology byte-identical to its pre-attempt state: no
// leftover switch, no phantom port slots polluting power and area.
func TestIndirectSwitchRollbackOnFailure(t *testing.T) {
	// Cores three layers apart with adjacent-layer-only links: the indirect
	// switch lands on layer 1, but its link to layer 3 still spans two
	// layers, so the retry must fail and roll back.
	cores := []model.Core{
		{Name: "c0", Width: 1, Height: 1, Layer: 0},
		{Name: "c3", Width: 1, Height: 1, Layer: 3},
	}
	flows := []model.Flow{{Src: 0, Dst: 1, BandwidthMBps: 100}}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	for _, fullRebuild := range []bool{false, true} {
		top := topology.New(g, noclib.DefaultLibrary(), 400)
		s0 := top.AddSwitch(0)
		s3 := top.AddSwitch(3)
		top.AttachCore(0, s0)
		top.AttachCore(1, s3)
		top.EstimateSwitchPositions()
		snapshot := top.Clone()

		cfg := DefaultConfig()
		cfg.AdjacentLayersOnly = true
		cfg.AllowIndirectSwitches = true
		computePaths := ComputePaths
		if fullRebuild {
			computePaths = ComputePathsFullRebuild
		}
		res, err := computePaths(top, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Success() {
			t.Fatalf("fullRebuild=%v: routing across a 3-layer gap should fail", fullRebuild)
		}
		if res.IndirectSwitches != 0 {
			t.Errorf("fullRebuild=%v: failed insertion counted %d indirect switches", fullRebuild, res.IndirectSwitches)
		}
		if !reflect.DeepEqual(top.Switches, snapshot.Switches) {
			t.Errorf("fullRebuild=%v: switches not rolled back:\ngot  %+v\nwant %+v",
				fullRebuild, top.Switches, snapshot.Switches)
		}
		if !reflect.DeepEqual(top.CoreAttach, snapshot.CoreAttach) {
			t.Errorf("fullRebuild=%v: core attachments changed", fullRebuild)
		}
		in, out := top.SwitchPorts()
		wantIn, wantOut := snapshot.SwitchPorts()
		if !reflect.DeepEqual(in, wantIn) || !reflect.DeepEqual(out, wantOut) {
			t.Errorf("fullRebuild=%v: port counts changed: %v/%v want %v/%v",
				fullRebuild, in, out, wantIn, wantOut)
		}
	}
}

// TestIndirectSwitchRollbackThenReuse checks that after a rolled-back
// insertion the router can still insert an indirect switch for a later flow
// with a clean link identity (the rolled-back switch ID is reused).
func TestIndirectSwitchRollbackThenReuse(t *testing.T) {
	cores := []model.Core{
		{Name: "a0", Width: 1, Height: 1, Layer: 0},
		{Name: "a4", Width: 1, Height: 1, Layer: 4},
		{Name: "b0", Width: 1, Height: 1, X: 2, Layer: 0},
		{Name: "b2", Width: 1, Height: 1, X: 2, Layer: 2},
	}
	flows := []model.Flow{
		// Unroutable: a 4-layer gap that a single indirect switch (placed on
		// layer 2) cannot bridge with adjacent-layer-only links.
		{Src: 0, Dst: 1, BandwidthMBps: 900},
		// Rescued by an indirect switch on layer 1.
		{Src: 2, Dst: 3, BandwidthMBps: 100},
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	top := topology.New(g, noclib.DefaultLibrary(), 400)
	top.AttachCore(0, top.AddSwitch(0))
	top.AttachCore(1, top.AddSwitch(4))
	top.AttachCore(2, top.AddSwitch(0))
	top.AttachCore(3, top.AddSwitch(2))
	top.EstimateSwitchPositions()

	cfg := DefaultConfig()
	cfg.AdjacentLayersOnly = true
	cfg.AllowIndirectSwitches = true
	res, err := ComputePaths(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != 0 {
		t.Fatalf("Failed = %v, want [0]", res.Failed)
	}
	if res.IndirectSwitches != 1 {
		t.Errorf("IndirectSwitches = %d, want 1", res.IndirectSwitches)
	}
	if top.NumSwitches() != 5 {
		t.Errorf("switch count = %d, want 5 (4 + 1 surviving indirect)", top.NumSwitches())
	}
}

// randomRoutedCase builds a random multi-layer design and switch assignment
// for the equivalence test.
func randomRoutedCase(t *testing.T, rng *rand.Rand) *topology.Topology {
	t.Helper()
	layers := 1 + rng.Intn(3)
	perLayer := 2 + rng.Intn(3)
	var cores []model.Core
	for l := 0; l < layers; l++ {
		for i := 0; i < perLayer; i++ {
			cores = append(cores, model.Core{
				Name:  coreName(l, i),
				Width: 1, Height: 1,
				X: rng.Float64() * 6, Y: rng.Float64() * 6, Layer: l,
			})
		}
	}
	n := len(cores)
	var flows []model.Flow
	for f := 0; f < n+rng.Intn(2*n); f++ {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		if src == dst {
			continue
		}
		flows = append(flows, model.Flow{
			Src: src, Dst: dst, BandwidthMBps: 50 + rng.Float64()*900,
		})
	}
	if len(flows) == 0 {
		flows = append(flows, model.Flow{Src: 0, Dst: 1, BandwidthMBps: 100})
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	top := topology.New(g, noclib.DefaultLibrary(), 400+float64(rng.Intn(3))*200)
	swPerLayer := 1 + rng.Intn(3)
	var sw [][]int
	for l := 0; l < layers; l++ {
		var row []int
		for s := 0; s < swPerLayer; s++ {
			id := top.AddSwitch(l)
			row = append(row, id)
		}
		sw = append(sw, row)
	}
	for c := range cores {
		top.AttachCore(c, sw[cores[c].Layer][rng.Intn(swPerLayer)])
	}
	top.EstimateSwitchPositions()
	return top
}

// cost returns the full arc cost of (i, j) at bandwidth bw (infinity for a
// blocked arc or a new link a hard limit forbids), priced like the search
// prices it: from the arc, the switch records of i and j and the max_ill
// table, through arcCost.
func (r *router) cost(i, j int, bw float64) float64 {
	a, si, sj := &r.arcs[i][j], &r.sw[i], &r.sw[j]
	if a.blocked {
		return infinity
	}
	vd := verdictNone
	if !a.exists {
		vd = max(si.outVerdict, sj.inVerdict, r.illVerdict[si.level*r.levels+sj.level])
	}
	if vd == verdictHard {
		return infinity
	}
	ft := r.terms(bw, r.tsv)
	return arcCost(a, sj.inMarginal, si.outMarginal, vd == verdictSoft, &ft)
}

// TestCostModelMatchesRebuild routes randomized topologies and, between
// every commit, cross-checks the price of each arc from the router's
// incrementally updated state, and from state rebuilt from the committed
// routes (what ComputePathsFullRebuild searches), against a from-scratch
// evaluation of Algorithm 3's CHECK_CONSTRAINTS over bookkeeping derived
// from the topology alone (see referenceArcCost). The router's own link,
// port, marginal and verdict caches never enter the reference, so a stale
// cache cannot hide behind an identical stale read on both sides. Costs
// must match exactly: every evaluation ends in arcCost, and a ULP of
// difference could flip a Dijkstra tie. The last trials add switches on
// layers below the design's, whose boundaries no count covers: a link
// between two of them still crosses layers, so with the soft max_ill
// threshold at zero links it is soft.
func TestCostModelMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		top := randomRoutedCase(t, rng)
		cfg := DefaultConfig()
		if rng.Intn(2) == 0 {
			cfg.MaxILL = 2 + rng.Intn(8)
		}
		if rng.Intn(2) == 0 {
			cfg.MaxSwitchSize = 4 + rng.Intn(6)
		}
		cfg.AdjacentLayersOnly = rng.Intn(2) == 0
		if trial >= 25 {
			for _, layer := range []int{-1, -2} {
				id := top.AddSwitch(layer)
				top.Switches[id].Pos = geom.Point{X: rng.Float64() * 6, Y: rng.Float64() * 6}
			}
			cfg.MaxILL, cfg.SoftILLMargin = 2, 2
		}

		r := &router{top: top, cfg: cfg}
		r.init()
		sampleBWs := []float64{0, 120, 975.5}
		verify := func(stage string) {
			n := top.NumSwitches()
			book := deriveBookkeeping(top)
			fresh := *r
			fresh.rebuildFromRoutes()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i == j {
						continue
					}
					for _, bw := range sampleBWs {
						want := referenceArcCost(r, book, i, j, bw)
						if got := r.cost(i, j, bw); got != want {
							t.Fatalf("trial %d, %s: arc (%d,%d) bw=%v: router %v, reference %v",
								trial, stage, i, j, bw, got, want)
						}
					}
					want := referenceArcCost(r, book, i, j, sampleBWs[1])
					if got := fresh.cost(i, j, sampleBWs[1]); got != want {
						t.Fatalf("trial %d, %s: rebuilt arc (%d,%d): %v want %v",
							trial, stage, i, j, got, want)
					}
				}
			}
		}
		verify("init")
		before := top.NumSwitches()
		for _, f := range top.Design.FlowsByBandwidth() {
			if !r.routeFlow(f) && cfg.AllowIndirectSwitches {
				r.tryWithIndirectSwitch(f)
			}
			verify("after flow")
		}
		// Every switch the router kept must actually carry a route: unused
		// insertions are rolled back on both the failure and success paths.
		used := make(map[int]bool)
		for _, rt := range top.Routes {
			for _, s := range rt.Switches {
				used[s] = true
			}
		}
		for id := before; id < top.NumSwitches(); id++ {
			if !used[id] {
				t.Fatalf("trial %d: inserted switch %d survives with no route through it", trial, id)
			}
		}
	}
}

// bookkeeping is the router state that arc costs depend on, derived from a
// topology's core attachments and committed routes alone.
type bookkeeping struct {
	// link holds every directed switch-to-switch link some route uses.
	link map[[2]int]bool
	// in and out count each switch's ports: one per attached core plus one
	// per distinct link.
	in, out []int
	// ill[b] counts the core attachments and links crossing the boundary
	// between layers b and b+1.
	ill []int
}

func deriveBookkeeping(top *topology.Topology) bookkeeping {
	n := top.NumSwitches()
	layers := top.Design.NumLayers()
	for _, s := range top.Switches {
		if s.Layer+1 > layers {
			layers = s.Layer + 1
		}
	}
	b := bookkeeping{link: make(map[[2]int]bool), in: make([]int, n), out: make([]int, n), ill: make([]int, max(layers-1, 0))}
	cross := func(la, lb int) {
		for l := min(la, lb); l < max(la, lb); l++ {
			if l >= 0 && l < len(b.ill) {
				b.ill[l]++
			}
		}
	}
	for c, s := range top.CoreAttach {
		b.in[s]++
		b.out[s]++
		cross(top.Design.Cores[c].Layer, top.Switches[s].Layer)
	}
	for _, rt := range top.Routes {
		for k := 1; k < len(rt.Switches); k++ {
			from, to := rt.Switches[k-1], rt.Switches[k]
			if b.link[[2]int{from, to}] {
				continue
			}
			b.link[[2]int{from, to}] = true
			b.out[from]++
			b.in[to]++
			cross(top.Switches[from].Layer, top.Switches[to].Layer)
		}
	}
	return b
}

// crowdedBoundary returns the largest count of b.ill over the boundaries
// between layers la and lb, ignoring boundaries outside the design.
func (b bookkeeping) crowdedBoundary(la, lb int) int {
	cur := 0
	for l := min(la, lb); l < max(la, lb); l++ {
		if l >= 0 && l < len(b.ill) {
			cur = max(cur, b.ill[l])
		}
	}
	return cur
}

// referenceArcCost evaluates the arc (i, j) for a flow of bandwidth bw from
// first principles: Algorithm 3's CHECK_CONSTRAINTS thresholds over the
// derived bookkeeping, the port-opening marginals straight from
// noclib.SwitchPortMarginalMW and the geometry from the switch positions.
// Only the final combination goes through the router's arcCost formula.
func referenceArcCost(r *router, b bookkeeping, i, j int, bw float64) float64 {
	t, cfg := r.top, r.cfg
	li, lj := t.Switches[i].Layer, t.Switches[j].Layer
	span := li - lj
	if span < 0 {
		span = -span
	}
	exists, soft := b.link[[2]int{i, j}], false
	if span > 0 && cfg.AdjacentLayersOnly && span >= 2 {
		return infinity
	}
	if span > 0 && cfg.MaxILL > 0 && !exists {
		cur := b.crowdedBoundary(li, lj)
		if cur >= cfg.MaxILL {
			return infinity
		}
		soft = cur >= cfg.MaxILL-cfg.SoftILLMargin
	}
	if !exists && cfg.MaxSwitchSize > 0 {
		out, in := b.out[i]+1, b.in[j]+1
		if out > cfg.MaxSwitchSize || in > cfg.MaxSwitchSize {
			return infinity
		}
		limit := cfg.MaxSwitchSize - softSwitchMargin
		soft = soft || out > limit || in > limit
	}
	var in, out float64
	if !exists {
		in = t.Lib.SwitchPortMarginalMW(b.in[j], t.FreqMHz)
		out = t.Lib.SwitchPortMarginalMW(b.out[i], t.FreqMHz)
	}
	planar := geom.Manhattan(t.Switches[i].Pos, t.Switches[j].Pos)
	latency := 1 + float64(t.Lib.LinkPipelineStages(planar, t.FreqMHz))
	ft := r.terms(bw, make([]float64, span+1))
	return arcCost(&arc{planar: planar, latency: latency, span: int32(span), exists: exists}, in, out, soft, &ft)
}

// TestIncrementalRoutingStaysDeadlockFree re-runs the deadlock test pattern
// through the incremental path with tight constraints and verifies the final
// routes still form an acyclic channel dependency graph.
func TestIncrementalRoutingStaysDeadlockFree(t *testing.T) {
	g := buildDesign(t, 2, 8)
	top := buildTopology(t, g, 2)
	cfg := DefaultConfig()
	cfg.MaxILL = 10
	res, err := ComputePaths(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success() {
		t.Fatalf("failed: %v", res.Failed)
	}
	assertAcyclicCDG(t, top)
}
