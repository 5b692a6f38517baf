package route

import (
	"testing"

	"sunfloor3d/internal/model"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/topology"
)

// buildDesign creates a design with nPerLayer cores on each of layers layers,
// arranged in a grid, with each core sending to the next core (ring) plus
// cross-layer flows between vertically stacked cores.
func buildDesign(t *testing.T, layers, nPerLayer int) *model.CommGraph {
	t.Helper()
	var cores []model.Core
	for l := 0; l < layers; l++ {
		for i := 0; i < nPerLayer; i++ {
			cores = append(cores, model.Core{
				Name: coreName(l, i), Width: 1, Height: 1,
				X: float64(i%4) * 1.5, Y: float64(i/4) * 1.5, Layer: l,
			})
		}
	}
	var flows []model.Flow
	n := len(cores)
	for c := 0; c < n; c++ {
		flows = append(flows, model.Flow{
			Src: c, Dst: (c + 1) % n, BandwidthMBps: 100 + float64(c), LatencyCycles: 0,
		})
	}
	for i := 0; i < nPerLayer && layers > 1; i++ {
		flows = append(flows, model.Flow{
			Src: i, Dst: nPerLayer + i, BandwidthMBps: 500, LatencyCycles: 6,
		})
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatalf("NewCommGraph: %v", err)
	}
	return g
}

func coreName(l, i int) string {
	return string(rune('a'+l)) + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// buildTopology attaches cores round-robin to switchesPerLayer switches per
// layer and estimates switch positions.
func buildTopology(t *testing.T, g *model.CommGraph, switchesPerLayer int) *topology.Topology {
	t.Helper()
	top := topology.New(g, noclib.DefaultLibrary(), 400)
	layers := g.NumLayers()
	swOf := make([][]int, layers)
	for l := 0; l < layers; l++ {
		for s := 0; s < switchesPerLayer; s++ {
			swOf[l] = append(swOf[l], top.AddSwitch(l))
		}
	}
	for l := 0; l < layers; l++ {
		cores := g.CoresInLayer(l)
		for i, c := range cores {
			top.AttachCore(c, swOf[l][i%switchesPerLayer])
		}
	}
	top.EstimateSwitchPositions()
	return top
}

func TestComputePathsBasic(t *testing.T) {
	g := buildDesign(t, 2, 8)
	top := buildTopology(t, g, 2)
	res, err := ComputePaths(top, DefaultConfig())
	if err != nil {
		t.Fatalf("ComputePaths: %v", err)
	}
	if !res.Success() {
		t.Fatalf("failed flows: %v", res.Failed)
	}
	if res.Routed != g.NumFlows() {
		t.Errorf("routed %d of %d flows", res.Routed, g.NumFlows())
	}
	if err := top.Validate(); err != nil {
		t.Fatalf("topology invalid after routing: %v", err)
	}
}

func TestComputePathsSingleSwitch(t *testing.T) {
	g := buildDesign(t, 1, 6)
	top := topology.New(g, noclib.DefaultLibrary(), 400)
	s := top.AddSwitch(0)
	for c := 0; c < g.NumCores(); c++ {
		top.AttachCore(c, s)
	}
	top.EstimateSwitchPositions()
	res, err := ComputePaths(top, DefaultConfig())
	if err != nil {
		t.Fatalf("ComputePaths: %v", err)
	}
	if !res.Success() {
		t.Fatalf("failed: %v", res.Failed)
	}
	for f := range g.Flows {
		if len(top.Routes[f].Switches) != 1 {
			t.Errorf("flow %d route = %v, want single switch", f, top.Routes[f].Switches)
		}
	}
}

func TestComputePathsErrorsOnBadInput(t *testing.T) {
	g := buildDesign(t, 1, 4)
	top := topology.New(g, noclib.DefaultLibrary(), 400)
	if _, err := ComputePaths(top, DefaultConfig()); err == nil {
		t.Error("expected error with no switches")
	}
	top.AddSwitch(0)
	// cores unattached
	if _, err := ComputePaths(top, DefaultConfig()); err == nil {
		t.Error("expected error with unattached cores")
	}
}

func TestAdjacentLayersOnlyRestriction(t *testing.T) {
	// Three layers; traffic from layer 0 to layer 2. With AdjacentLayersOnly
	// the route must pass through a switch on layer 1.
	cores := []model.Core{
		{Name: "c0", Width: 1, Height: 1, Layer: 0},
		{Name: "c1", Width: 1, Height: 1, Layer: 1},
		{Name: "c2", Width: 1, Height: 1, Layer: 2},
	}
	flows := []model.Flow{
		{Src: 0, Dst: 2, BandwidthMBps: 100},
		{Src: 1, Dst: 0, BandwidthMBps: 10},
		{Src: 2, Dst: 1, BandwidthMBps: 10},
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	top := topology.New(g, noclib.DefaultLibrary(), 400)
	s0 := top.AddSwitch(0)
	s1 := top.AddSwitch(1)
	s2 := top.AddSwitch(2)
	top.AttachCore(0, s0)
	top.AttachCore(1, s1)
	top.AttachCore(2, s2)
	top.EstimateSwitchPositions()

	cfg := DefaultConfig()
	cfg.AdjacentLayersOnly = true
	res, err := ComputePaths(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success() {
		t.Fatalf("failed: %v", res.Failed)
	}
	r := top.Routes[0].Switches
	if len(r) != 3 || r[0] != s0 || r[1] != s1 || r[2] != s2 {
		t.Errorf("flow 0 route = %v, want [s0 s1 s2]", r)
	}

	// Without the restriction, the direct 2-hop route is allowed (and cheaper
	// in latency), though the router may still choose either; just confirm
	// routing succeeds.
	top2 := topology.New(g, noclib.DefaultLibrary(), 400)
	a := top2.AddSwitch(0)
	b := top2.AddSwitch(1)
	c := top2.AddSwitch(2)
	top2.AttachCore(0, a)
	top2.AttachCore(1, b)
	top2.AttachCore(2, c)
	top2.EstimateSwitchPositions()
	res2, err := ComputePaths(top2, DefaultConfig())
	if err != nil || !res2.Success() {
		t.Fatalf("unrestricted routing failed: %v %v", err, res2.Failed)
	}
}

func TestMaxILLRespected(t *testing.T) {
	g := buildDesign(t, 2, 8)
	for _, maxILL := range []int{25, 12, 8} {
		top := buildTopology(t, g, 2)
		cfg := DefaultConfig()
		cfg.MaxILL = maxILL
		res, err := ComputePaths(top, cfg)
		if err != nil {
			t.Fatalf("ComputePaths: %v", err)
		}
		if !res.Success() {
			// With a tight constraint failure is acceptable, but any routed
			// result must still respect the cap.
			t.Logf("maxILL=%d: %d flows failed", maxILL, len(res.Failed))
		}
		if got := top.MaxInterLayerLinks(); got > maxILL {
			t.Errorf("maxILL=%d violated: topology uses %d inter-layer links", maxILL, got)
		}
	}
}

func TestMaxSwitchSizeRespected(t *testing.T) {
	g := buildDesign(t, 1, 12)
	top := buildTopology(t, g, 4)
	cfg := DefaultConfig()
	cfg.MaxSwitchSize = 6
	cfg.AllowIndirectSwitches = true
	res, err := ComputePaths(top, cfg)
	if err != nil {
		t.Fatalf("ComputePaths: %v", err)
	}
	if !res.Success() {
		t.Fatalf("failed flows: %v", res.Failed)
	}
	in, out := top.SwitchPorts()
	for i := range in {
		if in[i] > cfg.MaxSwitchSize || out[i] > cfg.MaxSwitchSize {
			t.Errorf("switch %d has %dx%d ports, exceeds max %d", i, in[i], out[i], cfg.MaxSwitchSize)
		}
	}
}

func TestDeadlockFreedom(t *testing.T) {
	// Route a dense all-to-all pattern over a ring of switches and verify the
	// channel dependency graph of the final routes is acyclic.
	cores := make([]model.Core, 8)
	for i := range cores {
		cores[i] = model.Core{Name: coreName(0, i), Width: 1, Height: 1,
			X: float64(i) * 1.2, Layer: 0}
	}
	var flows []model.Flow
	for i := range cores {
		for j := range cores {
			if i != j {
				flows = append(flows, model.Flow{Src: i, Dst: j, BandwidthMBps: 50})
			}
		}
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	top := topology.New(g, noclib.DefaultLibrary(), 400)
	for i := 0; i < 4; i++ {
		top.AddSwitch(0)
	}
	for c := range cores {
		top.AttachCore(c, c%4)
	}
	top.EstimateSwitchPositions()
	res, err := ComputePaths(top, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success() {
		t.Fatalf("failed: %v", res.Failed)
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	assertAcyclicCDG(t, top)
}

// assertAcyclicCDG rebuilds the channel dependency graph from the final
// routes and checks it has no cycles, with a depth-first search of its own
// so the check does not share code with the router's CDG.
func assertAcyclicCDG(t *testing.T, top *topology.Topology) {
	t.Helper()
	// succ maps each link (from, to) to the links some route takes next.
	succ := map[[2]int][][2]int{}
	for _, r := range top.Routes {
		for i := 2; i < len(r.Switches); i++ {
			a := [2]int{r.Switches[i-2], r.Switches[i-1]}
			b := [2]int{r.Switches[i-1], r.Switches[i]}
			succ[a] = append(succ[a], b)
		}
	}
	const onPath, done = 1, 2
	state := map[[2]int]int{}
	var cyclic func(a [2]int) bool
	cyclic = func(a [2]int) bool {
		state[a] = onPath
		for _, b := range succ[a] {
			if state[b] == onPath || state[b] == 0 && cyclic(b) {
				return true
			}
		}
		state[a] = done
		return false
	}
	for a := range succ {
		if state[a] == 0 && cyclic(a) {
			t.Error("channel dependency graph has a cycle: routes are not deadlock free")
			return
		}
	}
}

func TestImpossibleConstraintFails(t *testing.T) {
	// Cores on two layers, each attached to a switch on its own layer, but
	// max_ill of 0... MaxILL=0 means unconstrained in our config, so use
	// AdjacentLayersOnly with a 3-layer gap instead: no intermediate switch
	// exists, so routing must fail.
	cores := []model.Core{
		{Name: "c0", Width: 1, Height: 1, Layer: 0},
		{Name: "c2", Width: 1, Height: 1, Layer: 2},
	}
	flows := []model.Flow{{Src: 0, Dst: 1, BandwidthMBps: 100}}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	top := topology.New(g, noclib.DefaultLibrary(), 400)
	s0 := top.AddSwitch(0)
	s2 := top.AddSwitch(2)
	top.AttachCore(0, s0)
	top.AttachCore(1, s2)
	top.EstimateSwitchPositions()
	cfg := DefaultConfig()
	cfg.AdjacentLayersOnly = true
	cfg.AllowIndirectSwitches = false
	res, err := ComputePaths(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Success() {
		t.Error("expected failure when no adjacent-layer path exists")
	}

	// With indirect switches allowed, the router inserts one on layer 1 and
	// succeeds.
	top2 := topology.New(g, noclib.DefaultLibrary(), 400)
	a := top2.AddSwitch(0)
	b := top2.AddSwitch(2)
	top2.AttachCore(0, a)
	top2.AttachCore(1, b)
	top2.EstimateSwitchPositions()
	cfg.AllowIndirectSwitches = true
	res2, err := ComputePaths(top2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Success() {
		t.Fatalf("indirect switch insertion should rescue the flow: %v", res2.Failed)
	}
	if res2.IndirectSwitches != 1 {
		t.Errorf("IndirectSwitches = %d, want 1", res2.IndirectSwitches)
	}
	if top2.NumSwitches() != 3 {
		t.Errorf("switch count = %d, want 3", top2.NumSwitches())
	}
}

func TestRoutingPrefersExistingLinks(t *testing.T) {
	// Two flows between the same pair of switch groups should share physical
	// links rather than opening parallel ones, because reusing a link has no
	// port-opening cost.
	g := buildDesign(t, 1, 8)
	top := buildTopology(t, g, 2)
	res, err := ComputePaths(top, DefaultConfig())
	if err != nil || !res.Success() {
		t.Fatalf("routing failed: %v %v", err, res)
	}
	links := top.SwitchLinks()
	// With 2 switches there can be at most 2 directed switch-to-switch links.
	if len(links) > 2 {
		t.Errorf("expected at most 2 aggregated links, got %d", len(links))
	}
}
