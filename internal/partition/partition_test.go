package partition

import (
	"math"
	"testing"

	"sunfloor3d/internal/graph"
	"sunfloor3d/internal/model"
)

// paperExampleDesign reproduces the spirit of Fig. 4 of the paper: two layers
// with heavy traffic between vertically stacked cores and lighter traffic
// within each layer.
func paperExampleDesign(t *testing.T) *model.CommGraph {
	t.Helper()
	cores := []model.Core{
		{Name: "a0", Width: 1, Height: 1, Layer: 0},
		{Name: "a1", Width: 1, Height: 1, X: 2, Layer: 0},
		{Name: "a2", Width: 1, Height: 1, X: 4, Layer: 0},
		{Name: "b0", Width: 1, Height: 1, Layer: 1},
		{Name: "b1", Width: 1, Height: 1, X: 2, Layer: 1},
		{Name: "b2", Width: 1, Height: 1, X: 4, Layer: 1},
	}
	flows := []model.Flow{
		// Heavy inter-layer traffic between stacked pairs.
		{Src: 0, Dst: 3, BandwidthMBps: 1000, LatencyCycles: 2},
		{Src: 1, Dst: 4, BandwidthMBps: 900, LatencyCycles: 2},
		{Src: 2, Dst: 5, BandwidthMBps: 950, LatencyCycles: 2},
		// Lighter intra-layer traffic.
		{Src: 0, Dst: 1, BandwidthMBps: 100, LatencyCycles: 8},
		{Src: 1, Dst: 2, BandwidthMBps: 120, LatencyCycles: 8},
		{Src: 3, Dst: 4, BandwidthMBps: 110, LatencyCycles: 8},
		{Src: 4, Dst: 5, BandwidthMBps: 90, LatencyCycles: 8},
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatalf("NewCommGraph: %v", err)
	}
	return g
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
}

// TestParamsValidation checks that Validate rejects out-of-range,
// non-finite and non-terminating parameters. Several of the sweeps below
// never end (a +Inf ThetaMax, a step that does not advance theta), so the
// test calls Validate only, never ThetaSweep.
func TestParamsValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Params{
		{Alpha: -0.1, ThetaMin: 1, ThetaMax: 15, ThetaStep: 3},
		{Alpha: 1.1, ThetaMin: 1, ThetaMax: 15, ThetaStep: 3},
		{Alpha: nan, ThetaMin: 1, ThetaMax: 15, ThetaStep: 3},
		{Alpha: 1, ThetaMin: 0, ThetaMax: 15, ThetaStep: 3},
		{Alpha: 1, ThetaMin: 5, ThetaMax: 4, ThetaStep: 3},
		{Alpha: 1, ThetaMin: 1, ThetaMax: 15, ThetaStep: 0},
		{Alpha: 1, ThetaMin: 1, ThetaMax: 15, ThetaStep: 3, IsolatedEdgeWeight: -1},
		{Alpha: 1, ThetaMin: nan, ThetaMax: 15, ThetaStep: 3},
		{Alpha: 1, ThetaMin: 1, ThetaMax: nan, ThetaStep: 3},
		{Alpha: 1, ThetaMin: -inf, ThetaMax: 15, ThetaStep: 3},
		{Alpha: 1, ThetaMin: 1, ThetaMax: inf, ThetaStep: 3},
		{Alpha: 1, ThetaMin: inf, ThetaMax: inf, ThetaStep: 3},
		{Alpha: 1, ThetaMin: 1, ThetaMax: 2, ThetaStep: nan},
		{Alpha: 1, ThetaMin: 1, ThetaMax: 2, ThetaStep: inf},
		{Alpha: 1, ThetaMin: 1, ThetaMax: 2, ThetaStep: 1e-17},              // 1 + 1e-17 == 1: theta never advances
		{Alpha: 1, ThetaMin: 1, ThetaMax: 1, ThetaStep: 1e-300},             // the same at a one-value sweep
		{Alpha: 1, ThetaMin: 1, ThetaMax: 1 + MaxThetaValues, ThetaStep: 1}, // one value over the cap
		{Alpha: 1, ThetaMin: 1, ThetaMax: 15, ThetaStep: 3, IsolatedEdgeWeight: nan},
		{Alpha: 1, ThetaMin: 1, ThetaMax: 15, ThetaStep: 3, IsolatedEdgeWeight: inf},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d (%+v): expected error", i, p)
		}
	}
	good := []Params{
		{Alpha: 0, ThetaMin: 1, ThetaMax: 1, ThetaStep: 1},
		{Alpha: 1, ThetaMin: 1, ThetaMax: MaxThetaValues, ThetaStep: 1}, // exactly the cap
		{Alpha: 0.5, ThetaMin: 1, ThetaMax: 15, ThetaStep: 3, IsolatedEdgeWeight: 0},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("good case %d (%+v): %v", i, p, err)
		}
	}
	if got := len(good[1].ThetaSweep()); got != MaxThetaValues {
		t.Errorf("sweep of %+v has %d values, want %d", good[1], got, MaxThetaValues)
	}
}

func TestBuildPGWeights(t *testing.T) {
	g := paperExampleDesign(t)
	pg := BuildPG(g, 1.0)
	if pg.NumVertices() != 6 {
		t.Fatalf("PG vertices = %d", pg.NumVertices())
	}
	if pg.NumEdges() != len(g.Flows) {
		t.Fatalf("PG edges = %d, want %d", pg.NumEdges(), len(g.Flows))
	}
	// With alpha=1, the heaviest flow has weight 1 and weights are bw/max_bw.
	if w := pg.Weight(0, 3); w != 1.0 {
		t.Errorf("weight(0,3) = %v, want 1", w)
	}
	if w := pg.Weight(0, 1); w != 0.1 {
		t.Errorf("weight(0,1) = %v, want 0.1", w)
	}
	// With alpha=0, weights depend only on latency: min_lat/lat.
	pg0 := BuildPG(g, 0.0)
	if w := pg0.Weight(0, 3); w != 1.0 {
		t.Errorf("alpha=0 weight(0,3) = %v, want 1", w)
	}
	if w := pg0.Weight(0, 1); w != 0.25 {
		t.Errorf("alpha=0 weight(0,1) = %v, want 0.25", w)
	}
}

func TestBuildPGUnconstrainedLatency(t *testing.T) {
	cores := []model.Core{
		{Name: "x", Width: 1, Height: 1},
		{Name: "y", Width: 1, Height: 1},
	}
	flows := []model.Flow{{Src: 0, Dst: 1, BandwidthMBps: 10}}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	pg := BuildPG(g, 0.5)
	// No latency constraint anywhere: only the bandwidth term contributes.
	if w := pg.Weight(0, 1); w != 0.5 {
		t.Errorf("weight = %v, want 0.5", w)
	}
}

func TestPhase1PartitionGroupsVerticalPairs(t *testing.T) {
	// With the plain PG (Phase 1), the heavy inter-layer pairs should end up
	// in the same block even though they are on different layers.
	g := paperExampleDesign(t)
	pg := BuildPG(g, 1.0)
	assign := PartitionCores(pg, 3)
	for _, pair := range [][2]int{{0, 3}, {1, 4}, {2, 5}} {
		if assign[pair[0]] != assign[pair[1]] {
			t.Errorf("vertical pair %v split across blocks: %v", pair, assign)
		}
	}
}

func TestSPGFavoursSameLayerClustering(t *testing.T) {
	g := paperExampleDesign(t)
	p := DefaultParams()
	spg := BuildSPG(g, p.Alpha, 10, p.ThetaMax)
	// Inter-layer edge weights must be scaled down by theta.
	pg := BuildPG(g, p.Alpha)
	if w, orig := spg.Weight(0, 3), pg.Weight(0, 3); w >= orig {
		t.Errorf("inter-layer weight not scaled down: %v vs %v", w, orig)
	}
	// New same-layer edges must exist between non-communicating cores
	// (e.g. a0 and a2) with a small weight.
	if !spg.HasEdge(0, 2) && !spg.HasEdge(2, 0) {
		t.Error("SPG missing extra same-layer edge a0-a2")
	}
	var maxWt float64
	for _, e := range pg.Edges() {
		if e.Weight > maxWt {
			maxWt = e.Weight
		}
	}
	extra := spg.Weight(0, 2) + spg.Weight(2, 0)
	if extra <= 0 || extra > maxWt/10+1e-9 {
		t.Errorf("extra edge weight %v out of range (max_wt=%v)", extra, maxWt)
	}
	// No extra edges across layers.
	if spg.HasEdge(0, 4) || spg.HasEdge(4, 0) {
		t.Error("SPG must not add edges across layers")
	}

	// With a strong theta, a 2-way partition should separate the layers,
	// reducing inter-layer links - the very purpose of the SPG.
	assign := PartitionCores(spg, 2)
	if assign[0] != assign[1] || assign[1] != assign[2] {
		t.Errorf("layer 0 split: %v", assign)
	}
	if assign[3] != assign[4] || assign[4] != assign[5] {
		t.Errorf("layer 1 split: %v", assign)
	}
	if assign[0] == assign[3] {
		t.Errorf("layers not separated: %v", assign)
	}
}

func TestBuildLPGs(t *testing.T) {
	g := paperExampleDesign(t)
	p := DefaultParams()
	lpgs := BuildLPGs(g, p)
	if len(lpgs) != 2 {
		t.Fatalf("LPG count = %d", len(lpgs))
	}
	for _, l := range lpgs {
		if len(l.Vertices) != 3 {
			t.Errorf("layer %d has %d vertices", l.Layer, len(l.Vertices))
		}
		if l.Graph.NumVertices() != len(l.Vertices) {
			t.Errorf("layer %d graph size mismatch", l.Layer)
		}
	}
	// Layer 0 has intra-layer flows 0->1 and 1->2; vertex ids are local.
	l0 := lpgs[0]
	if l0.Graph.NumEdges() < 2 {
		t.Errorf("layer 0 LPG edges = %d", l0.Graph.NumEdges())
	}
}

func TestLPGIsolatedCoresGetEdges(t *testing.T) {
	cores := []model.Core{
		{Name: "p0", Width: 1, Height: 1, Layer: 0},
		{Name: "p1", Width: 1, Height: 1, Layer: 0},
		{Name: "lonely", Width: 1, Height: 1, Layer: 0},
		{Name: "q0", Width: 1, Height: 1, Layer: 1},
	}
	flows := []model.Flow{
		{Src: 0, Dst: 1, BandwidthMBps: 100},
		{Src: 2, Dst: 3, BandwidthMBps: 50}, // lonely only talks across layers
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	lpgs := BuildLPGs(g, p)
	l0 := lpgs[0]
	// "lonely" is vertex 2 in layer 0 and has no intra-layer traffic, so the
	// builder must add low-weight edges from it.
	found := false
	for _, e := range l0.Graph.Edges() {
		if e.From == 2 || e.To == 2 {
			found = true
			if e.Weight > p.IsolatedEdgeWeight+1e-12 && (e.From == 2) {
				t.Errorf("isolated edge weight too large: %v", e.Weight)
			}
		}
	}
	if !found {
		t.Error("isolated core has no edges in LPG")
	}

	m := PartitionLPG(l0, 2)
	if len(m) != 3 {
		t.Errorf("PartitionLPG returned %d entries", len(m))
	}
	// Keys must be design core indices (0,1,2), not graph-local ones.
	for c := range m {
		if c > 2 {
			t.Errorf("unexpected core index %d in LPG partition", c)
		}
	}
}

func TestPartitionLPGMoreBlocksThanCores(t *testing.T) {
	g := paperExampleDesign(t)
	lpgs := BuildLPGs(g, DefaultParams())
	m := PartitionLPG(lpgs[0], 10) // clamped to 3
	blocks := map[int]bool{}
	for _, b := range m {
		blocks[b] = true
	}
	if len(blocks) != 3 {
		t.Errorf("expected 3 singleton blocks, got %d", len(blocks))
	}
	empty := PartitionLPG(LPG{Layer: 0, Graph: graph.New(0)}, 2)
	if len(empty) != 0 {
		t.Errorf("empty LPG partition = %v", empty)
	}
}

func TestThetaSweep(t *testing.T) {
	p := DefaultParams()
	ts := p.ThetaSweep()
	want := []float64{1, 4, 7, 10, 13}
	if len(ts) != len(want) {
		t.Fatalf("ThetaSweep = %v", ts)
	}
	for i := range want {
		if ts[i] != want[i] {
			t.Errorf("ThetaSweep[%d] = %v, want %v", i, ts[i], want[i])
		}
	}
}

func TestSwitchLayerFromBlock(t *testing.T) {
	g := paperExampleDesign(t)
	if l := SwitchLayerFromBlock(g, []int{0, 1, 2}); l != 0 {
		t.Errorf("all layer-0 block -> %d", l)
	}
	if l := SwitchLayerFromBlock(g, []int{3, 4, 5}); l != 1 {
		t.Errorf("all layer-1 block -> %d", l)
	}
	// Mixed block: average of 0,0,1,1 = 0.5 rounds to 1 with our formula
	// ((2*2+4)/(2*4) = 8/8 = 1).
	if l := SwitchLayerFromBlock(g, []int{0, 1, 3, 4}); l != 1 {
		t.Errorf("mixed block -> %d, want 1", l)
	}
	if l := SwitchLayerFromBlock(g, []int{0, 3, 4}); l != 1 {
		t.Errorf("2/3 layer-1 block -> %d, want 1", l)
	}
	if l := SwitchLayerFromBlock(g, nil); l != 0 {
		t.Errorf("empty block -> %d, want 0", l)
	}
}

func TestSwitchLayerMajority(t *testing.T) {
	g := paperExampleDesign(t)
	if l := SwitchLayerMajority(g, []int{0, 1, 5}); l != 0 {
		t.Errorf("majority layer = %d, want 0", l)
	}
	if l := SwitchLayerMajority(g, []int{0, 5}); l != 0 {
		t.Errorf("tie should go to lower layer, got %d", l)
	}
	if l := SwitchLayerMajority(g, []int{3, 5, 0}); l != 1 {
		t.Errorf("majority layer = %d, want 1", l)
	}
}
