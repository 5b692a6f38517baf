package route

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sunfloor3d/internal/geom"
	"sunfloor3d/internal/model"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/topology"
)

// referenceShortestPath is the plain dense Dijkstra the router's search
// must match: a settled array, a min scan over all n switches that keeps the
// lowest index among equal distances, relaxation in ascending index order, a
// forbidden-arc map and a reversed path buffer. Each arc cost comes from
// router.cost, so the reference shares the arc formula but none of the
// search's own bookkeeping. It also returns the switches it settled before
// reaching dst.
func referenceShortestPath(r *router, src, dst int, bw float64, forbidden map[[2]int]bool) ([]int, float64, []bool) {
	n := len(r.sw)
	dist := make([]float64, n)
	prev := make([]int, n)
	settled := make([]bool, n)
	for i := 0; i < n; i++ {
		dist[i] = infinity
		prev[i] = -1
		settled[i] = false
	}
	dist[src] = 0
	for {
		u, best := -1, infinity
		for i := 0; i < n; i++ {
			if !settled[i] && dist[i] < best {
				u, best = i, dist[i]
			}
		}
		if u < 0 || u == dst {
			break
		}
		settled[u] = true
		for v := 0; v < n; v++ {
			if settled[v] {
				continue
			}
			c := r.cost(u, v, bw)
			if c >= infinity {
				continue
			}
			if len(forbidden) > 0 && forbidden[[2]int{u, v}] {
				continue
			}
			if nd := best + c; nd < dist[v] {
				dist[v] = nd
				prev[v] = u
			}
		}
	}
	if dist[dst] >= infinity {
		return nil, infinity, settled
	}
	var rev []int
	for v := dst; v != -1; v = prev[v] {
		rev = append(rev, v)
	}
	path := make([]int, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path, dist[dst], settled
}

// oracleCase builds a routed-case topology and router configuration from
// rng. On a grid layout the switches sit on a regular grid with unit pitch
// and every flow has the same bandwidth, so many arcs and paths cost exactly
// the same and the search's tie-breaking decides the route. Otherwise the
// switch positions and bandwidths are random. In one case of three the cores
// sit on every other layer and links may join adjacent layers only, so the
// flows between core layers need indirect switches, which the router keeps
// when a flow routes through one and rolls back otherwise.
//
// Three variations, drawn last, probe the search's lower bound and its
// guard. In one case of four the switches move onto multiples of the
// library's 1.5 mm reach, so link lengths sit exactly on pipeline-stage
// boundaries, and in another onto 0.1 mm steps, whose Manhattan sums round
// across them. In one case of three some switches share their layer's first
// switch's position, which makes an existing link between them cost nothing
// when LatencyWeight is 0. In one case of two both objective weights are
// drawn from {0, 1e-300, 1e-3, 0.1, 1, 1e6, 1e12}.
func oracleCase(t *testing.T, rng *rand.Rand, grid bool) (*topology.Topology, Config) {
	t.Helper()
	layers := 1 + rng.Intn(3)
	perLayer := 2 + rng.Intn(7)
	step := 1
	if rng.Intn(3) == 0 {
		step = 2
	}
	var cores []model.Core
	for l := 0; l < layers; l++ {
		for i := 0; i < perLayer; i++ {
			cores = append(cores, model.Core{
				Name:  coreName(l, i),
				Width: 1, Height: 1,
				X: float64(rng.Intn(6)), Y: float64(rng.Intn(6)), Layer: l * step,
			})
		}
	}
	n := len(cores)
	bw := func() float64 {
		if grid {
			return 200
		}
		return 50 + rng.Float64()*900
	}
	var flows []model.Flow
	if rng.Intn(2) == 0 {
		// A ring over all cores: its routes close channel-dependency
		// cycles, so the router retries flows with forbidden arcs.
		for c := 0; c < n; c++ {
			flows = append(flows, model.Flow{Src: c, Dst: (c + 1) % n, BandwidthMBps: bw()})
		}
	}
	for f := 0; f < n+rng.Intn(2*n); f++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			continue
		}
		flows = append(flows, model.Flow{Src: src, Dst: dst, BandwidthMBps: bw()})
	}
	if len(flows) == 0 {
		flows = append(flows, model.Flow{Src: 0, Dst: 1, BandwidthMBps: 200})
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	top := topology.New(g, noclib.DefaultLibrary(), 400+float64(rng.Intn(3))*200)
	swPerLayer := 1 + rng.Intn(6)
	cols := 1 + rng.Intn(3)
	sw := make([][]int, layers)
	for l := 0; l < layers; l++ {
		for s := 0; s < swPerLayer; s++ {
			id := top.AddSwitch(l * step)
			if grid {
				top.Switches[id].Pos = geom.Point{X: float64(s % cols), Y: float64(s / cols)}
			} else {
				top.Switches[id].Pos = geom.Point{X: rng.Float64() * 6, Y: rng.Float64() * 6}
			}
			sw[l] = append(sw[l], id)
		}
	}
	for c := range cores {
		top.AttachCore(c, sw[cores[c].Layer/step][rng.Intn(swPerLayer)])
	}
	cfg := DefaultConfig()
	if rng.Intn(2) == 0 {
		cfg.MaxILL = 2 + rng.Intn(6)
	}
	if rng.Intn(2) == 0 {
		cfg.MaxSwitchSize = 3 + rng.Intn(5)
	}
	cfg.AdjacentLayersOnly = step == 2 || rng.Intn(3) == 0

	switch rng.Intn(4) {
	case 0:
		for s := range top.Switches {
			top.Switches[s].Pos = geom.Point{X: 1.5 * float64(rng.Intn(5)), Y: 1.5 * float64(rng.Intn(4))}
		}
	case 1:
		for s := range top.Switches {
			top.Switches[s].Pos = geom.Point{X: 0.1 * float64(rng.Intn(70)), Y: 0.1 * float64(rng.Intn(50))}
		}
	}
	if rng.Intn(3) == 0 {
		for _, ids := range sw {
			for _, id := range ids[1:] {
				if rng.Intn(2) == 0 {
					top.Switches[id].Pos = top.Switches[ids[0]].Pos
				}
			}
		}
	}
	if rng.Intn(2) == 0 {
		weights := []float64{0, 1e-300, 1e-3, 0.1, 1, 1e6, 1e12}
		cfg.PowerWeight = weights[rng.Intn(len(weights))]
		cfg.LatencyWeight = weights[rng.Intn(len(weights))]
	}
	return top, cfg
}

// FuzzShortestPathMatchesReference advances a router flow by flow over a
// random routed case, inserting an indirect switch where a flow fails (so
// the arc table grows and shrinks), and before every flow checks the
// router's search against referenceShortestPath (see checkSearch). Its
// seeds are the first 32 cases of both layouts and three more. Among the
// first 32, (7, true) and (10, false) fail a search without the tie rule,
// and (7, false) and (10, false) one whose bound is not scaled by hScale.
// (51, false) fails a search without the guard; (64, false) fails one that
// keeps the bound where the guard rules it out but applies the tie rule
// only where it allows it; and (228471, false), found in a scan of 1.4
// million cases, fails a latency floor that is not shortened (a.fewer
// ignored): it needs latency-dominated weights, 0.1 mm steps whose
// rounded Manhattan sums close a stage, and a tie that the overestimate
// hides.
func FuzzShortestPathMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 32; seed++ {
		f.Add(seed, true)
		f.Add(seed, false)
	}
	for _, seed := range []int64{51, 64, 228471} {
		f.Add(seed, false)
	}
	f.Fuzz(func(t *testing.T, seed int64, grid bool) {
		searchOracleCase(t, seed, grid)
	})
}

// searchOracleCase routes the oracle case of seed and grid flow by flow,
// checks the search before every flow (see checkSearch) and returns how
// many switches the search and the reference settled in all.
func searchOracleCase(t *testing.T, seed int64, grid bool) (settled, refSettled int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	top, cfg := oracleCase(t, rng, grid)
	r := &router{top: top, cfg: cfg}
	r.init()
	for _, fl := range top.Design.FlowsByBandwidth() {
		flow := top.Design.Flows[fl]
		src, dst := top.CoreAttach[flow.Src], top.CoreAttach[flow.Dst]
		if src != dst {
			s, rs := checkSearch(t, rng, r, src, dst, flow.BandwidthMBps)
			settled, refSettled = settled+s, refSettled+rs
		}
		if !r.routeFlow(fl) && cfg.AllowIndirectSwitches {
			r.tryWithIndirectSwitch(fl)
		}
	}
	return settled, refSettled
}

// checkSearch compares the router's search with the reference for one
// source and destination: the same path and a Float64bits-equal cost, and
// every switch the search settled one that the reference settles before
// dst. It compares with no forbidden arc and then with up to four arcs of
// the reference's own path forbidden one after another, as deadlock retries
// forbid them, and returns how many switches the search and the reference
// settled over those searches.
func checkSearch(t *testing.T, rng *rand.Rand, r *router, src, dst int, bw float64) (settled, refSettled int) {
	t.Helper()
	forbidden := make(map[[2]int]bool)
	var list [][2]int
	for k := 0; k <= 4; k++ {
		want, wantCost, refDone := referenceShortestPath(r, src, dst, bw, forbidden)
		got, gotCost := r.shortestPath(src, dst, bw, list)
		if !slices.Equal(got, want) || math.Float64bits(gotCost) != math.Float64bits(wantCost) {
			t.Fatalf("%d->%d bw=%v with %d forbidden arcs: got %v (cost %v), reference %v (cost %v)",
				src, dst, bw, len(forbidden), got, gotCost, want, wantCost)
		}
		// The switches the search settled are those its scratch no longer
		// lists as unsettled.
		done := make([]bool, len(r.sw))
		for v := range done {
			done[v] = !slices.Contains(r.open, v)
		}
		for v := range done {
			if done[v] && !refDone[v] {
				t.Fatalf("%d->%d bw=%v with %d forbidden arcs: the search settled switch %d, which the reference does not settle",
					src, dst, bw, len(forbidden), v)
			}
			if done[v] {
				settled++
			}
			if refDone[v] {
				refSettled++
			}
		}
		if len(want) < 2 {
			return settled, refSettled
		}
		hop := 1 + rng.Intn(len(want)-1)
		forbidden[[2]int{want[hop-1], want[hop]}] = true
		list = append(list, [2]int{want[hop-1], want[hop]})
	}
	return settled, refSettled
}

// TestSearchSettlesFewerSwitches runs the fuzz target's seed cases and
// requires the goal-directed search to settle fewer switches in all than the
// reference Dijkstra; checkSearch already requires each one to be a switch
// the reference settles.
func TestSearchSettlesFewerSwitches(t *testing.T) {
	settled, refSettled := 0, 0
	for seed := int64(1); seed <= 32; seed++ {
		for _, grid := range []bool{true, false} {
			s, rs := searchOracleCase(t, seed, grid)
			settled, refSettled = settled+s, refSettled+rs
		}
	}
	t.Logf("the search settled %d switches, the reference %d (ratio %.3f)", settled, refSettled, float64(settled)/float64(refSettled))
	if settled >= refSettled {
		t.Fatalf("the search settled %d switches, no fewer than the reference's %d", settled, refSettled)
	}
}
