package route

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sunfloor3d/internal/geom"
	"sunfloor3d/internal/graph"
	"sunfloor3d/internal/model"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/topology"
)

// referenceShortestPath is the plain dense Dijkstra the cost model's search
// must match: a settled array, a min scan over all n switches that keeps the
// lowest index among equal distances, relaxation in ascending index order, a
// forbidden-arc map and a reversed path buffer. Each arc cost comes from
// costModel.cost, so the reference shares the arc formula but none of the
// search's own bookkeeping.
func referenceShortestPath(m *costModel, src, dst int, bw float64, forbidden map[[2]int]bool) ([]int, float64) {
	n := m.n
	dist := make([]float64, n)
	prev := make([]int, n)
	settled := make([]bool, n)
	for i := 0; i < n; i++ {
		dist[i] = graph.Infinity
		prev[i] = -1
		settled[i] = false
	}
	dist[src] = 0
	for {
		u, best := -1, graph.Infinity
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
			c := m.cost(u, v, bw)
			if c >= graph.Infinity {
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
	if dist[dst] >= graph.Infinity {
		return nil, graph.Infinity
	}
	var rev []int
	for v := dst; v != -1; v = prev[v] {
		rev = append(rev, v)
	}
	path := make([]int, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path, dist[dst]
}

// oracleCase builds a routed-case topology and router configuration from
// rng. On a grid layout the switches sit on a regular grid with unit pitch
// and every flow has the same bandwidth, so many arcs and paths cost exactly
// the same and the search's tie-breaking decides the route. Otherwise the
// switch positions and bandwidths are random. In one case of three the cores
// sit on every other layer and links may join adjacent layers only, so the
// flows between core layers need indirect switches, which the router keeps
// when a flow routes through one and rolls back otherwise.
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
	return top, cfg
}

// FuzzShortestPathMatchesReference advances a router flow by flow over a
// random routed case, inserting an indirect switch where a flow fails (so
// the cost model grows and shrinks), and before every flow checks the cost
// model's search against referenceShortestPath: the same path and a
// Float64bits-equal cost, with no forbidden arc and then with up to four
// arcs of the reference's own path forbidden one after another, as deadlock
// retries forbid them.
func FuzzShortestPathMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 32; seed++ {
		f.Add(seed, true)
		f.Add(seed, false)
	}
	f.Fuzz(func(t *testing.T, seed int64, grid bool) {
		rng := rand.New(rand.NewSource(seed))
		top, cfg := oracleCase(t, rng, grid)
		r := &router{top: top, cfg: cfg}
		r.init()
		for _, fl := range top.Design.FlowsByBandwidth() {
			flow := top.Design.Flows[fl]
			src, dst := top.CoreAttach[flow.Src], top.CoreAttach[flow.Dst]
			if src != dst {
				checkSearch(t, rng, r.cost, src, dst, flow.BandwidthMBps)
			}
			if !r.routeFlow(fl) && cfg.AllowIndirectSwitches {
				r.tryWithIndirectSwitch(fl)
			}
		}
	})
}

// checkSearch compares the cost model's search with the reference for one
// source and destination, forbidding a random arc of the reference's path
// after each comparison, up to four arcs.
func checkSearch(t *testing.T, rng *rand.Rand, m *costModel, src, dst int, bw float64) {
	t.Helper()
	forbidden := make(map[[2]int]bool)
	var list [][2]int
	for k := 0; k <= 4; k++ {
		want, wantCost := referenceShortestPath(m, src, dst, bw, forbidden)
		got, gotCost := m.shortestPath(src, dst, bw, list)
		if !slices.Equal(got, want) || math.Float64bits(gotCost) != math.Float64bits(wantCost) {
			t.Fatalf("%d->%d bw=%v with %d forbidden arcs: got %v (cost %v), reference %v (cost %v)",
				src, dst, bw, len(forbidden), got, gotCost, want, wantCost)
		}
		if len(want) < 2 {
			return
		}
		hop := 1 + rng.Intn(len(want)-1)
		forbidden[[2]int{want[hop-1], want[hop]}] = true
		list = append(list, [2]int{want[hop-1], want[hop]})
	}
}
