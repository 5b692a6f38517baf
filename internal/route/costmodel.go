package route

import (
	"math"
	"slices"

	"sunfloor3d/internal/noclib"
)

// infinity is the cost of an unreachable switch and of a forbidden arc (the
// paper's INF hard threshold in Algorithm 3).
const infinity = math.MaxFloat64

// arc is one record of the router's arc table, which keeps one per ordered
// switch pair in a flat, row-major table. It holds what no commit changes —
// the geometry (planar Manhattan length, crossed layers and the
// pipeline-latency term) and whether a rule of the run forbids the link
// outright — and the two things a commit sets on the links its path uses:
// whether the link exists and its vertex in the channel dependency graph.
//
// Everything else the Algorithm 3 arc cost reads changes with the committed
// routes, and each part is a function of something smaller than the arc:
// the port-opening marginals and the max_sw_size verdicts of one switch's
// port count (kept in its switchState) and the max_ill verdict of the two
// endpoints' layers (kept in the router's illVerdict table). The search
// prices each arc from them when it relaxes it, through arcCost, the one
// arc-cost formula, so a commit updates a few switch records and at most
// the small layer table and never touches an arc beyond the links it opens.
// The package's tests check the prices against a router that derives all of
// that state from the committed routes before every flow. An earlier
// formulation cached a state+slope*bw linearisation whose ULP-level rounding
// differences could flip Dijkstra ties on exactly equal-cost paths and make
// the two routers commit different (equally optimal) routes.
type arc struct {
	// planar is the Manhattan length of the link, latency its
	// pipeline-latency term and span the number of layers it crosses.
	planar, latency float64
	span            int32
	// vertex is the link's CDG vertex, or -1 while no path has used or
	// tried the link.
	vertex int32
	// exists reports whether the physical link already carries traffic.
	exists bool
	// blocked marks an arc no path may use in this run: the diagonal, an
	// arc outside the repair overlay and, with Config.AdjacentLayersOnly, a
	// link spanning two or more layers.
	blocked bool
	// fewer reports that a link shorter than planar by a relative 2^-30
	// needs one pipeline stage fewer, so the search's lower bound counts
	// latency-1 cycles for the arc (see lowerBounds).
	fewer bool
}

// verdict is the CHECK_CONSTRAINTS outcome of Algorithm 3 for opening a
// link against one of its limits. A link's verdict is the largest of its
// limits'.
type verdict uint8

const (
	// verdictNone leaves the arc cost as it is.
	verdictNone verdict = iota
	// verdictSoft adds the SOFT_INF penalty.
	verdictSoft
	// verdictHard forbids the link (the INF threshold).
	verdictHard
)

// limitVerdict returns the verdict on a count that opening a link would
// reach: hard above limit, soft above limit-margin, none otherwise or when
// limit is 0 (unconstrained).
func limitVerdict(count, limit, margin int) verdict {
	switch {
	case limit <= 0:
		return verdictNone
	case count > limit:
		return verdictHard
	case count > limit-margin:
		return verdictSoft
	}
	return verdictNone
}

// flowTerms are the constants of arcCost for one flow, computed once per
// search: the planar wire power per millimetre, the two objective weights,
// the SOFT_INF penalty, and tsv[s], the TSV power of a link crossing s
// layers.
type flowTerms struct {
	wire, powerWeight, latencyWeight, softInf float64
	tsv                                       []float64
}

// arcCost is the routing cost of the arc a for the flow of ft when no hard
// limit forbids it: in and out are the marginals of a new input port at its
// head and a new output port at its tail, charged only when the link does
// not exist yet, and soft adds SOFT_INF. It is the one arc-cost formula, so
// equal-cost path ties resolve identically wherever arcs are evaluated.
func arcCost(a *arc, in, out float64, soft bool, ft *flowTerms) float64 {
	power := a.planar*ft.wire + ft.tsv[a.span]
	if !a.exists {
		power += in
		power += out
	}
	cost := ft.powerWeight*power + ft.latencyWeight*a.latency
	if soft {
		cost += ft.softInf
	}
	return cost
}

// join fills the new arcs (i, j) and (j, i) between two distinct switches,
// whose links do not exist yet. The geometry is computed once for both:
// Manhattan length, layer span and so pipeline stages are symmetric bit for
// bit, since a−b is exactly −(b−a) in IEEE arithmetic. It keeps the longest
// planar length of the table in farthest, for goalDirected.
func (r *router) join(i, j int) {
	ij, ji := &r.arcs[i][j], &r.arcs[j][i]
	r.geometry(ij, i, j)
	r.farthest = max(r.farthest, ij.planar)
	ij.blocked = r.cfg.AdjacentLayersOnly && ij.span >= 2
	*ji = *ij
	if r.allowed != nil {
		ij.blocked = ij.blocked || !r.allowed[i][j]
		ji.blocked = ji.blocked || !r.allowed[j][i]
	}
}

const (
	// hScale scales the search's lower bound below the bound itself, so
	// that h(u) ≤ c(u, v) + h(v) − (1−hScale)·c(u, v) on every arc: the
	// slack that lets the search settle switches in Dijkstra's order (see
	// shortestPath).
	hScale = 1 - 0x1p-20
	// shortened is the relative length of the link whose pipeline stages
	// give an arc's latency floor (arc.fewer).
	shortened = 1 - 0x1p-30
	// goalMargin is how far goalDirected requires the bound's slack to
	// exceed the rounding of the costs the search compares.
	goalMargin = 0x1p10
	// goalStages caps the pipeline stages of the longest arc for which
	// goalDirected allows the bound. Below it the 2^-30 shortening drops at
	// most one stage, so arc.fewer is a bit, and it outweighs the rounding
	// of Manhattan lengths (see lowerBounds).
	goalStages = 1 << 16
)

// lowerBounds fills h with the search's lower bound on the cost of any
// path from each switch to dst for the flow of ft, read from the arc
// table's dst row, or with zeros when goalDirected ruled the bound out for
// this call. For v ≠ dst, with a the arc (dst, v), which has the geometry of
// (v, dst) bit for bit (see join),
//
//	h[v] = hScale·(pw·(a.planar·wire + tsv[a.span]) + lw·floor(a)),
//
// where floor(a) is a.latency, less one when a.fewer: 1 plus the pipeline
// stages of a link shorter than a.planar by a relative 2^-30. h[dst] is 0.
//
// Without hScale, the bound is consistent: h[u] ≤ c(u, v) + h[v] for every
// arc (u, v) the search can relax, with c its arcCost. In exact arithmetic
// that holds term by term: Manhattan lengths and layer spans obey the
// triangle inequality and the wire and TSV terms are linear in them with
// non-negative factors; stages are ⌈len/reach⌉−1, so stages(x+y) ≤
// stages(x) + stages(y) + 1, which is 1+stages(x+y) ≤ (1+stages(x)) +
// (1+stages(y)); and the port marginals and SOFT_INF that c adds are ≥ 0.
// Floating-point Manhattan lengths are off by a few ulps, which can carry a
// sum across a stage boundary and cost a whole lw where the rest of the
// rounding costs a few ulps: floor's shortened length absorbs that. For an
// arc (u, v) longer than 2^-18 of v's distance to dst, the 2^-30 taken off
// both distances to dst exceeds the rounding of the three lengths, so the
// stage inequality holds for the computed lengths. A shorter arc is, below
// goalStages, under a quarter of a reach, so u's floor exceeds v's by one
// stage at most, which the arc's own latency (≥ 1) pays. The rest of the
// rounding is covered by hScale's slack (see goalDirected).
func (r *router) lowerBounds(h []float64, dst int, ft *flowTerms) {
	if !r.goal {
		clear(h)
		return
	}
	row := r.arcs[dst][:len(h)]
	for v := range row {
		a := &row[v]
		floor := a.latency
		if a.fewer {
			floor--
		}
		h[v] = hScale * (ft.powerWeight*(a.planar*ft.wire+ft.tsv[a.span]) + ft.latencyWeight*floor)
	}
	h[dst] = 0
}

// goalDirected is the guard of the search's lower bound, checked once per
// routing call and again when an indirect switch joins the table. It
// reports whether hScale's slack, at least (1−hScale)·LatencyWeight on a
// path of one arc or more, exceeds by goalMargin the rounding of every cost
// the search compares. Each arc costs at most arcMax (from the longest
// planar length and its latency, the design's largest bandwidth, both port
// marginals, the widest TSV term and SOFT_INF), a path has fewer than chain
// arcs (the switch count with the spare room), so a sum along it is below
// chain·arcMax and its chain roundings err by chain·chain·arcMax·2^-53 at
// most; a dist+h sum and the bound's own evaluation add a few arcMax·2^-53.
// It also requires every term the bound leaves out to be ≥ 0 and the
// longest arc below goalStages. When it fails — LatencyWeight 0, a negative
// PowerWeight, a NaN or an overflow anywhere — lowerBounds writes zeros and
// the search is Dijkstra itself.
func (r *router) goalDirected() bool {
	t, cfg := r.top, r.cfg
	lib := &t.Lib
	bw := 0.0
	for _, f := range t.Design.Flows {
		if !(f.BandwidthMBps >= 0) {
			return false
		}
		bw = max(bw, f.BandwidthMBps)
	}
	port := lib.SwitchPortMarginalMW(1, t.FreqMHz)
	stages := noclib.PipelineStages(r.farthest, r.reach)
	if !(cfg.PowerWeight >= 0 && cfg.LatencyWeight > 0 && port >= 0 && r.softInf >= 0 &&
		lib.WirePowerMWPerMMPerGBps >= 0 && lib.WireLeakagePowerMWPerMM >= 0 &&
		lib.TSVPowerMWPerGBps >= 0) || stages >= goalStages {
		return false
	}
	wire := lib.WirePowerMWPerMMPerGBps*bw/1000.0 + lib.WireLeakagePowerMWPerMM
	tsv := float64(r.levels-1) * lib.TSVPowerMWPerGBps * bw / 1000.0
	arcMax := cfg.PowerWeight*(r.farthest*wire+tsv+2*port) + cfg.LatencyWeight*float64(1+stages) + r.softInf
	chain := float64(len(r.sw) + r.spareSwitches())
	return (1-hScale)*cfg.LatencyWeight > goalMargin*chain*chain*arcMax*0x1p-53
}

// shortestPath returns the cheapest path from src to dst for a flow of
// bandwidth bw and its cost, skipping the arcs in forbidden (the
// deadlock-retry overlay, so retries need no graph mutation at all), or
// (nil, infinity) when dst is unreachable. The path lives in the router's
// scratch until the next search. Path and cost are exactly, bit for bit,
// those of the plain Dijkstra search that settles switches by ascending
// distance, ties to the lowest index, and keeps the first predecessor that
// reaches a switch's final distance; this search settles a subset of its
// switches.
//
// It is goal-directed (A*): it settles the unsettled switch with the
// smallest dist+h, ties to the lowest index, with h the consistent lower
// bound of lowerBounds, and stops when it settles dst. Only the unsettled
// switches are scanned and relaxed: they are kept in an ascending list, and
// the pass that relaxes the arcs out of the switch just settled also picks
// the next one to settle. Each arc is priced as it is relaxed: a new link's
// verdict is the largest of its tail's output-port, its head's input-port
// and its layers' max_ill verdicts.
//
// Why the result is Dijkstra's. Under goalDirected's guard every arc costs
// about LatencyWeight or more, far above the rounding of any sum, so Dijkstra
// settles by ascending (distance, index) and a switch v's predecessor is,
// of the switches u with dist[u]+c(u, v) == dist[v] (v's tie candidates),
// the one with the smallest (dist[u], u). Along any path from a switch w to
// v the bound loses at least (1−hScale)·LatencyWeight, more than the
// rounding, so an open switch w whose distance is final and that lies on a
// cheapest path to v has a smaller dist+h than v: v settles only at its
// final distance, after every tie candidate (each one ends such a path),
// and only when its distance is below dst's, since h ≥ hScale·LatencyWeight
// off dst. The tie rule keeps Dijkstra's predecessor although the
// candidates relax v in dist+h order: on nd == dist[v], prev[v] becomes u
// when (dist[u], u) < (dist[prev[v]], prev[v]). With h all zeros the
// search is Dijkstra itself, whose first predecessor is already the one to
// keep, and the rule is off: with zero-cost arcs (LatencyWeight 0) Dijkstra
// can settle a higher index first at one distance.
func (r *router) shortestPath(src, dst int, bw float64, forbidden [][2]int) ([]int, float64) {
	n := len(r.sw)
	dist, prev, h := resize(r.dist, n, n), resize(r.prev, n, n), resize(r.h, n, n)
	open := r.open[:0]
	for i := range dist {
		dist[i] = infinity
		prev[i] = -1
		open = append(open, i)
	}
	r.dist, r.prev, r.h = dist, prev, h
	dist[src] = 0
	ft := r.terms(bw, r.tsv)
	r.lowerBounds(h, dst, &ft)
	goal := r.goal
	sw, levels := r.sw, r.levels
	// src, at distance 0, is the first switch to settle; open[src] is src.
	k, du := src, 0.0
	for {
		u := open[k]
		if u == dst {
			break
		}
		// Remove u in place: swapping the last entry into its slot would
		// break the ascending order the tie-breaking relies on.
		open = append(open[:k], open[k+1:]...)
		row := r.arcs[u]
		out, outVerdict := sw[u].outMarginal, sw[u].outVerdict
		ills := r.illVerdict[sw[u].level*levels : (sw[u].level+1)*levels]
		// Dense graph: a min kept while relaxing beats a heap here.
		next := infinity
		k = -1
		for x, v := range open {
			d := dist[v]
			if a := &row[v]; !a.blocked && !forbids(forbidden, u, v) {
				s := &sw[v]
				vd := verdictNone
				if !a.exists {
					vd = max(outVerdict, s.inVerdict, ills[s.level])
				}
				if vd != verdictHard {
					if nd := du + arcCost(a, s.inMarginal, out, vd == verdictSoft, &ft); nd < d {
						d = nd
						dist[v], prev[v] = nd, u
					} else if nd == d && goal && settlesFirst(dist, u, prev[v]) {
						prev[v] = u
					}
				}
			}
			if f := d + h[v]; f < next {
				k, next = x, f
			}
		}
		if k < 0 {
			break
		}
		du = dist[open[k]]
	}
	// The unsettled switches stay in the scratch until the next search.
	r.open = open
	if dist[dst] >= infinity {
		return nil, infinity
	}
	path := r.path[:0]
	for v := dst; v != src; v = prev[v] {
		path = append(path, v)
	}
	path = append(path, src)
	slices.Reverse(path)
	r.path = path
	return path, dist[dst]
}

// settlesFirst reports whether Dijkstra settles u before p when every arc
// raises the distance: (dist[u], u) < (dist[p], p).
func settlesFirst(dist []float64, u, p int) bool {
	return dist[u] < dist[p] || dist[u] == dist[p] && u < p
}

// forbids reports whether the arc (u, v) is one of the deadlock-retry arcs.
func forbids(arcs [][2]int, u, v int) bool {
	for _, a := range arcs {
		if a[0] == u && a[1] == v {
			return true
		}
	}
	return false
}
