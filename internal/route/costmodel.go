package route

import (
	"math"
	"slices"
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
// bit, since a−b is exactly −(b−a) in IEEE arithmetic.
func (r *router) join(i, j int) {
	ij, ji := &r.arcs[i][j], &r.arcs[j][i]
	r.geometry(ij, i, j)
	ij.blocked = r.cfg.AdjacentLayersOnly && ij.span >= 2
	*ji = *ij
	if r.allowed != nil {
		ij.blocked = ij.blocked || !r.allowed[i][j]
		ji.blocked = ji.blocked || !r.allowed[j][i]
	}
}

// shortestPath runs Dijkstra over the arc table for a flow of bandwidth bw,
// skipping the arcs in forbidden (the deadlock-retry overlay, so retries
// need no graph mutation at all). Only the unsettled switches are scanned
// and relaxed: they are kept in an ascending list, and the pass that relaxes
// the arcs out of the switch just settled also picks the next one to settle,
// the first of the smallest distances in that list, so ties go to the lowest
// index and neighbours relax in ascending index order, making the returned
// path deterministic even between equal-cost alternatives. Each arc is priced
// as it is relaxed: a new link's verdict is the largest of its tail's
// output-port, its head's input-port and its layers' max_ill verdicts. The
// path lives in the router's scratch until the next search. It returns (nil,
// infinity) when dst is unreachable.
func (r *router) shortestPath(src, dst int, bw float64, forbidden [][2]int) ([]int, float64) {
	n := len(r.sw)
	dist, prev := resize(r.dist, n, n), resize(r.prev, n, n)
	open := r.open[:0]
	for i := range dist {
		dist[i] = infinity
		prev[i] = -1
		open = append(open, i)
	}
	r.dist, r.prev, r.open = dist, prev, open
	dist[src] = 0
	ft := r.terms(bw, r.tsv)
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
					}
				}
			}
			if d < next {
				k, next = x, d
			}
		}
		if k < 0 {
			break
		}
		du = next
	}
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

// forbids reports whether the arc (u, v) is one of the deadlock-retry arcs.
func forbids(arcs [][2]int, u, v int) bool {
	for _, a := range arcs {
		if a[0] == u && a[1] == v {
			return true
		}
	}
	return false
}
