package route

import (
	"math"
	"slices"
)

// infinity is the cost of an unreachable switch and of a forbidden arc (the
// paper's INF hard threshold in Algorithm 3).
const infinity = math.MaxFloat64

// arc is one record of the router's arc table, which keeps one per ordered
// switch pair in a flat, row-major table. It holds both ingredients of the
// Algorithm 3 arc cost:
//
//   - the immutable geometry — planar Manhattan length, crossed layers and
//     the pipeline-latency term, fixed once the switch exists; and
//   - the arcState — everything the router mutates while committing paths:
//     link existence, the port-opening power marginals, the hard-constraint
//     verdict and the SOFT_INF flags of CHECK_CONSTRAINTS;
//
// and the link's vertex in the channel dependency graph.
//
// A commit therefore only has to refresh the states its bookkeeping updates
// invalidated instead of rebuilding all O(S^2) arc costs for every flow and
// deadlock retry. Costs are evaluated on demand per flow by arcCost, the one
// arc-cost formula: a refreshed arc is bit-identical to a freshly built one,
// which the package's tests check against a router that rebuilds the table
// from the committed routes before every flow. An earlier formulation cached
// a state+slope*bw linearisation whose ULP-level rounding differences could
// flip Dijkstra ties on exactly equal-cost paths and make the two routers
// commit different (equally optimal) routes.
type arc struct {
	arcState
	// planar is the Manhattan length of the link, latency its
	// pipeline-latency term and span the number of layers it crosses.
	planar, latency float64
	span            int32
	// vertex is the link's CDG vertex, or -1 while no path has used or
	// tried the link.
	vertex int32
}

// flowTerms are the constants of arcCost for one flow, computed once per
// search: the planar wire power per millimetre, the two objective weights,
// the SOFT_INF penalty, and tsv[s], the TSV power of a link crossing s
// layers.
type flowTerms struct {
	wire, powerWeight, latencyWeight, softInf float64
	tsv                                       []float64
}

// arcCost combines an arc's state and geometry into its routing cost for
// the flow of ft (infinity for a forbidden arc). It is the one arc-cost
// formula, so equal-cost path ties resolve identically wherever arcs are
// evaluated.
func arcCost(a *arc, ft *flowTerms) float64 {
	if a.forbidden {
		return infinity
	}
	power := a.planar*ft.wire + ft.tsv[a.span]
	if !a.exists {
		power += a.openJ
		power += a.openI
	}
	cost := ft.powerWeight*power + ft.latencyWeight*a.latency
	if a.soft {
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
	ji.planar, ji.latency, ji.span = ij.planar, ij.latency, ij.span
	ij.vertex, ji.vertex = -1, -1
	ij.arcState = r.arcState(i, j, false)
	ji.arcState = r.arcState(j, i, false)
}

// refresh recomputes the mutable state of the arc (i, j) from the router's
// current bookkeeping.
func (r *router) refresh(i, j int) {
	a := &r.arcs[i][j]
	a.arcState = r.arcState(i, j, a.exists)
}

// applyCommit refreshes the arcs invalidated by a committed path that opened
// the given new links: every arc leaving a switch whose output ports grew,
// every arc entering a switch whose input ports grew (this includes the new
// links themselves, whose existence flag flipped), and every arc crossing a
// layer boundary whose inter-layer-link count the commit moved across one of
// arcState's two thresholds, MaxILL-SoftILLMargin and MaxILL. arcState reads
// the count only through those two comparisons and counts only grow within a
// run, so a boundary that crossed neither leaves every arc over it unchanged.
//
// Refreshing only row i / column j per grown port relies on the port-opening
// marginal (noclib.SwitchPortMarginalMW) depending only on its own port
// dimension — bit-exactly, not merely mathematically — so an outPorts[i]
// change cannot alter arcs (*, i) and an inPorts[j] change cannot alter arcs
// (j, *). If the power model ever couples the dimensions (e.g. crossbar-
// style in*out, as SwitchAreaMM2 does for area), both the row and the
// column of every grown switch must be refreshed here.
func (r *router) applyCommit(opened [][2]int) {
	t, cfg, sw := r.top, r.cfg, r.sw
	crossings, boundary := r.crossings, r.boundary
	for i := range sw {
		sw[i].dirtyRow = false
		sw[i].dirtyCol = false
	}
	clear(crossings)
	for _, l := range opened {
		sw[l[0]].dirtyRow = true
		sw[l[1]].dirtyCol = true
		if cfg.MaxILL <= 0 {
			continue // arc costs ignore ILL occupancy when unconstrained
		}
		lo, hi := t.Switches[l[0]].Layer, t.Switches[l[1]].Layer
		if lo > hi {
			lo, hi = hi, lo
		}
		for b := lo; b < hi; b++ {
			if b >= 0 && b < len(crossings) {
				crossings[b]++
			}
		}
	}
	anyBoundary := false
	soft := cfg.MaxILL - cfg.SoftILLMargin
	for b, n := range crossings {
		now := r.ill[b]
		before := now - n
		boundary[b] = before < cfg.MaxILL && now >= cfg.MaxILL || before < soft && now >= soft
		anyBoundary = anyBoundary || boundary[b]
	}
	for i := range sw {
		if !sw[i].dirtyRow {
			continue
		}
		for j := range sw {
			if i != j {
				r.refresh(i, j)
			}
		}
	}
	for j := range sw {
		if !sw[j].dirtyCol {
			continue
		}
		for i := range sw {
			if i != j && !sw[i].dirtyRow {
				r.refresh(i, j)
			}
		}
	}
	if !anyBoundary {
		return
	}
	for i := range sw {
		for j := range sw {
			if i == j || sw[i].dirtyRow || sw[j].dirtyCol {
				continue
			}
			if r.crossesDirty(i, j) {
				r.refresh(i, j)
			}
		}
	}
}

// crossesDirty reports whether the arc (i, j) crosses any layer boundary
// applyCommit marked dirty.
func (r *router) crossesDirty(i, j int) bool {
	lo, hi := r.top.Switches[i].Layer, r.top.Switches[j].Layer
	if lo > hi {
		lo, hi = hi, lo
	}
	for b := lo; b < hi; b++ {
		if b >= 0 && b < len(r.boundary) && r.boundary[b] {
			return true
		}
	}
	return false
}

// shortestPath runs Dijkstra over the arc table for a flow of bandwidth bw,
// skipping the arcs in forbidden (the deadlock-retry overlay, so retries
// need no graph mutation at all). Only the unsettled switches are scanned
// and relaxed: they are kept in an ascending list, and the pass that relaxes
// the arcs out of the switch just settled also picks the next one to settle,
// the first of the smallest distances in that list, so ties go to the lowest
// index and neighbours relax in ascending index order, making the returned
// path deterministic even between equal-cost alternatives. The path lives in
// the router's scratch until the next search. It returns (nil, infinity)
// when dst is unreachable.
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
		// Dense graph: a min kept while relaxing beats a heap here.
		next := infinity
		k = -1
		for x, v := range open {
			d := dist[v]
			if a := &row[v]; !a.forbidden && !forbids(forbidden, u, v) {
				if nd := du + arcCost(a, &ft); nd < d {
					d = nd
					dist[v], prev[v] = nd, u
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
