package route

import (
	"sunfloor3d/internal/graph"
)

// costModel is the incrementally maintained routing cost graph of Algorithm 3.
// It keeps one arc record per ordered switch pair in a flat, row-major table
// that holds both ingredients of the arc cost:
//
//   - the immutable geometry — planar Manhattan length, crossed layers and
//     the pipeline-latency term, fixed once the switch exists; and
//   - the arcState — everything the router mutates while committing paths:
//     link existence, the port-opening power marginals, the hard-constraint
//     verdict and the SOFT_INF flags of CHECK_CONSTRAINTS.
//
// A commit therefore only has to refresh the states its bookkeeping updates
// invalidated instead of rebuilding all O(S^2) arc costs for every flow and
// deadlock retry. Costs are evaluated on demand per flow by arcCost, the one
// arc-cost formula, which the search and costModel.cost both call: a
// refreshed arc is bit-identical to a freshly built one, which the package's
// tests check against a router that builds a new model for every flow. An
// earlier formulation cached a state+slope*bw linearisation whose ULP-level
// rounding differences could flip Dijkstra ties on exactly equal-cost paths
// and make the two routers commit different (equally optimal) routes.
type costModel struct {
	r *router
	n int
	// arcs[i][j] is the arc (i, j). The rows are carved from one backing
	// array with room for the router's spare switches (see newSquare).
	arcs [][]arc
	// Search scratch space, reused across flows: distances, predecessors,
	// the unsettled switches in ascending order and the TSV term of each
	// layer span.
	dist []float64
	prev []int
	open []int
	tsv  []float64
	// Commit scratch space, reused across commits: the rows and columns to
	// refresh, and per layer boundary the number of links the commit opened
	// across it and whether that moved it across an ILL threshold.
	dirtyRow  []bool
	dirtyCol  []bool
	crossings []int
	boundary  []bool
}

// arc is one record of the cost model's arc table: the arc's mutable
// CHECK_CONSTRAINTS state and its immutable geometry.
type arc struct {
	arcState
	// planar is the Manhattan length of the link, latency its
	// pipeline-latency term and span the number of layers it crosses.
	planar, latency float64
	span            int
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
// the flow of ft (Infinity for a forbidden arc). It is the one arc-cost
// formula: the search and costModel.cost evaluate arcs through it, so they
// agree bit for bit and equal-cost path ties resolve identically.
func arcCost(a *arc, ft *flowTerms) float64 {
	if a.forbidden {
		return graph.Infinity
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

// newCostModel computes the geometry and state of every arc in one pass over
// the switch pairs. This is the only full O(S^2) pass of a run; everything
// after is incremental.
func newCostModel(r *router) *costModel {
	n := r.top.NumSwitches()
	spare := r.spareSwitches()
	m := &costModel{
		r:         r,
		n:         n,
		arcs:      newSquare(n, spare, arc{}),
		dist:      make([]float64, n, n+spare),
		prev:      make([]int, n, n+spare),
		open:      make([]int, n, n+spare),
		tsv:       make([]float64, len(r.ill)+1),
		dirtyRow:  make([]bool, n, n+spare),
		dirtyCol:  make([]bool, n, n+spare),
		crossings: make([]int, len(r.ill)),
		boundary:  make([]bool, len(r.ill)),
	}
	for i := 0; i < n; i++ {
		m.arcs[i][i].forbidden = true
		for j := i + 1; j < n; j++ {
			m.join(i, j)
		}
	}
	return m
}

// join fills the arcs (i, j) and (j, i) between two distinct switches. The
// geometry is computed once for both: Manhattan length, layer span and so
// pipeline stages are symmetric bit for bit, since a−b is exactly −(b−a) in
// IEEE arithmetic.
func (m *costModel) join(i, j int) {
	ij, ji := &m.arcs[i][j], &m.arcs[j][i]
	m.r.geometry(ij, i, j)
	ji.planar, ji.latency, ji.span = ij.planar, ij.latency, ij.span
	ij.arcState = m.r.arcState(i, j)
	ji.arcState = m.r.arcState(j, i)
}

// refresh recomputes the mutable state of the arc (i, j) from the router's
// current bookkeeping.
func (m *costModel) refresh(i, j int) {
	m.arcs[i][j].arcState = m.r.arcState(i, j)
}

// grow extends the model with one switch (the router just appended it to the
// topology) and computes the arcs to and from it.
func (m *costModel) grow() {
	n := m.n
	m.arcs = growSquare(m.arcs, arc{})
	m.arcs[n][n].forbidden = true
	m.n = n + 1
	for i := 0; i < n; i++ {
		m.join(i, n)
	}
	m.dist = append(m.dist, 0)
	m.prev = append(m.prev, 0)
	m.open = append(m.open, 0)
	m.dirtyRow = append(m.dirtyRow, false)
	m.dirtyCol = append(m.dirtyCol, false)
}

// shrink drops the last switch from the model (rolling back a failed indirect
// switch insertion). The table keeps its capacity for the next grow, which
// overwrites every re-appended arc.
func (m *costModel) shrink() {
	m.n--
	m.arcs = shrinkSquare(m.arcs)
	m.dist = m.dist[:m.n]
	m.prev = m.prev[:m.n]
	m.open = m.open[:m.n]
	m.dirtyRow = m.dirtyRow[:m.n]
	m.dirtyCol = m.dirtyCol[:m.n]
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
func (m *costModel) applyCommit(opened [][2]int) {
	t := m.r.top
	dirtyRow, dirtyCol, crossings, boundary := m.dirtyRow, m.dirtyCol, m.crossings, m.boundary
	for i := range dirtyRow {
		dirtyRow[i] = false
		dirtyCol[i] = false
	}
	for b := range crossings {
		crossings[b] = 0
	}
	cfg := m.r.cfg
	for _, l := range opened {
		dirtyRow[l[0]] = true
		dirtyCol[l[1]] = true
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
		now := m.r.ill[b]
		before := now - n
		boundary[b] = before < cfg.MaxILL && now >= cfg.MaxILL || before < soft && now >= soft
		anyBoundary = anyBoundary || boundary[b]
	}
	for i := 0; i < m.n; i++ {
		if !dirtyRow[i] {
			continue
		}
		for j := 0; j < m.n; j++ {
			if i != j {
				m.refresh(i, j)
			}
		}
	}
	for j := 0; j < m.n; j++ {
		if !dirtyCol[j] {
			continue
		}
		for i := 0; i < m.n; i++ {
			if i != j && !dirtyRow[i] {
				m.refresh(i, j)
			}
		}
	}
	if !anyBoundary {
		return
	}
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if i == j || dirtyRow[i] || dirtyCol[j] {
				continue
			}
			if m.crossesDirty(boundary, i, j) {
				m.refresh(i, j)
			}
		}
	}
}

// crossesDirty reports whether the arc (i, j) crosses any boundary marked
// dirty.
func (m *costModel) crossesDirty(boundary []bool, i, j int) bool {
	lo, hi := m.r.top.Switches[i].Layer, m.r.top.Switches[j].Layer
	if lo > hi {
		lo, hi = hi, lo
	}
	for b := lo; b < hi; b++ {
		if b >= 0 && b < len(boundary) && boundary[b] {
			return true
		}
	}
	return false
}

// cost returns the full arc cost at the given bandwidth (Infinity for
// forbidden arcs), through arcCost like the search.
func (m *costModel) cost(i, j int, bw float64) float64 {
	ft := m.r.terms(bw, m.tsv)
	return arcCost(&m.arcs[i][j], &ft)
}

// shortestPath runs Dijkstra over the arc table for a flow of bandwidth bw,
// skipping the arcs in forbidden (the deadlock-retry overlay, so retries
// need no graph mutation at all). Only the unsettled switches are scanned
// and relaxed: they are kept in an ascending list, so the min scan keeps the
// lowest index among equal distances and neighbours relax in ascending index
// order, making the returned path deterministic even between equal-cost
// alternatives. It returns (nil, Infinity) when dst is unreachable.
func (m *costModel) shortestPath(src, dst int, bw float64, forbidden [][2]int) ([]int, float64) {
	n := m.n
	dist, prev, open := m.dist[:n], m.prev[:n], m.open[:n]
	for i := range dist {
		dist[i] = graph.Infinity
		prev[i] = -1
		open[i] = i
	}
	dist[src] = 0
	ft := m.r.terms(bw, m.tsv)
	for {
		// Dense graph: the O(n) min scan beats a heap here.
		k, best := -1, graph.Infinity
		for x, i := range open {
			if dist[i] < best {
				k, best = x, dist[i]
			}
		}
		if k < 0 {
			break
		}
		u := open[k]
		if u == dst {
			break
		}
		// Remove u in place: swapping the last entry into its slot would
		// break the ascending order the tie-breaking relies on.
		open = append(open[:k], open[k+1:]...)
		row := m.arcs[u]
		for _, v := range open {
			a := &row[v]
			if a.forbidden || forbids(forbidden, u, v) {
				continue
			}
			if nd := best + arcCost(a, &ft); nd < dist[v] {
				dist[v] = nd
				prev[v] = u
			}
		}
	}
	if dist[dst] >= graph.Infinity {
		return nil, graph.Infinity
	}
	hops := 0
	for v := dst; v != src; v = prev[v] {
		hops++
	}
	path := make([]int, hops+1)
	for v, k := dst, hops; k >= 0; v, k = prev[v], k-1 {
		path[k] = v
	}
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
