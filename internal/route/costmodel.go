package route

import (
	"sunfloor3d/internal/geom"
	"sunfloor3d/internal/graph"
)

// costModel is the incrementally maintained routing cost graph of Algorithm 3.
// For every arc (i, j) it caches the two ingredients of router.arcCost:
//
//   - the immutable geometry — planar Manhattan length, crossed layers and
//     the pipeline-latency term, fixed once the switch exists; and
//   - the arcState — everything the router mutates while committing paths:
//     link existence, the port-opening power marginals, the hard-constraint
//     verdict and the SOFT_INF flags of CHECK_CONSTRAINTS.
//
// A commit therefore only has to refresh the states its bookkeeping updates
// invalidated instead of rebuilding all O(S^2) arc costs for every flow and
// deadlock retry. Costs are evaluated on demand per flow by evalArc, which is
// the same code path router.arcCost itself uses — the incremental model is
// bit-identical to the full-rebuild reference by construction, not merely
// close: an earlier formulation cached a state+slope*bw linearisation whose
// ULP-level rounding differences could flip Dijkstra ties on exactly
// equal-cost paths and make the two routers commit different (equally
// optimal) routes.
type costModel struct {
	r *router
	n int
	// state[i][j] is the mutable CHECK_CONSTRAINTS outcome of the arc.
	state [][]arcState
	// planar[i][j], span[i][j] and latency[i][j] cache the arc geometry.
	planar  [][]float64
	span    [][]int
	latency [][]float64
	// Dijkstra scratch space, reused across flows.
	dist    []float64
	prev    []int
	settled []bool
	// Commit scratch space, reused across commits: the rows and columns to
	// refresh, and per layer boundary the number of links the commit opened
	// across it and whether that moved it across an ILL threshold.
	dirtyRow  []bool
	dirtyCol  []bool
	crossings []int
	boundary  []bool
}

// newCostModel computes the initial geometry and arc states for every switch
// pair. This is the only full O(S^2) pass of a run; everything after is
// incremental.
func newCostModel(r *router) *costModel {
	m := &costModel{r: r, crossings: make([]int, len(r.ill)), boundary: make([]bool, len(r.ill))}
	for len(m.state) < r.top.NumSwitches() {
		m.grow()
	}
	return m
}

// refresh recomputes the mutable state of the arc (i, j) from the router's
// current bookkeeping.
func (m *costModel) refresh(i, j int) {
	m.state[i][j] = m.r.arcState(i, j)
}

// geometry computes the immutable part of the arc (i, j).
func (m *costModel) geometry(i, j int) (planar float64, span int, latency float64) {
	t := m.r.top
	planar = geom.Manhattan(t.Switches[i].Pos, t.Switches[j].Pos)
	span = t.Switches[i].Layer - t.Switches[j].Layer
	if span < 0 {
		span = -span
	}
	latency = 1 + float64(t.Lib.LinkPipelineStages(planar, t.FreqMHz))
	return planar, span, latency
}

// grow extends the model with one switch (the router just appended it to the
// topology) and computes the arcs to and from it.
func (m *costModel) grow() {
	n := m.n
	for i := 0; i < n; i++ {
		planar, span, latency := m.geometry(i, n)
		m.state[i] = append(m.state[i], arcState{})
		m.planar[i] = append(m.planar[i], planar)
		m.span[i] = append(m.span[i], span)
		m.latency[i] = append(m.latency[i], latency)
	}
	m.state = append(m.state, make([]arcState, n+1))
	m.planar = append(m.planar, make([]float64, n+1))
	m.span = append(m.span, make([]int, n+1))
	m.latency = append(m.latency, make([]float64, n+1))
	for j := 0; j < n; j++ {
		m.planar[n][j], m.span[n][j], m.latency[n][j] = m.geometry(n, j)
	}
	m.n = n + 1
	m.state[n][n] = arcState{forbidden: true}
	for i := 0; i < n; i++ {
		m.refresh(i, n)
		m.refresh(n, i)
	}
	m.dist = append(m.dist, 0)
	m.prev = append(m.prev, 0)
	m.settled = append(m.settled, false)
	m.dirtyRow = append(m.dirtyRow, false)
	m.dirtyCol = append(m.dirtyCol, false)
}

// shrink drops the last switch from the model (rolling back a failed indirect
// switch insertion). The underlying arrays keep their capacity for the next
// grow, which overwrites every re-appended entry.
func (m *costModel) shrink() {
	m.n--
	m.state = m.state[:m.n]
	m.planar = m.planar[:m.n]
	m.span = m.span[:m.n]
	m.latency = m.latency[:m.n]
	for i := 0; i < m.n; i++ {
		m.state[i] = m.state[i][:m.n]
		m.planar[i] = m.planar[i][:m.n]
		m.span[i] = m.span[i][:m.n]
		m.latency[i] = m.latency[i][:m.n]
	}
	m.dist = m.dist[:m.n]
	m.prev = m.prev[:m.n]
	m.settled = m.settled[:m.n]
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
// forbidden arcs). It shares evalArc with router.arcCost, so the two agree
// bit for bit.
func (m *costModel) cost(i, j int, bw float64) float64 {
	return m.r.evalArc(m.state[i][j], m.planar[i][j], m.span[i][j], m.latency[i][j],
		wireFactor(m.r.top.Lib, bw), bw, m.r.softInf)
}

// shortestPath runs Dijkstra over the dense cached arc costs for a flow of
// bandwidth bw, skipping arcs in forbidden (the deadlock-retry overlay, so
// retries need no graph mutation at all). Neighbours relax in ascending index
// order, making the returned path deterministic even between equal-cost
// alternatives. It returns (nil, Infinity) when dst is unreachable.
func (m *costModel) shortestPath(src, dst int, bw float64, forbidden map[[2]int]bool) ([]int, float64) {
	n := m.n
	for i := 0; i < n; i++ {
		m.dist[i] = graph.Infinity
		m.prev[i] = -1
		m.settled[i] = false
	}
	m.dist[src] = 0
	wf := wireFactor(m.r.top.Lib, bw)
	softInf := m.r.softInf
	for {
		// Dense graph: the O(n) min scan beats a heap here.
		u, best := -1, graph.Infinity
		for i := 0; i < n; i++ {
			if !m.settled[i] && m.dist[i] < best {
				u, best = i, m.dist[i]
			}
		}
		if u < 0 || u == dst {
			break
		}
		m.settled[u] = true
		state, planar, span, latency := m.state[u], m.planar[u], m.span[u], m.latency[u]
		for v := 0; v < n; v++ {
			if m.settled[v] || state[v].forbidden {
				continue
			}
			if len(forbidden) > 0 && forbidden[[2]int{u, v}] {
				continue
			}
			c := m.r.evalArc(state[v], planar[v], span[v], latency[v], wf, bw, softInf)
			if nd := best + c; nd < m.dist[v] {
				m.dist[v] = nd
				m.prev[v] = u
			}
		}
	}
	if m.dist[dst] >= graph.Infinity {
		return nil, graph.Infinity
	}
	var rev []int
	for v := dst; v != -1; v = m.prev[v] {
		rev = append(rev, v)
	}
	path := make([]int, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path, m.dist[dst]
}
