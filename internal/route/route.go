// Package route implements the path-computation step of Section VI of the
// paper: establishing physical links between switches and assigning a path to
// every traffic flow, driven by the marginal power and latency cost of using
// or opening each link, while honouring the 3-D technology constraints of
// Algorithm 3 (maximum inter-layer links, maximum switch size, both with hard
// INF and soft SOFT_INF thresholds) and keeping the routes free of routing
// deadlocks via a channel-dependency-graph acyclicity check. When the switch
// size constraint cannot be met, indirect switches are inserted to connect
// other switches together, as described at the end of Section VI.
package route

import (
	"fmt"
	"sort"

	"sunfloor3d/internal/geom"
	"sunfloor3d/internal/graph"
	"sunfloor3d/internal/topology"
)

// Config controls the path computation.
type Config struct {
	// MaxILL is the maximum number of links allowed to cross any adjacent
	// layer boundary (the paper's max_ill). Zero means unconstrained.
	MaxILL int
	// SoftILLMargin is how many links below MaxILL the soft threshold sits
	// (the paper found 2-3 to work well).
	SoftILLMargin int
	// MaxSwitchSize is the maximum number of input or output ports per
	// switch (max_sw_size). Zero means unconstrained.
	MaxSwitchSize int
	// SoftSwitchMargin is how many ports below MaxSwitchSize the soft
	// threshold sits.
	SoftSwitchMargin int
	// AdjacentLayersOnly forbids physical links spanning two or more layers
	// (Phase 2 and technologies without multi-layer TSV stacks).
	AdjacentLayersOnly bool
	// PowerWeight and LatencyWeight blend the two objectives in the link
	// cost. They need not sum to one.
	PowerWeight, LatencyWeight float64
	// AllowIndirectSwitches lets the router insert extra switches when no
	// valid path exists under the switch-size constraint.
	AllowIndirectSwitches bool
	// MaxDeadlockRetries bounds how many times a flow's path is recomputed
	// with penalised arcs after a channel-dependency cycle is detected.
	MaxDeadlockRetries int
}

// DefaultConfig returns the configuration used by the experiments: a blend
// strongly favouring power (as in the paper's "most power-efficient" points),
// soft margins of 2, and indirect switch insertion enabled.
func DefaultConfig() Config {
	return Config{
		MaxILL:                0,
		SoftILLMargin:         2,
		MaxSwitchSize:         0,
		SoftSwitchMargin:      1,
		AdjacentLayersOnly:    false,
		PowerWeight:           1.0,
		LatencyWeight:         0.1,
		AllowIndirectSwitches: true,
		MaxDeadlockRetries:    4,
	}
}

// Result reports what the router did.
type Result struct {
	// Routed is the number of flows that received a valid path.
	Routed int
	// Failed lists the flows that could not be routed under the constraints.
	Failed []int
	// IndirectSwitches is the number of switches added by the router.
	IndirectSwitches int
	// DeadlockRetries counts path recomputations forced by channel
	// dependency cycles.
	DeadlockRetries int
}

// Success reports whether every flow was routed.
func (r Result) Success() bool { return len(r.Failed) == 0 }

// router carries the mutable state of one ComputePaths run.
type router struct {
	top *topology.Topology
	cfg Config

	// link[from][to] reports whether the directed physical link between two
	// switches exists, that is, carries a committed route.
	link [][]bool
	// ill[b] is the number of physical links crossing the boundary between
	// layers b and b+1 (switch-to-switch and core-to-switch).
	ill []int
	// inPorts/outPorts track current switch sizes, and inMarginal/
	// outMarginal the power of opening one more port of each kind
	// (noclib.SwitchPortMarginalMW of the current count).
	inPorts, outPorts       []int
	inMarginal, outMarginal []float64
	// cdg is the channel dependency graph: one vertex per directed
	// switch-to-switch link, an edge when some flow uses two links in
	// sequence. linkIdx[from][to] is the CDG vertex of the directed link, or
	// -1 while the link has none.
	cdg      *graph.Graph
	linkIdx  [][]int32
	deadlock int
	// tails and heads (the CDG edges a path adds) and opened (the links a
	// commit opens) are per-attempt scratch lists.
	tails, heads []int
	opened       [][2]int
	// softInf is the SOFT_INF penalty of Algorithm 3, fixed for the whole
	// run (it depends only on the design, library, frequency and weights).
	softInf float64
	// allowed, when non-nil, restricts routing to the directed arcs (i, j)
	// with allowed[i][j] set. It is the repair-mode overlay: on a fabricated
	// chip only the links that were actually built (minus the failed ones)
	// are usable, whatever their current cost would be. nil (the synthesis
	// case) allows every arc.
	allowed [][]bool
	// cost is the incrementally maintained arc-cost graph.
	cost *costModel
}

// ComputePaths assigns a route to every flow of the topology. Switches and
// core attachments must already be in place (and switch positions estimated);
// existing routes are discarded.
func ComputePaths(t *topology.Topology, cfg Config) (Result, error) {
	if t.NumSwitches() == 0 {
		return Result{}, fmt.Errorf("route: topology has no switches")
	}
	for c, sw := range t.CoreAttach {
		if sw < 0 || sw >= t.NumSwitches() {
			return Result{}, fmt.Errorf("route: core %d is not attached to a switch", c)
		}
	}
	r := &router{top: t, cfg: cfg}
	r.init()

	var res Result
	// Route flows in decreasing bandwidth order so the heaviest flows get the
	// cheapest paths (same strategy as the 2-D flow of [16]).
	for _, f := range t.Design.FlowsByBandwidth() {
		if ok := r.routeFlow(f); ok {
			res.Routed++
		} else if cfg.AllowIndirectSwitches {
			routed, kept := r.tryWithIndirectSwitch(f)
			if routed {
				res.Routed++
				if kept {
					res.IndirectSwitches++
				}
			} else {
				res.Failed = append(res.Failed, f)
			}
		} else {
			res.Failed = append(res.Failed, f)
		}
	}
	sort.Ints(res.Failed)
	res.DeadlockRetries = r.deadlock
	return res, nil
}

// init seeds the bookkeeping with the core attachments (which are fixed
// before path computation) and empty switch-to-switch connectivity.
func (r *router) init() {
	t := r.top
	layers := t.Design.NumLayers()
	for _, s := range t.Switches {
		if s.Layer+1 > layers {
			layers = s.Layer + 1
		}
	}
	if layers > 1 {
		r.ill = make([]int, layers-1)
	}
	n := t.NumSwitches()
	r.inPorts, r.outPorts = make([]int, n), make([]int, n)
	r.inMarginal, r.outMarginal = make([]float64, n), make([]float64, n)
	r.link = newSquare(n, r.spareSwitches(), false)
	r.linkIdx = newSquare(n, r.spareSwitches(), int32(-1))
	r.cdg = graph.New(0)

	for c, sw := range t.CoreAttach {
		r.inPorts[sw]++
		r.outPorts[sw]++
		r.addBoundaryCrossings(t.Design.Cores[c].Layer, t.Switches[sw].Layer, 1)
	}
	for s := range t.Switches {
		r.updateMarginals(s, s)
	}
	for f := range t.Routes {
		t.Routes[f] = topology.Route{Flow: f}
	}
	r.softInf = 10 * r.maxFlowCost()
	r.cost = newCostModel(r)
}

// spareSwitchCount is how many inserted indirect switches the router's
// per-pair tables have room for before growing one must reallocate them.
const spareSwitchCount = 2

// spareSwitches returns the room the router's per-pair tables keep for
// indirect switches: none when the router may not insert any.
func (r *router) spareSwitches() int {
	if !r.cfg.AllowIndirectSwitches {
		return 0
	}
	return spareSwitchCount
}

// newSquare returns an n×n matrix with every cell set to fill. Its rows are
// carved from one backing array with room for spare more rows and columns,
// so the first spare growSquare calls append in place.
func newSquare[T comparable](n, spare int, fill T) [][]T {
	stride := n + spare
	cells := make([]T, stride*stride)
	rows := make([][]T, stride)
	for i := range rows {
		rows[i] = cells[i*stride : i*stride+n : (i+1)*stride]
	}
	var zero T
	if fill != zero {
		for _, row := range rows[:n] {
			for j := range row {
				row[j] = fill
			}
		}
	}
	return rows[:n]
}

// growSquare adds a last row and column of fill values to a matrix.
func growSquare[T comparable](rows [][]T, fill T) [][]T {
	n := len(rows)
	for i := range rows {
		rows[i] = append(rows[i], fill)
	}
	var row []T
	if n < cap(rows) {
		row = rows[:n+1][n][:0] // the spare row newSquare or shrinkSquare left
	}
	for j := 0; j <= n; j++ {
		row = append(row, fill)
	}
	return append(rows, row)
}

// shrinkSquare drops the last row and column of a matrix. Their cells keep
// their memory for the next growSquare, which overwrites them.
func shrinkSquare[T comparable](rows [][]T) [][]T {
	n := len(rows) - 1
	rows = rows[:n]
	for i := range rows {
		rows[i] = rows[i][:n]
	}
	return rows
}

// addSwitch extends the per-switch bookkeeping with one switch that has no
// ports and no links.
func (r *router) addSwitch() {
	n := len(r.link)
	r.inPorts = append(r.inPorts, 0)
	r.outPorts = append(r.outPorts, 0)
	r.inMarginal = append(r.inMarginal, 0)
	r.outMarginal = append(r.outMarginal, 0)
	r.updateMarginals(n, n)
	r.link = growSquare(r.link, false)
	r.linkIdx = growSquare(r.linkIdx, -1)
}

// dropSwitch drops the last switch from the per-switch bookkeeping, link
// identities included: a future switch reusing its ID starts from a clean
// link identity.
func (r *router) dropSwitch() {
	n := len(r.link) - 1
	r.inPorts = r.inPorts[:n]
	r.outPorts = r.outPorts[:n]
	r.inMarginal = r.inMarginal[:n]
	r.outMarginal = r.outMarginal[:n]
	r.link = shrinkSquare(r.link)
	r.linkIdx = shrinkSquare(r.linkIdx)
}

// updateMarginals recomputes the cached port-opening marginals of the output
// ports of switch out and the input ports of switch in.
func (r *router) updateMarginals(out, in int) {
	lib, f := r.top.Lib, r.top.FreqMHz
	r.outMarginal[out] = lib.SwitchPortMarginalMW(r.outPorts[out], f)
	r.inMarginal[in] = lib.SwitchPortMarginalMW(r.inPorts[in], f)
}

// addBoundaryCrossings adds delta to every adjacent-layer boundary crossed
// between layers a and b.
func (r *router) addBoundaryCrossings(a, b, delta int) {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	for l := lo; l < hi; l++ {
		if l >= 0 && l < len(r.ill) {
			r.ill[l] += delta
		}
	}
}

// boundaryMax returns the maximum ill over the boundaries crossed between
// layers a and b (0 if none).
func (r *router) boundaryMax(a, b int) int {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	m := 0
	for l := lo; l < hi; l++ {
		if l >= 0 && l < len(r.ill) && r.ill[l] > m {
			m = r.ill[l]
		}
	}
	return m
}

// maxFlowCost estimates the largest possible "reasonable" arc cost; SOFT_INF
// is ten times this value, per the paper.
func (r *router) maxFlowCost() float64 {
	t := r.top
	// Longest possible wire: chip diagonal estimate from core bounding box.
	var maxX, maxY float64
	for _, c := range t.Design.Cores {
		if x := c.X + c.Width; x > maxX {
			maxX = x
		}
		if y := c.Y + c.Height; y > maxY {
			maxY = y
		}
	}
	maxDist := maxX + maxY
	maxBW := t.Design.MaxBandwidth()
	cost := r.cfg.PowerWeight*(t.Lib.WirePowerMW(maxDist, maxBW)+
		t.Lib.SwitchPowerMW(2, 2, t.FreqMHz, maxBW)) +
		r.cfg.LatencyWeight*10
	if cost <= 0 {
		cost = 1
	}
	return cost
}

// arcState is the mutable CHECK_CONSTRAINTS outcome of one arc: everything
// arcCost needs beyond the (immutable) arc geometry. The incremental
// cost model caches one arcState per arc and refreshes it only when a commit
// invalidates it.
type arcState struct {
	// forbidden marks arcs that violate a hard constraint (Infinity cost).
	forbidden bool
	// exists reports whether the physical link already carries traffic.
	exists bool
	// soft marks arcs inside a SOFT_INF threshold of Algorithm 3.
	soft bool
	// openJ and openI are the port-opening power marginals charged when the
	// link does not exist yet: a new input port on j and a new output port
	// on i.
	openJ, openI float64
}

// arcState evaluates the CHECK_CONSTRAINTS thresholds of Algorithm 3 for the
// arc (i, j) against the router's current bookkeeping.
func (r *router) arcState(i, j int) arcState {
	if i == j {
		return arcState{forbidden: true}
	}
	if r.allowed != nil && !r.allowed[i][j] {
		return arcState{forbidden: true}
	}
	t := r.top
	li, lj := t.Switches[i].Layer, t.Switches[j].Layer
	span := li - lj
	if span < 0 {
		span = -span
	}
	st := arcState{exists: r.link[i][j]}

	if span > 0 {
		// Hard constraint: adjacency and max_ill.
		if r.cfg.AdjacentLayersOnly && span >= 2 {
			return arcState{forbidden: true}
		}
		if r.cfg.MaxILL > 0 && !st.exists {
			cur := r.boundaryMax(li, lj)
			if cur >= r.cfg.MaxILL {
				return arcState{forbidden: true}
			}
			if cur >= r.cfg.MaxILL-r.cfg.SoftILLMargin {
				st.soft = true
			}
		}
	}
	// Switch size constraints apply when a new link must be opened (a new
	// output port on i and a new input port on j).
	if !st.exists && r.cfg.MaxSwitchSize > 0 {
		if r.outPorts[i]+1 > r.cfg.MaxSwitchSize || r.inPorts[j]+1 > r.cfg.MaxSwitchSize {
			return arcState{forbidden: true}
		}
		if r.outPorts[i]+1 > r.cfg.MaxSwitchSize-r.cfg.SoftSwitchMargin ||
			r.inPorts[j]+1 > r.cfg.MaxSwitchSize-r.cfg.SoftSwitchMargin {
			st.soft = true
		}
	}
	if !st.exists {
		// Opening a link costs the extra ports on both switches: a new input
		// port on j and a new output port on i. The closed-form marginal
		// depends only on its own dimension's count, so a commit that grows
		// the other dimension of i or j cannot silently invalidate this arc.
		st.openJ = r.inMarginal[j]
		st.openI = r.outMarginal[i]
	}
	return st
}

// geometry fills in the immutable part of the arc (i, j): the planar
// Manhattan length, the number of layers crossed and the pipeline-latency
// term.
func (r *router) geometry(a *arc, i, j int) {
	t := r.top
	a.planar = geom.Manhattan(t.Switches[i].Pos, t.Switches[j].Pos)
	a.span = t.Switches[i].Layer - t.Switches[j].Layer
	if a.span < 0 {
		a.span = -a.span
	}
	a.latency = 1 + float64(t.Lib.LinkPipelineStages(a.planar, t.FreqMHz))
}

// terms returns the constants of arcCost for a flow of bandwidth bw,
// filling tsv, which needs one entry per layer span, with the TSV terms.
func (r *router) terms(bw float64, tsv []float64) flowTerms {
	lib := r.top.Lib
	for s := range tsv {
		tsv[s] = float64(s) * lib.TSVPowerMWPerGBps * bw / 1000.0
	}
	return flowTerms{
		// The per-millimetre planar wire power: the parenthesised factor of
		// noclib.WirePowerMW.
		wire:          lib.WirePowerMWPerMMPerGBps*bw/1000.0 + lib.WireLeakagePowerMWPerMM,
		powerWeight:   r.cfg.PowerWeight,
		latencyWeight: r.cfg.LatencyWeight,
		softInf:       r.softInf,
		tsv:           tsv,
	}
}

// routeFlow computes and commits a path for flow f. It returns false when no
// valid deadlock-free path exists.
func (r *router) routeFlow(f int) bool {
	t := r.top
	fl := t.Design.Flows[f]
	src := t.CoreAttach[fl.Src]
	dst := t.CoreAttach[fl.Dst]
	if src == dst {
		t.SetRoute(f, []int{src})
		return true
	}

	// The deadlock-retry arcs: at most one per retry, so a short list that
	// the search checks without hashing.
	var forbidden [][2]int
	for try := 0; try <= r.cfg.MaxDeadlockRetries; try++ {
		path, cost := r.cost.shortestPath(src, dst, fl.BandwidthMBps, forbidden)
		if path == nil || cost >= graph.Infinity {
			return false
		}
		if bad, cyclic := r.deadlockArc(path); cyclic {
			// Penalise the arc that closed a cycle and retry.
			forbidden = append(forbidden, bad)
			r.deadlock++
			continue
		}
		r.commit(f, path)
		return true
	}
	return false
}

// deadlockArc tentatively adds the path's channel dependencies to the CDG and
// returns an arc of the path to forbid and true if a cycle would be created
// (false if the path is safe). The tentative edges are removed before
// returning when a cycle is found.
func (r *router) deadlockArc(path []int) ([2]int, bool) {
	if len(path) < 3 {
		return [2]int{}, false // a single link cannot create a new dependency
	}
	tails, heads := r.tails[:0], r.heads[:0]
	for i := 2; i < len(path); i++ {
		a := r.ensureLinkVertex(path[i-2], path[i-1])
		b := r.ensureLinkVertex(path[i-1], path[i])
		if !r.cdg.HasEdge(a, b) {
			r.cdg.AddEdge(a, b, 1)
			tails, heads = append(tails, a), append(heads, b)
		}
	}
	r.tails, r.heads = tails, heads
	// The CDG of the committed routes is acyclic before every check, so any
	// cycle now passes through a new edge and is reachable from its head.
	if !r.cdg.HasCycleFrom(heads) {
		return [2]int{}, false
	}
	for e, a := range tails {
		r.cdg.RemoveEdge(a, heads[e])
	}
	// Forbid the middle arc of the path; re-routing around it usually breaks
	// the cycle while keeping source and destination reachable.
	mid := len(path) / 2
	return [2]int{path[mid-1], path[mid]}, true
}

// ensureLinkVertex returns the CDG vertex of the directed link (i, j),
// growing the CDG if the link is new.
func (r *router) ensureLinkVertex(i, j int) int {
	if v := r.linkIdx[i][j]; v >= 0 {
		return int(v)
	}
	v := r.cdg.Grow(1)
	r.linkIdx[i][j] = int32(v)
	return v
}

// commit records the route and updates link, port and inter-layer-link
// bookkeeping, then refreshes the cost-graph arcs those updates invalidated.
func (r *router) commit(f int, path []int) {
	t := r.top
	opened := r.opened[:0]
	for i := 1; i < len(path); i++ {
		from, to := path[i-1], path[i]
		if !r.link[from][to] {
			r.link[from][to] = true
			r.outPorts[from]++
			r.inPorts[to]++
			r.updateMarginals(from, to)
			r.addBoundaryCrossings(t.Switches[from].Layer, t.Switches[to].Layer, 1)
			opened = append(opened, [2]int{from, to})
		}
	}
	r.opened = opened
	t.SetRoute(f, path)
	if len(opened) > 0 {
		r.cost.applyCommit(opened)
	}
}

// tryWithIndirectSwitch adds an indirect switch between the source and
// destination switches of the failed flow and retries the routing once. This
// mirrors the paper's insertion of indirect switches when the
// max_switch_size constraint cannot be met directly. It returns whether the
// flow was routed and whether the inserted switch was kept: the insertion is
// rolled back — restoring the topology (switch list, port counts, power and
// area) to exactly its pre-attempt state — both when the retry still fails
// and when the retry happens to commit a path that never traverses the new
// switch (a fresh deadlock-retry sequence can succeed on existing switches
// alone; keeping the unused switch would pollute the point's metrics).
func (r *router) tryWithIndirectSwitch(f int) (routed, kept bool) {
	t := r.top
	fl := t.Design.Flows[f]
	src := t.CoreAttach[fl.Src]
	dst := t.CoreAttach[fl.Dst]
	if src == dst {
		return false, false
	}
	// Place the new switch between the two endpoints, on an intermediate
	// layer when the endpoints are on different layers.
	ls, ld := t.Switches[src].Layer, t.Switches[dst].Layer
	layer := (ls + ld) / 2
	id := t.AddIndirectSwitch(layer)
	t.Switches[id].Pos = geom.Point{
		X: (t.Switches[src].Pos.X + t.Switches[dst].Pos.X) / 2,
		Y: (t.Switches[src].Pos.Y + t.Switches[dst].Pos.Y) / 2,
	}
	r.addSwitch()
	r.cost.grow()
	routed = r.routeFlow(f)
	if routed {
		for _, s := range t.Routes[f].Switches {
			if s == id {
				return true, true
			}
		}
		// Routed without the new switch: no committed link touches it, so
		// the insertion can be undone like a failed retry.
	}
	// Undoing the insertion restores the pre-attempt state: nothing involving
	// the switch was committed. CDG vertices created for candidate links
	// through the removed switch keep their (edge-free) slots, but dropping
	// the switch drops their linkIdx entries.
	t.Switches = t.Switches[:id]
	r.dropSwitch()
	r.cost.shrink()
	return routed, false
}
