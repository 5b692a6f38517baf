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
	"sync"

	"sunfloor3d/internal/geom"
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
	// AdjacentLayersOnly forbids physical links spanning two or more layers
	// (Phase 2 and technologies without multi-layer TSV stacks).
	AdjacentLayersOnly bool
	// PowerWeight and LatencyWeight blend the two objectives in the link
	// cost. They need not sum to one.
	PowerWeight, LatencyWeight float64
	// AllowIndirectSwitches lets the router insert extra switches when no
	// valid path exists under the switch-size constraint.
	AllowIndirectSwitches bool
	// StopAtFirstFailure makes ComputePaths return right after the first
	// flow it cannot route, even with an inserted indirect switch:
	// Result.Failed then holds that flow alone, and every flow after it in
	// routing order keeps an empty route. It is for attempts a caller keeps
	// only when every flow routes (the synthesis sweep's theta retries and
	// Phase-2 fallback steps), which then learn that they fail without
	// routing the rest. RepairRoutes clears it.
	StopAtFirstFailure bool
}

const (
	// softSwitchMargin is how many ports below Config.MaxSwitchSize the soft
	// switch-size threshold sits.
	softSwitchMargin = 1
	// maxDeadlockRetries bounds how many times a flow's path is recomputed
	// with penalised arcs after a channel-dependency cycle is detected.
	maxDeadlockRetries = 4
)

// DefaultConfig returns the configuration used by the experiments: a blend
// strongly favouring power (as in the paper's "most power-efficient" points),
// a soft inter-layer-link margin of 2, and indirect switch insertion enabled.
func DefaultConfig() Config {
	return Config{
		MaxILL:                0,
		SoftILLMargin:         2,
		MaxSwitchSize:         0,
		AdjacentLayersOnly:    false,
		PowerWeight:           1.0,
		LatencyWeight:         0.1,
		AllowIndirectSwitches: true,
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

// router carries the whole state of one ComputePaths or RepairRoutes run.
type router struct {
	top *topology.Topology
	cfg Config
	// tb is the memory the tables below are carved from (see tables).
	tb *tables

	// arcs[i][j] is the arc (i, j). The rows are carved from one backing
	// array with room for the router's spare switches (see squareRows).
	arcs [][]arc
	// sw[s] is the bookkeeping of switch s.
	sw []switchState
	// dist[s] and prev[s] are the search's distance to switch s and its
	// predecessor on the shortest path.
	dist []float64
	prev []int
	// ill[b] is the number of physical links crossing the boundary between
	// layers b and b+1 (switch-to-switch and core-to-switch).
	ill []int
	// cdg is the channel dependency graph of the committed routes, its
	// vertices the arcs' vertex fields.
	cdg      cdg
	deadlock int
	// softInf is the SOFT_INF penalty of Algorithm 3, fixed for the whole
	// run (it depends only on the design, library, frequency and weights).
	softInf float64
	// allowed, when non-nil, restricts routing to the directed arcs (i, j)
	// with allowed[i][j] set. It is the repair-mode overlay: on a fabricated
	// chip only the links that were actually built (minus the failed ones)
	// are usable, whatever their current cost would be. nil (the synthesis
	// case) allows every arc.
	allowed [][]bool

	// Scratch space reused across flows: the search's unsettled switches in
	// ascending order, the path it returns and the TSV term of each layer
	// span; the CDG edges a path adds (tails, heads); the links a commit
	// opens, and per layer boundary the number of them crossing it and
	// whether that moved the boundary across an ILL threshold.
	open, path   []int
	tsv          []float64
	tails, heads []int32
	opened       [][2]int
	crossings    []int
	boundary     []bool
}

// switchState is the router's bookkeeping of one switch.
type switchState struct {
	// inPorts and outPorts are the switch's port counts, and inMarginal and
	// outMarginal the power of opening one more port of each kind
	// (noclib.SwitchPortMarginalMW of the current count).
	inPorts, outPorts       int
	inMarginal, outMarginal float64
	// dirtyRow and dirtyCol mark the rows and columns of arcs a commit must
	// refresh.
	dirtyRow, dirtyCol bool
}

// ComputePaths assigns a route to every flow of the topology. Switches and
// core attachments must already be in place (and switch positions estimated);
// existing routes are discarded.
func ComputePaths(t *topology.Topology, cfg Config) (Result, error) {
	tb := tablePool.Get().(*tables)
	defer tablePool.Put(tb)
	return computePaths(t, cfg, tb)
}

// computePaths is ComputePaths with its router's tables carved from tb.
func computePaths(t *topology.Topology, cfg Config, tb *tables) (Result, error) {
	if t.NumSwitches() == 0 {
		return Result{}, fmt.Errorf("route: topology has no switches")
	}
	for c, sw := range t.CoreAttach {
		if sw < 0 || sw >= t.NumSwitches() {
			return Result{}, fmt.Errorf("route: core %d is not attached to a switch", c)
		}
	}
	r := &router{top: t, cfg: cfg, tb: tb}
	defer r.stash()
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
		if cfg.StopAtFirstFailure && len(res.Failed) > 0 {
			break
		}
	}
	sort.Ints(res.Failed)
	res.DeadlockRetries = r.deadlock
	return res, nil
}

// tables is the memory a router's tables are carved from: the arc table's
// backing array and row headers, the switch table, the search's distance,
// predecessor and unsettled slices and its path buffer. ComputePaths and
// RepairRoutes take one from tablePool and put it back when they finish, so
// a worker that routes one topology after another reuses the previous
// call's memory instead of allocating and zeroing an O(S^2) table per call.
// A router built without one (the package's tests build some) gets a new
// one.
type tables struct {
	cells            []arc
	rows             [][]arc
	sw               []switchState
	dist             []float64
	prev, open, path []int
}

// tablePool holds the tables of finished routers, about one per router
// running at the same time.
var tablePool = sync.Pool{New: func() any { return new(tables) }}

// stash leaves the router's slices in its tables for the next router, those
// that outgrew them (indirect switches beyond the spare room) included.
func (r *router) stash() {
	tb := r.tb
	tb.sw, tb.dist, tb.prev, tb.open, tb.path = r.sw, r.dist, r.prev, r.open, r.path
}

// resize returns s with length n and room for capacity elements, reusing
// its memory when it has that room. The elements keep whatever they held.
// A new array has at least twice the old room: a sweep routes its switch
// counts in ascending order, and every count would otherwise outgrow the
// tables the previous one left.
func resize[T any](s []T, n, capacity int) []T {
	if cap(s) < capacity {
		return make([]T, n, max(capacity, 2*cap(s)))
	}
	return s[:n]
}

// init seeds the bookkeeping with the core attachments (which are fixed
// before path computation) and empty switch-to-switch connectivity. Its
// tables may come from an earlier router, so init writes every cell a later
// step reads: each switch record, and each arc record whole, the diagonal's
// and each CDG vertex included. A reused table therefore routes exactly
// like a new one.
func (r *router) init() {
	t := r.top
	if r.tb == nil {
		r.tb = new(tables)
	}
	tb := r.tb
	layers := t.Design.NumLayers()
	for _, s := range t.Switches {
		if s.Layer+1 > layers {
			layers = s.Layer + 1
		}
	}
	if layers > 1 {
		r.ill = make([]int, layers-1)
	}
	n, spare := t.NumSwitches(), r.spareSwitches()
	r.sw = resize(tb.sw, n, n+spare)
	clear(r.sw)
	for c, s := range t.CoreAttach {
		r.sw[s].inPorts++
		r.sw[s].outPorts++
		r.addBoundaryCrossings(t.Design.Cores[c].Layer, t.Switches[s].Layer, 1)
	}
	for s := range r.sw {
		r.updateMarginals(s, s)
	}
	for f := range t.Routes {
		t.Routes[f] = topology.Route{Flow: f}
	}
	r.softInf = 10 * r.maxFlowCost()
	r.dist = resize(tb.dist, 0, n+spare)
	r.prev = resize(tb.prev, 0, n+spare)
	r.open = resize(tb.open, 0, n+spare)
	r.path = resize(tb.path, 0, n+spare)
	r.tsv = make([]float64, len(r.ill)+1)
	r.crossings = make([]int, len(r.ill))
	r.boundary = make([]bool, len(r.ill))

	// The arc table: the only full O(S^2) pass of a run; everything after
	// is incremental.
	stride := n + spare
	tb.cells = resize(tb.cells, stride*stride, stride*stride)
	tb.rows = resize(tb.rows, stride, stride)
	r.arcs = squareRows(tb.cells, tb.rows, n, spare)
	for i := 0; i < n; i++ {
		r.arcs[i][i] = arc{arcState: arcState{forbidden: true}, vertex: -1}
		for j := i + 1; j < n; j++ {
			r.join(i, j)
		}
	}
}

// spareSwitchCount is how many inserted indirect switches the router's
// tables have room for before growing one must reallocate them.
const spareSwitchCount = 2

// spareSwitches returns the room the router's tables keep for indirect
// switches: none when the router may not insert any.
func (r *router) spareSwitches() int {
	if !r.cfg.AllowIndirectSwitches {
		return 0
	}
	return spareSwitchCount
}

// newSquare returns an n×n matrix with every cell set to fill, with room
// for spare more rows and columns (see squareRows).
func newSquare[T comparable](n, spare int, fill T) [][]T {
	stride := n + spare
	rows := squareRows(make([]T, stride*stride), make([][]T, stride), n, spare)
	var zero T
	if fill != zero {
		for _, row := range rows {
			for j := range row {
				row[j] = fill
			}
		}
	}
	return rows
}

// squareRows carves an n×n matrix out of cells, which holds (n+spare)^2
// cells, into the row headers rows, which holds n+spare: every row has room
// for spare more columns, and the spare rows' headers wait in rows beyond n,
// so the first spare growSquare calls append in place. The cells keep
// whatever they held.
func squareRows[T any](cells []T, rows [][]T, n, spare int) [][]T {
	stride := n + spare
	for i := range rows {
		rows[i] = cells[i*stride : i*stride+n : (i+1)*stride]
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

// addSwitch extends the router with one switch that has no ports and no
// links (the router just appended it to the topology) and computes the arcs
// to and from it.
func (r *router) addSwitch() {
	n := len(r.sw)
	r.sw = append(r.sw, switchState{})
	r.updateMarginals(n, n)
	r.arcs = growSquare(r.arcs, arc{})
	r.arcs[n][n].forbidden = true
	for i := 0; i < n; i++ {
		r.join(i, n)
	}
}

// dropSwitch drops the last switch from the router (rolling back a failed
// indirect switch insertion), its arcs and their CDG vertices included: a
// future switch reusing its ID starts from clean links. The tables keep
// their capacity for the next addSwitch, which overwrites every re-appended
// record.
func (r *router) dropSwitch() {
	r.sw = r.sw[:len(r.sw)-1]
	r.arcs = shrinkSquare(r.arcs)
}

// updateMarginals recomputes the cached port-opening marginals of the output
// ports of switch out and the input ports of switch in.
func (r *router) updateMarginals(out, in int) {
	lib, f := r.top.Lib, r.top.FreqMHz
	r.sw[out].outMarginal = lib.SwitchPortMarginalMW(r.sw[out].outPorts, f)
	r.sw[in].inMarginal = lib.SwitchPortMarginalMW(r.sw[in].inPorts, f)
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
// arcCost needs beyond the (immutable) arc geometry. The router keeps one
// arcState per arc and refreshes it only when a commit invalidates it.
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
// arc (i, j) against the router's current bookkeeping. exists is the arc's
// link-existence bit, which the returned state carries unchanged, forbidden
// arcs included, so a refresh never drops it.
func (r *router) arcState(i, j int, exists bool) arcState {
	forbidden := arcState{forbidden: true, exists: exists}
	if i == j || r.allowed != nil && !r.allowed[i][j] {
		return forbidden
	}
	t := r.top
	li, lj := t.Switches[i].Layer, t.Switches[j].Layer
	span := li - lj
	if span < 0 {
		span = -span
	}
	st := arcState{exists: exists}

	if span > 0 {
		// Hard constraint: adjacency and max_ill.
		if r.cfg.AdjacentLayersOnly && span >= 2 {
			return forbidden
		}
		if r.cfg.MaxILL > 0 && !exists {
			cur := r.boundaryMax(li, lj)
			if cur >= r.cfg.MaxILL {
				return forbidden
			}
			if cur >= r.cfg.MaxILL-r.cfg.SoftILLMargin {
				st.soft = true
			}
		}
	}
	if exists {
		return st
	}
	// Switch size constraints apply when a new link must be opened (a new
	// output port on i and a new input port on j).
	out, in := r.sw[i].outPorts+1, r.sw[j].inPorts+1
	if limit := r.cfg.MaxSwitchSize; limit > 0 {
		if out > limit || in > limit {
			return forbidden
		}
		if out > limit-softSwitchMargin || in > limit-softSwitchMargin {
			st.soft = true
		}
	}
	// Opening a link costs the extra ports on both switches: a new input
	// port on j and a new output port on i. The closed-form marginal depends
	// only on its own dimension's count, so a commit that grows the other
	// dimension of i or j cannot silently invalidate this arc.
	st.openJ = r.sw[j].inMarginal
	st.openI = r.sw[i].outMarginal
	return st
}

// geometry fills in the immutable part of the arc (i, j): the planar
// Manhattan length, the number of layers crossed and the pipeline-latency
// term.
func (r *router) geometry(a *arc, i, j int) {
	t := r.top
	a.planar = geom.Manhattan(t.Switches[i].Pos, t.Switches[j].Pos)
	span := t.Switches[i].Layer - t.Switches[j].Layer
	if span < 0 {
		span = -span
	}
	a.span = int32(span)
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
	for try := 0; try <= maxDeadlockRetries; try++ {
		path, cost := r.shortestPath(src, dst, fl.BandwidthMBps, forbidden)
		if path == nil || cost >= infinity {
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
		a := r.linkVertex(path[i-2], path[i-1])
		b := r.linkVertex(path[i-1], path[i])
		if r.cdg.addEdge(a, b) {
			tails, heads = append(tails, a), append(heads, b)
		}
	}
	r.tails, r.heads = tails, heads
	// The CDG of the committed routes is acyclic before every check, so any
	// cycle now passes through a new edge and is reachable from its head.
	if !r.cdg.cycleFrom(heads) {
		return [2]int{}, false
	}
	for e := len(tails) - 1; e >= 0; e-- {
		r.cdg.dropLastEdge(tails[e])
	}
	// Forbid the middle arc of the path; re-routing around it usually breaks
	// the cycle while keeping source and destination reachable.
	mid := len(path) / 2
	return [2]int{path[mid-1], path[mid]}, true
}

// linkVertex returns the CDG vertex of the directed link (i, j), adding one
// if the link has none yet.
func (r *router) linkVertex(i, j int) int32 {
	a := &r.arcs[i][j]
	if a.vertex < 0 {
		a.vertex = r.cdg.addVertex()
	}
	return a.vertex
}

// commit records the route and updates link, port and inter-layer-link
// bookkeeping, then refreshes the arcs those updates invalidated.
func (r *router) commit(f int, path []int) {
	t := r.top
	opened := r.opened[:0]
	for i := 1; i < len(path); i++ {
		from, to := path[i-1], path[i]
		if a := &r.arcs[from][to]; !a.exists {
			a.exists = true
			r.sw[from].outPorts++
			r.sw[to].inPorts++
			r.updateMarginals(from, to)
			r.addBoundaryCrossings(t.Switches[from].Layer, t.Switches[to].Layer, 1)
			opened = append(opened, [2]int{from, to})
		}
	}
	r.opened = opened
	t.SetRoute(f, path)
	if len(opened) > 0 {
		r.applyCommit(opened)
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
	// the switch drops the arcs that held them.
	t.Switches = t.Switches[:id]
	r.dropSwitch()
	return routed, false
}
