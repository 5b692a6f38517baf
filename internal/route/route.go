// Package route implements the path-computation step of Section VI of the
// paper: establishing physical links between switches and assigning a path to
// every traffic flow, driven by the marginal power and latency cost of using
// or opening each link, while honouring the 3-D technology constraints of
// Algorithm 3 (maximum inter-layer links, maximum switch size, both with hard
// INF and soft SOFT_INF thresholds) and keeping the routes free of routing
// deadlocks via a channel-dependency-graph acyclicity check. When the switch
// size constraint cannot be met, indirect switches are inserted to connect
// other switches together, as described at the end of Section VI.
//
// Each flow takes a minimum-cost path, found by a goal-directed (A*) search
// that returns exactly the path and the bit-identical cost of a plain
// Dijkstra that settles switches by ascending distance, ties to the lowest
// index. Its lower bound on the cost from a switch to the destination is
// read from the arc table's destination row: the wire and TSV power and the
// latency of the direct link, with the latency of a link shorter by a
// relative 2^-30 so that a rounded Manhattan sum cannot cross a
// pipeline-stage boundary, scaled by 1−2^-20. The bound is consistent, and
// the scaling leaves a slack of at least 2^-20·LatencyWeight along any path,
// so every switch settles at Dijkstra's distance, after all of its
// equal-cost predecessors and only when Dijkstra settles it too. A tie rule
// keeps Dijkstra's predecessor among those predecessors. A guard, checked
// once per routing call, zeroes the bound unless that slack exceeds the
// rounding of every cost the search compares by a wide margin; the search
// is then Dijkstra itself. shortestPath, lowerBounds and goalDirected hold
// the derivation.
package route

import (
	"fmt"
	"sort"
	"sync"

	"sunfloor3d/internal/geom"
	"sunfloor3d/internal/noclib"
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
	// predecessor on the shortest path, and h[s] its lower bound on the
	// cost from s to the destination (see lowerBounds).
	dist, h []float64
	prev    []int
	// ill[b] is the number of physical links crossing the boundary between
	// layers b and b+1 (switch-to-switch and core-to-switch).
	ill []int
	// illVerdict[a*levels+b] is the max_ill verdict on opening a link from
	// a switch of level a to one of level b (see switchState.level): the
	// limit verdict of the most crowded boundary between the two layers.
	// lowest is the lower of layer 0 and the lowest switch layer, and levels
	// the number of layers from it up to the highest one, so every switch
	// has a level; boundaries outside the design count no links.
	illVerdict     []verdict
	lowest, levels int
	// cdg is the channel dependency graph of the committed routes, its
	// vertices the arcs' vertex fields.
	cdg      cdg
	deadlock int
	// softInf is the SOFT_INF penalty of Algorithm 3, fixed for the whole
	// run (it depends only on the design, library, frequency and weights).
	softInf float64
	// reach is the planar length a flit crosses per cycle at the
	// topology's frequency, farthest the longest planar length in the arc
	// table, and goal whether the search may use its lower bound (see
	// goalDirected).
	reach, farthest float64
	goal            bool
	// allowed, when non-nil, restricts routing to the directed arcs (i, j)
	// with allowed[i][j] set. It is the repair-mode overlay: on a fabricated
	// chip only the links that were actually built (minus the failed ones)
	// are usable, whatever their current cost would be. nil (the synthesis
	// case) allows every arc.
	allowed [][]bool

	// Scratch space reused across flows: the search's unsettled switches in
	// ascending order, the path it returns and the TSV term of each layer
	// span; the CDG edges a path adds (tails, heads).
	open, path   []int
	tsv          []float64
	tails, heads []int32
}

// switchState is the router's bookkeeping of one switch: everything a
// commit changes that the price of an arc into or out of the switch reads.
// What the search reads of an arc's head comes first.
type switchState struct {
	// inMarginal and outMarginal are the power of opening one more input or
	// output port (noclib.SwitchPortMarginalMW of the current count), and
	// inVerdict and outVerdict the max_sw_size verdict on opening it.
	inMarginal            float64
	inVerdict, outVerdict verdict
	// level is the switch's layer less the router's lowest layer: its row
	// and column in illVerdict.
	level       int
	outMarginal float64
	// inPorts and outPorts are the switch's port counts.
	inPorts, outPorts int
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
// lower-bound, predecessor and unsettled slices, its path buffer and its
// TSV terms. ComputePaths and RepairRoutes take one from tablePool and put
// it back when they finish, so a worker that routes one topology after
// another reuses the previous call's memory instead of allocating and
// zeroing an O(S^2) table per call. A router built without one (the
// package's tests build some) gets a new one.
type tables struct {
	cells            []arc
	rows             [][]arc
	sw               []switchState
	dist, h, tsv     []float64
	prev, open, path []int
}

// tablePool holds the tables of finished routers, about one per router
// running at the same time.
var tablePool = sync.Pool{New: func() any { return new(tables) }}

// stash leaves the router's slices in its tables for the next router, those
// that outgrew them (indirect switches beyond the spare room) included.
func (r *router) stash() {
	tb := r.tb
	tb.sw, tb.dist, tb.h, tb.tsv, tb.prev, tb.open, tb.path = r.sw, r.dist, r.h, r.tsv, r.prev, r.open, r.path
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
		layers = max(layers, s.Layer+1)
		r.lowest = min(r.lowest, s.Layer)
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
		r.sw[s].level = t.Switches[s].Layer - r.lowest
		r.updateMarginals(s, s)
	}
	r.levels = layers - r.lowest
	r.illVerdict = make([]verdict, r.levels*r.levels)
	r.fillILL()
	for f := range t.Routes {
		t.Routes[f] = topology.Route{Flow: f}
	}
	r.softInf = 10 * r.maxFlowCost()
	r.reach = t.Lib.LinkReachMM(t.FreqMHz)
	r.dist = resize(tb.dist, 0, n+spare)
	r.h = resize(tb.h, 0, n+spare)
	r.prev = resize(tb.prev, 0, n+spare)
	r.open = resize(tb.open, 0, n+spare)
	r.path = resize(tb.path, 0, n+spare)
	r.tsv = resize(tb.tsv, r.levels, r.levels)

	// The arc table: the only full O(S^2) pass of a run. No commit changes
	// an arc beyond its link's existence and CDG vertex.
	stride := n + spare
	tb.cells = resize(tb.cells, stride*stride, stride*stride)
	tb.rows = resize(tb.rows, stride, stride)
	r.arcs = squareRows(tb.cells, tb.rows, n, spare)
	for i := 0; i < n; i++ {
		r.arcs[i][i] = arc{blocked: true, vertex: -1}
		for j := i + 1; j < n; j++ {
			r.join(i, j)
		}
	}
	r.goal = r.goalDirected()
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
// links (the router just appended it to the topology, on a layer between
// two of its switches) and computes the arcs to and from it.
func (r *router) addSwitch() {
	n := len(r.sw)
	r.sw = append(r.sw, switchState{level: r.top.Switches[n].Layer - r.lowest})
	r.updateMarginals(n, n)
	r.arcs = growSquare(r.arcs, arc{})
	r.arcs[n][n].blocked = true
	for i := 0; i < n; i++ {
		r.join(i, n)
	}
	r.goal = r.goalDirected()
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

// updateMarginals recomputes the port-opening marginal and max_sw_size
// verdict of the output ports of switch out and the input ports of switch
// in.
func (r *router) updateMarginals(out, in int) {
	lib, f, limit := r.top.Lib, r.top.FreqMHz, r.cfg.MaxSwitchSize
	o, i := &r.sw[out], &r.sw[in]
	o.outMarginal = lib.SwitchPortMarginalMW(o.outPorts, f)
	o.outVerdict = limitVerdict(o.outPorts+1, limit, softSwitchMargin)
	i.inMarginal = lib.SwitchPortMarginalMW(i.inPorts, f)
	i.inVerdict = limitVerdict(i.inPorts+1, limit, softSwitchMargin)
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

// fillILL recomputes illVerdict from the boundary counts: opening a link
// between two layers crosses each boundary between them once more. A link
// within one layer crosses none, and with max_ill unconstrained no link
// has a verdict.
func (r *router) fillILL() {
	if r.cfg.MaxILL <= 0 {
		return
	}
	for a := 0; a < r.levels; a++ {
		for b := 0; b < r.levels; b++ {
			v := verdictNone
			if a != b {
				v = limitVerdict(r.boundaryMax(r.lowest+a, r.lowest+b)+1, r.cfg.MaxILL, r.cfg.SoftILLMargin)
			}
			r.illVerdict[a*r.levels+b] = v
		}
	}
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

// geometry writes the new arc (i, j) into a: its planar Manhattan length,
// the number of layers it crosses, its pipeline-latency term and whether
// the stage floor is one stage lower (arc.fewer), no link, no CDG vertex yet
// and no block.
func (r *router) geometry(a *arc, i, j int) {
	t := r.top
	a.planar = geom.Manhattan(t.Switches[i].Pos, t.Switches[j].Pos)
	span := t.Switches[i].Layer - t.Switches[j].Layer
	if span < 0 {
		span = -span
	}
	a.span = int32(span)
	stages := noclib.PipelineStages(a.planar, r.reach)
	a.latency = 1 + float64(stages)
	a.fewer = stages > 0 && noclib.PipelineStages(a.planar*shortened, r.reach) < stages
	a.vertex, a.exists, a.blocked = -1, false, false
}

// terms returns the constants of arcCost for a flow of bandwidth bw,
// filling tsv, which needs one entry per layer span, with the TSV terms.
func (r *router) terms(bw float64, tsv []float64) flowTerms {
	lib := &r.top.Lib
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
// bookkeeping, and the max_ill verdicts when a new link crossed layers.
func (r *router) commit(f int, path []int) {
	t := r.top
	crossed := false
	for i := 1; i < len(path); i++ {
		from, to := path[i-1], path[i]
		if a := &r.arcs[from][to]; !a.exists {
			a.exists = true
			r.sw[from].outPorts++
			r.sw[to].inPorts++
			r.updateMarginals(from, to)
			if lf, lt := t.Switches[from].Layer, t.Switches[to].Layer; lf != lt {
				r.addBoundaryCrossings(lf, lt, 1)
				crossed = true
			}
		}
	}
	t.SetRoute(f, path)
	if crossed {
		r.fillILL()
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
