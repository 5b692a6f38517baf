// Package place implements the physical side of the synthesis flow described
// in Section VII of the paper: computing optimal switch positions with a
// linear program that minimises bandwidth-weighted Manhattan wire lengths,
// inserting the NoC components (switches, NIs, TSV macros) into the existing
// core floorplan with a custom overlap-removal routine, and reporting the
// resulting per-layer and chip areas.
//
// The placement LP reads only the planar centres and traffic of the
// attached cores, their attachments and the summed bandwidth of each linked
// switch pair; frequency, link width and layers are no inputs. A Memo keyed
// by exactly those inputs therefore hands one LP's positions to every
// topology that repeats them, such as the same routed topology at two
// frequencies or in two layer-count folds that keep every core centre.
package place

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"sunfloor3d/internal/geom"
	"sunfloor3d/internal/lp"
	"sunfloor3d/internal/topology"
)

// OptimizeSwitchPositions solves the LP of Eq. 2-5 to place every switch at
// the position minimising the total bandwidth-weighted Manhattan distance to
// the cores and switches it connects to, and writes the optimal coordinates
// back into the topology. The x and y dimensions are independent in the
// objective and constraints, so they are solved as two separate (smaller)
// LPs.
func OptimizeSwitchPositions(t *topology.Topology) error {
	in := gatherInput(t)
	pos, err := in.solve()
	if err != nil {
		return err
	}
	setPositions(t, pos)
	return nil
}

// Memo remembers the switch positions of the placement LPs it has solved,
// keyed by everything the LP reads (see lpInput), so it solves each distinct
// input once however many topologies repeat it. Its answers are those of
// OptimizeSwitchPositions bit for bit, errors included. A Memo is safe for
// concurrent use: distinct inputs solve in parallel, and a request for an
// input being solved waits for that solve.
type Memo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	solves  atomic.Int64
}

// memoEntry is one distinct input's outcome: its own copy of the positions,
// or the error.
type memoEntry struct {
	once sync.Once
	pos  []geom.Point
	err  error
}

// NewMemo returns an empty placement memo.
func NewMemo() *Memo {
	return &Memo{entries: make(map[string]*memoEntry)}
}

// OptimizeSwitchPositions does what the function OptimizeSwitchPositions
// does to t, solving the LP only for an input the memo has not seen.
func (m *Memo) OptimizeSwitchPositions(t *topology.Topology) error {
	in := gatherInput(t)
	key := in.key()
	m.mu.Lock()
	e := m.entries[key]
	if e == nil {
		e = &memoEntry{}
		m.entries[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		m.solves.Add(1)
		e.pos, e.err = in.solve()
	})
	if e.err != nil {
		return e.err
	}
	setPositions(t, e.pos)
	return nil
}

// Solves returns the number of placements the memo has solved, each an
// x-axis and a y-axis LP.
func (m *Memo) Solves() int {
	return int(m.solves.Load())
}

// setPositions writes pos into the switches of t.
func setPositions(t *topology.Topology, pos []geom.Point) {
	for i := range t.Switches {
		t.Switches[i].Pos = pos[i]
	}
}

// lpInput is everything the placement LP reads from a topology, in the
// order the LP's terms are built from it.
type lpInput struct {
	switches int
	cores    []lpCore // the attached cores, in core order
	pairs    []lpPair // the linked switch pairs, in ascending (a, b) order
}

// lpCore is one attached core: its switch, its centre and the weight of its
// term.
type lpCore struct {
	sw     int
	x, y   float64
	weight float64
}

// lpPair is one linked switch pair a < b with the bandwidth of both
// directions summed.
type lpPair struct {
	a, b int
	bw   float64
}

// gatherInput collects the LP's input from t.
func gatherInput(t *topology.Topology) lpInput {
	in := lpInput{switches: t.NumSwitches()}

	// Core-to-switch terms: weight is the total bandwidth exchanged between
	// the core and its switch (both directions), Eq. 2 and the first sum of
	// Eq. 4.
	coreBW := make([]float64, len(t.CoreAttach))
	for _, f := range t.Design.Flows {
		coreBW[f.Src] += f.BandwidthMBps
		coreBW[f.Dst] += f.BandwidthMBps
	}
	for c, sw := range t.CoreAttach {
		if sw < 0 {
			continue
		}
		w := coreBW[c]
		if w <= 0 {
			w = 1 // still pull unconnected cores' switches somewhere sensible
		}
		ctr := t.Design.Cores[c].Center()
		in.cores = append(in.cores, lpCore{sw: sw, x: ctr.X, y: ctr.Y, weight: w})
	}

	// Switch-to-switch terms: weight is the aggregated link bandwidth, Eq. 3
	// and the second sum of Eq. 4. Sum both directions so each pair appears
	// once. The pairs must enter the problem in a fixed order: the LP's
	// auxiliary variables and constraint rows are created per term, and
	// simplex pivoting (and with it the choice among degenerate optima)
	// depends on that order. SwitchLinks() is sorted by (From, To), and the
	// stable sort keeps that order within a pair, so a pair's sum adds a->b
	// before b->a.
	links := t.SwitchLinks()
	dirs := make([]lpPair, len(links))
	for i, l := range links {
		dirs[i] = lpPair{a: min(l.From, l.To), b: max(l.From, l.To), bw: l.BandwidthMBps}
	}
	slices.SortStableFunc(dirs, func(p, q lpPair) int {
		return cmp.Or(cmp.Compare(p.a, q.a), cmp.Compare(p.b, q.b))
	})
	for i := 0; i < len(dirs); {
		sum := 0.0
		j := i
		for ; j < len(dirs) && dirs[j].a == dirs[i].a && dirs[j].b == dirs[i].b; j++ {
			sum += dirs[j].bw
		}
		in.pairs = append(in.pairs, lpPair{a: dirs[i].a, b: dirs[i].b, bw: sum})
		i = j
	}
	return in
}

// key returns the input's exact encoding: fixed-width integers and the bits
// of every float, with the core and pair counts ahead of their lists. Two
// inputs have the same key exactly when they are equal, so a key cannot
// leave out anything the LP reads.
func (in *lpInput) key() string {
	b := make([]byte, 0, 8*(3+4*len(in.cores)+3*len(in.pairs)))
	b = binary.LittleEndian.AppendUint64(b, uint64(in.switches))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(in.cores)))
	for _, c := range in.cores {
		b = binary.LittleEndian.AppendUint64(b, uint64(c.sw))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.x))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.y))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.weight))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(in.pairs)))
	for _, p := range in.pairs {
		b = binary.LittleEndian.AppendUint64(b, uint64(p.a))
		b = binary.LittleEndian.AppendUint64(b, uint64(p.b))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.bw))
	}
	return string(b)
}

// solve solves both axis LPs and returns every switch's position.
func (in *lpInput) solve() ([]geom.Point, error) {
	if in.switches == 0 {
		return nil, fmt.Errorf("place: topology has no switches")
	}
	xs, err := in.solveAxis(true)
	if err != nil {
		return nil, fmt.Errorf("place: x axis LP: %w", err)
	}
	ys, err := in.solveAxis(false)
	if err != nil {
		return nil, fmt.Errorf("place: y axis LP: %w", err)
	}
	pos := make([]geom.Point, in.switches)
	for i := range pos {
		pos[i] = geom.Point{X: xs[i], Y: ys[i]}
	}
	return pos, nil
}

// solveAxis builds and solves the one-dimensional positioning LP for either
// the x axis (xAxis true) or the y axis. Variable i is switch i's
// coordinate; every term adds its auxiliary variable after them.
func (in *lpInput) solveAxis(xAxis bool) ([]float64, error) {
	prob := lp.NewProblem()
	for range in.switches {
		prob.AddVariable(0)
	}
	var terms [2]lp.Term
	for _, c := range in.cores {
		coord := c.y
		if xAxis {
			coord = c.x
		}
		terms[0] = lp.Term{Var: c.sw, Coeff: 1}
		prob.AddAbsDifferenceObjective(terms[:1], -coord, c.weight)
	}
	for _, p := range in.pairs {
		terms[0] = lp.Term{Var: p.a, Coeff: 1}
		terms[1] = lp.Term{Var: p.b, Coeff: -1}
		prob.AddAbsDifferenceObjective(terms[:], 0, p.bw)
	}

	sol, err := prob.Solve()
	if err != nil {
		return nil, err
	}
	out := make([]float64, in.switches)
	for i := range out {
		out[i] = sol.Value(i)
	}
	return out, nil
}
