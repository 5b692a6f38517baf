// Package floorplan provides a general-purpose simulated-annealing
// floorplanner based on the sequence-pair representation. It substitutes the
// Parquet fixed-outline floorplanner the paper uses for two purposes:
//
//  1. generating the initial placement of the cores of each benchmark (and of
//     the flattened 2-D equivalents), minimising area and wire length; and
//  2. acting as the "constrained standard floorplanner" baseline of the
//     floorplanning study (Figs. 18-20), where it inserts the NoC switches
//     into an existing core placement while being forbidden from swapping the
//     relative order of the cores.
//
// Both uses exercise the same annealer; the constrained mode simply restricts
// the move set to the inserted (non-fixed) blocks.
//
// A move costs O(n log n) for n blocks, plus one pass over the nets, and
// allocates nothing: the annealer swaps two blocks of one sequence pair in
// place (undoing a rejected move by the same swap), and its evaluator packs
// the pair with two prefix-maximum passes over a Fenwick tree (Tang, Tian
// and Wong, DATE 2000) instead of scanning every pair of blocks. The positions, outline, area and wirelength are
// bit-identical to the O(n²) scan's, and the random draws are those of the
// clone-per-move loop, so every floorplan is the one that loop gave;
// reference_test.go keeps that loop as the oracle of
// FuzzFloorplanMatchesReference.
package floorplan

import (
	"fmt"
	"math"
	"math/rand"

	"sunfloor3d/internal/geom"
)

// Block is a rectangular block to floorplan.
type Block struct {
	Name string
	W, H float64
	// Fixed marks blocks whose relative order must not change in constrained
	// mode (the already-placed cores during NoC insertion).
	Fixed bool
}

// Net is a weighted two-pin connection between blocks, used in the wirelength
// part of the cost function.
type Net struct {
	A, B   int
	Weight float64
}

// Params tunes the annealer.
type Params struct {
	// Seed makes runs reproducible.
	Seed int64
	// Iterations per temperature step.
	Iterations int
	// TemperatureSteps is the number of cooling steps.
	TemperatureSteps int
	// InitialTemp and CoolingFactor define the annealing schedule.
	InitialTemp   float64
	CoolingFactor float64
	// AreaWeight and WireWeight blend the two cost terms.
	AreaWeight, WireWeight float64
	// DisplacementWeight penalises moving Fixed blocks away from their
	// initial positions (only meaningful with FloorplanWithInitial). The
	// paper's constrained-standard-floorplanner baseline must keep the cores
	// close to their input placement, which is what this term models.
	DisplacementWeight float64
	// Constrained forbids moves that change the relative order of Fixed
	// blocks (the paper's modified Parquet baseline).
	Constrained bool
}

// DefaultParams returns a reasonable annealing schedule for designs with up
// to ~100 blocks.
func DefaultParams(seed int64) Params {
	return Params{
		Seed:             seed,
		Iterations:       200,
		TemperatureSteps: 60,
		InitialTemp:      1.0,
		CoolingFactor:    0.92,
		AreaWeight:       1.0,
		WireWeight:       0.4,
		Constrained:      false,
	}
}

// Result is a computed floorplan.
type Result struct {
	// Positions holds the lower-left corner of every block.
	Positions []geom.Point
	// BoundingBox is the overall outline.
	BoundingBox geom.Rect
	// AreaMM2 is the outline area.
	AreaMM2 float64
	// WireLengthMM is the weighted half-perimeter wirelength of the nets.
	WireLengthMM float64
}

// Rect returns the placed rectangle of block i.
func (r *Result) Rect(blocks []Block, i int) geom.Rect {
	return geom.Rect{X: r.Positions[i].X, Y: r.Positions[i].Y, W: blocks[i].W, H: blocks[i].H}
}

// sequencePair is the classic floorplan representation: two permutations of
// the block indices. Block a is left of b iff a precedes b in both sequences;
// a is below b iff a follows b in the first and precedes b in the second.
type sequencePair struct {
	pos, neg []int
}

// rankedPair is a sequence pair together with every block's rank (index) in
// each sequence: pos[rp[b]] == b and neg[rn[b]] == b. The ranks make a move
// O(1) and are the keys of the evaluator's prefix-maximum tree.
type rankedPair struct {
	sequencePair
	rp, rn []int
}

func newRankedPair(sp sequencePair) rankedPair {
	n := len(sp.pos)
	r := rankedPair{
		sequencePair: sequencePair{pos: append([]int(nil), sp.pos...), neg: append([]int(nil), sp.neg...)},
		rp:           make([]int, n),
		rn:           make([]int, n),
	}
	for i, v := range r.pos {
		r.rp[v] = i
	}
	for i, v := range r.neg {
		r.rn[v] = i
	}
	return r
}

// copyFrom overwrites r with o, which has the same length.
func (r *rankedPair) copyFrom(o *rankedPair) {
	copy(r.pos, o.pos)
	copy(r.neg, o.neg)
	copy(r.rp, o.rp)
	copy(r.rn, o.rn)
}

// move is one of the standard sequence-pair moves: swap blocks a and b in the
// positive sequence (kind 0), in the negative sequence (kind 1) or in both
// (kind 2). Applying a move twice restores the pair.
type move struct {
	a, b, kind int
}

// draw picks a move among the movable blocks and reports whether it changes
// the pair. Its random draws are the annealer's: two block draws when at
// least two blocks are movable, then the kind only when the blocks differ.
func (m *move) draw(movable []int, rng *rand.Rand) bool {
	if len(movable) < 2 {
		return false
	}
	m.a = movable[rng.Intn(len(movable))]
	m.b = movable[rng.Intn(len(movable))]
	if m.a == m.b {
		return false
	}
	m.kind = rng.Intn(3)
	return true
}

// apply swaps the move's two blocks, and their ranks, in place.
func (r *rankedPair) apply(m move) {
	if m.kind != 1 {
		swapRanked(r.pos, r.rp, m.a, m.b)
	}
	if m.kind != 0 {
		swapRanked(r.neg, r.rn, m.a, m.b)
	}
}

// swapRanked swaps blocks a and b within the sequence seq whose ranks are
// rank.
func swapRanked(seq, rank []int, a, b int) {
	i, j := rank[a], rank[b]
	seq[i], seq[j] = b, a
	rank[a], rank[b] = j, i
}

// Floorplan runs simulated annealing over sequence pairs starting from the
// trivial (identity) sequence pair and returns the best floorplan found. With
// p.Constrained set, only non-fixed blocks are moved, so the relative order
// (and hence relative placement) of fixed blocks is preserved.
func Floorplan(blocks []Block, nets []Net, p Params) (*Result, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("floorplan: no blocks")
	}
	sp := sequencePair{pos: identity(len(blocks)), neg: identity(len(blocks))}
	return anneal(blocks, nets, sp, p, nil)
}

// FloorplanWithInitial behaves like Floorplan but seeds the annealer with a
// sequence pair derived from the given initial block positions, so that the
// search starts from (and, in constrained mode, largely preserves) an
// existing placement. This is how the constrained standard-floorplanner
// baseline of the paper is fed "the core and switch positions as an input
// solution".
func FloorplanWithInitial(blocks []Block, nets []Net, initial []geom.Point, p Params) (*Result, error) {
	if len(initial) != len(blocks) {
		return nil, fmt.Errorf("floorplan: %d initial positions for %d blocks", len(initial), len(blocks))
	}
	sp := sequencePairFromPlacement(blocks, initial)
	return anneal(blocks, nets, sp, p, initial)
}

// sequencePairFromPlacement derives a sequence pair consistent with the given
// placement: blocks further left or higher come earlier in the positive
// sequence, blocks further left or lower come earlier in the negative
// sequence. For a legal (non-overlapping) placement this reproduces the
// relative ordering of the blocks.
func sequencePairFromPlacement(blocks []Block, pos []geom.Point) sequencePair {
	n := len(blocks)
	idx := identity(n)
	posSeq := append([]int(nil), idx...)
	negSeq := append([]int(nil), idx...)
	center := func(i int) (float64, float64) {
		return pos[i].X + blocks[i].W/2, pos[i].Y + blocks[i].H/2
	}
	sortBy(posSeq, func(a, b int) bool {
		xa, ya := center(a)
		xb, yb := center(b)
		if xa-ya != xb-yb {
			return xa-ya < xb-yb
		}
		return a < b
	})
	sortBy(negSeq, func(a, b int) bool {
		xa, ya := center(a)
		xb, yb := center(b)
		if xa+ya != xb+yb {
			return xa+ya < xb+yb
		}
		return a < b
	})
	return sequencePair{pos: posSeq, neg: negSeq}
}

func sortBy(ids []int, less func(a, b int) bool) {
	// Insertion sort keeps the dependency footprint small and is plenty fast
	// for the block counts in this domain.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && less(ids[j], ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// anneal runs the simulated-annealing loop from the given starting sequence
// pair. When initial is non-nil, Fixed blocks are additionally penalised for
// drifting away from their initial positions (see Params.DisplacementWeight).
//
// The loop keeps one sequence pair for the whole run: a move swaps two blocks
// in place, a rejected move is undone by the same swap, and the best pair is
// copied into a second, preallocated pair only when the best cost improves.
// Its random draws are, in order, those of the classic clone-per-move loop:
// two block draws, the move kind when the blocks differ, and the acceptance
// draw when the move does not lower the cost and the temperature is
// positive. A move that picks the same block twice leaves the pair as it is,
// so its cost is cur exactly and it is not evaluated.
func anneal(blocks []Block, nets []Net, sp sequencePair, p Params, initial []geom.Point) (*Result, error) {
	n := len(blocks)
	if n == 0 {
		return nil, fmt.Errorf("floorplan: no blocks")
	}
	for i, b := range blocks {
		if b.W <= 0 || b.H <= 0 {
			return nil, fmt.Errorf("floorplan: block %d (%s) has non-positive size", i, b.Name)
		}
	}
	for _, nt := range nets {
		if nt.A < 0 || nt.A >= n || nt.B < 0 || nt.B >= n {
			return nil, fmt.Errorf("floorplan: net references block out of range")
		}
	}
	rng := rand.New(rand.NewSource(p.Seed))
	ev := newEvaluator(blocks, nets, p, initial)
	pair := newRankedPair(sp)

	cur := ev.cost(&pair)
	movable := movableIndices(blocks, p.Constrained)
	if len(movable) == 0 {
		// Nothing to optimise: just pack and return.
		return ev.result(&pair), nil
	}
	best := cur
	bestPair := newRankedPair(sp)

	temp := p.InitialTemp
	var m move
	for step := 0; step < p.TemperatureSteps; step++ {
		for it := 0; it < p.Iterations; it++ {
			moved := m.draw(movable, rng)
			c := cur
			if moved {
				pair.apply(m)
				c = ev.cost(&pair)
			}
			accept := c < cur
			if !accept && temp > 0 {
				delta := (c - cur) / math.Max(cur, 1e-9)
				accept = rng.Float64() < math.Exp(-delta/temp)
			}
			if !accept {
				if moved {
					pair.apply(m)
				}
				continue
			}
			cur = c
			if c < best {
				best = c
				bestPair.copyFrom(&pair)
			}
		}
		temp *= p.CoolingFactor
	}
	return ev.result(&bestPair), nil
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func movableIndices(blocks []Block, constrained bool) []int {
	var out []int
	for i, b := range blocks {
		if !constrained || !b.Fixed {
			out = append(out, i)
		}
	}
	return out
}

// evaluator packs sequence pairs into block positions and scores them. It
// holds the blocks' sizes, the coordinates of the last pair it packed and
// the prefix-maximum tree, all allocated once per annealing run.
//
// Packing is the longest-path method computed as in Tang, Tian and Wong,
// "Fast evaluation of sequence pair in block placement by longest common
// subsequence computation" (DATE 2000). Block a is left of b iff a precedes
// b in both sequences, so visiting the blocks in positive-sequence order, b's
// x is the largest x[a]+W[a] over the blocks already visited whose
// negative-sequence rank is below b's (0 if there is none): one prefix-maximum
// query and one update of a Fenwick tree keyed by that rank. y is the same
// in negative-sequence order, keyed by the reversed positive-sequence rank (a
// is below b iff a follows b in the positive sequence and precedes it in the
// negative one). A pair costs O(n log n) instead of the O(n²) scan over
// every predecessor.
//
// The positions are bit-identical to the scan's: each coordinate is the
// maximum of the same float sums x[a]+W[a] over the same predecessor set,
// and a maximum is exact whatever order its operands are combined in. The
// outline's width and height are the maxima of the same sums over every
// block. Area, wirelength and displacement are then computed with the scan's
// expressions, in its order.
type evaluator struct {
	blocks  []Block
	nets    []Net
	p       Params
	initial []geom.Point
	w, h    []float64
	x, y    []float64
	// tree is the 1-based Fenwick tree of prefix maxima: tree[i] holds the
	// largest value inserted at a key in (i-(i&-i), i], 1-based, as its
	// float bits (see longestPath).
	tree []uint64
}

func newEvaluator(blocks []Block, nets []Net, p Params, initial []geom.Point) *evaluator {
	n := len(blocks)
	e := &evaluator{
		blocks: blocks, nets: nets, p: p, initial: initial,
		w: make([]float64, n), h: make([]float64, n),
		x: make([]float64, n), y: make([]float64, n),
		tree: make([]uint64, n+1),
	}
	for i, b := range blocks {
		e.w[i], e.h[i] = b.W, b.H
	}
	return e
}

// longestPath visits the blocks in the given order and sets coord[b] to the
// largest coord[a]+size[a] over the visited blocks a whose key is below b's,
// or to 0 when there is none. A block's key is rank[b], or n-1-rank[b] when
// reversed is set. It returns the largest coord[b]+size[b] over all blocks,
// or 0: the outline's extent.
//
// Every sum is positive (sizes are) and 0 is +0, so the tree compares float
// bits as integers, which order like the non-negative floats they encode and
// take a branch-free max. A NaN sum, which only a NaN size gives, is never
// inserted, as it never wins a float comparison.
func (e *evaluator) longestPath(order, rank []int, reversed bool, size, coord []float64) float64 {
	t := e.tree
	clear(t)
	n := len(order)
	var extent uint64
	for _, b := range order {
		k := rank[b]
		if reversed {
			k = n - 1 - k
		}
		// Keys 0..k-1 are tree indices 1..k.
		var m uint64
		for i := k; i > 0; i &= i - 1 {
			m = max(m, t[i])
		}
		c := math.Float64frombits(m)
		coord[b] = c
		v := c + size[b]
		if v != v {
			continue
		}
		vb := math.Float64bits(v)
		extent = max(extent, vb)
		for i := k + 1; i <= n; i += i & -i {
			t[i] = max(t[i], vb)
		}
	}
	return math.Float64frombits(extent)
}

// place packs the pair into e.x and e.y and returns the outline's width and
// height.
func (e *evaluator) place(sp *rankedPair) (maxX, maxY float64) {
	maxX = e.longestPath(sp.pos, sp.rn, false, e.w, e.x)
	maxY = e.longestPath(sp.neg, sp.rp, true, e.h, e.y)
	return maxX, maxY
}

// wireLength returns the weighted centre-to-centre Manhattan length of the
// nets for the last packed pair.
func (e *evaluator) wireLength() float64 {
	var wl float64
	for _, nt := range e.nets {
		ca := geom.Point{X: e.x[nt.A] + e.w[nt.A]/2, Y: e.y[nt.A] + e.h[nt.A]/2}
		cb := geom.Point{X: e.x[nt.B] + e.w[nt.B]/2, Y: e.y[nt.B] + e.h[nt.B]/2}
		wl += nt.Weight * geom.Manhattan(ca, cb)
	}
	return wl
}

// cost returns the scalar annealing cost of a sequence pair.
func (e *evaluator) cost(sp *rankedPair) float64 {
	maxX, maxY := e.place(sp)
	area := maxX * maxY
	cost := e.p.AreaWeight*area + e.p.WireWeight*e.wireLength()
	if e.p.DisplacementWeight > 0 && e.initial != nil {
		for i, b := range e.blocks {
			if b.Fixed && i < len(e.initial) {
				cost += e.p.DisplacementWeight * geom.Manhattan(geom.Point{X: e.x[i], Y: e.y[i]}, e.initial[i])
			}
		}
	}
	return cost
}

// result packs a sequence pair into a Result.
func (e *evaluator) result(sp *rankedPair) *Result {
	maxX, maxY := e.place(sp)
	res := &Result{Positions: make([]geom.Point, len(e.blocks))}
	for i := range res.Positions {
		res.Positions[i] = geom.Point{X: e.x[i], Y: e.y[i]}
	}
	res.BoundingBox = geom.Rect{X: 0, Y: 0, W: maxX, H: maxY}
	res.AreaMM2 = maxX * maxY
	res.WireLengthMM = e.wireLength()
	return res
}
