package floorplan

// The reference annealer: the clone-per-move loop, the O(n²) longest-path
// packing and the value-scanning swap the floorplanner ran before its
// evaluator. It is the oracle of FuzzFloorplanMatchesReference, which
// checks that the production annealer returns bit-identical Results. The
// loop is renamed (anneal → referenceAnneal) and has its own copies of the
// two entry points; clone, mutate, swapValues, evaluate and pack are as
// they were.

import (
	"fmt"
	"math"
	"math/rand"

	"sunfloor3d/internal/geom"
)

// referenceFloorplan is Floorplan on the reference annealer.
func referenceFloorplan(blocks []Block, nets []Net, p Params) (*Result, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("floorplan: no blocks")
	}
	sp := sequencePair{pos: identity(len(blocks)), neg: identity(len(blocks))}
	return referenceAnneal(blocks, nets, sp, p, nil)
}

// referenceFloorplanWithInitial is FloorplanWithInitial on the reference
// annealer.
func referenceFloorplanWithInitial(blocks []Block, nets []Net, initial []geom.Point, p Params) (*Result, error) {
	if len(initial) != len(blocks) {
		return nil, fmt.Errorf("floorplan: %d initial positions for %d blocks", len(initial), len(blocks))
	}
	sp := sequencePairFromPlacement(blocks, initial)
	return referenceAnneal(blocks, nets, sp, p, initial)
}

func (sp *sequencePair) clone() sequencePair {
	return sequencePair{
		pos: append([]int(nil), sp.pos...),
		neg: append([]int(nil), sp.neg...),
	}
}

// referenceAnneal runs the simulated-annealing loop from the given starting sequence
// pair. When initial is non-nil, Fixed blocks are additionally penalised for
// drifting away from their initial positions (see Params.DisplacementWeight).
func referenceAnneal(blocks []Block, nets []Net, sp sequencePair, p Params, initial []geom.Point) (*Result, error) {
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

	cur := evaluate(blocks, nets, sp, p, initial)
	best := cur
	bestSP := sp.clone()

	movable := movableIndices(blocks, p.Constrained)
	if len(movable) == 0 {
		// Nothing to optimise: just pack and return.
		res := pack(blocks, nets, sp)
		return res, nil
	}

	temp := p.InitialTemp
	for step := 0; step < p.TemperatureSteps; step++ {
		for it := 0; it < p.Iterations; it++ {
			cand := sp.clone()
			mutate(&cand, movable, rng)
			c := evaluate(blocks, nets, cand, p, initial)
			accept := c < cur
			if !accept && temp > 0 {
				delta := (c - cur) / math.Max(cur, 1e-9)
				accept = rng.Float64() < math.Exp(-delta/temp)
			}
			if accept {
				sp, cur = cand, c
				if c < best {
					best, bestSP = c, cand.clone()
				}
			}
		}
		temp *= p.CoolingFactor
	}
	return pack(blocks, nets, bestSP), nil
}

// mutate applies one of the standard sequence-pair moves, restricted to
// movable blocks: swap two blocks in the positive sequence, in the negative
// sequence, or in both.
func mutate(sp *sequencePair, movable []int, rng *rand.Rand) {
	if len(movable) < 2 {
		return
	}
	a := movable[rng.Intn(len(movable))]
	b := movable[rng.Intn(len(movable))]
	if a == b {
		return
	}
	switch rng.Intn(3) {
	case 0:
		swapValues(sp.pos, a, b)
	case 1:
		swapValues(sp.neg, a, b)
	default:
		swapValues(sp.pos, a, b)
		swapValues(sp.neg, a, b)
	}
}

// swapValues swaps the positions of values a and b within the permutation.
func swapValues(perm []int, a, b int) {
	ia, ib := -1, -1
	for i, v := range perm {
		if v == a {
			ia = i
		}
		if v == b {
			ib = i
		}
	}
	if ia >= 0 && ib >= 0 {
		perm[ia], perm[ib] = perm[ib], perm[ia]
	}
}

// evaluate returns the scalar annealing cost of a sequence pair.
func evaluate(blocks []Block, nets []Net, sp sequencePair, p Params, initial []geom.Point) float64 {
	res := pack(blocks, nets, sp)
	cost := p.AreaWeight*res.AreaMM2 + p.WireWeight*res.WireLengthMM
	if p.DisplacementWeight > 0 && initial != nil {
		for i, b := range blocks {
			if b.Fixed && i < len(initial) {
				cost += p.DisplacementWeight * geom.Manhattan(res.Positions[i], initial[i])
			}
		}
	}
	return cost
}

// pack converts a sequence pair to physical positions with the longest-path
// method and computes area and wirelength.
func pack(blocks []Block, nets []Net, sp sequencePair) *Result {
	n := len(blocks)
	// rank of each block in both sequences
	rp := make([]int, n)
	rn := make([]int, n)
	for i, v := range sp.pos {
		rp[v] = i
	}
	for i, v := range sp.neg {
		rn[v] = i
	}
	x := make([]float64, n)
	y := make([]float64, n)
	// Longest path in the horizontal constraint graph: a left-of b iff
	// rp[a]<rp[b] && rn[a]<rn[b]. Process blocks in positive-sequence order.
	for _, b := range sp.pos {
		for _, a := range sp.pos {
			if a == b {
				break
			}
			if rp[a] < rp[b] && rn[a] < rn[b] { // a left of b
				if v := x[a] + blocks[a].W; v > x[b] {
					x[b] = v
				}
			}
		}
	}
	// Vertical: a below b iff rp[a]>rp[b] && rn[a]<rn[b].
	for _, b := range sp.neg {
		for _, a := range sp.neg {
			if a == b {
				break
			}
			if rp[a] > rp[b] && rn[a] < rn[b] { // a below b
				if v := y[a] + blocks[a].H; v > y[b] {
					y[b] = v
				}
			}
		}
	}
	res := &Result{Positions: make([]geom.Point, n)}
	var maxX, maxY float64
	for i := range blocks {
		res.Positions[i] = geom.Point{X: x[i], Y: y[i]}
		if v := x[i] + blocks[i].W; v > maxX {
			maxX = v
		}
		if v := y[i] + blocks[i].H; v > maxY {
			maxY = v
		}
	}
	res.BoundingBox = geom.Rect{X: 0, Y: 0, W: maxX, H: maxY}
	res.AreaMM2 = maxX * maxY
	for _, nt := range nets {
		ca := geom.Point{X: x[nt.A] + blocks[nt.A].W/2, Y: y[nt.A] + blocks[nt.A].H/2}
		cb := geom.Point{X: x[nt.B] + blocks[nt.B].W/2, Y: y[nt.B] + blocks[nt.B].H/2}
		res.WireLengthMM += nt.Weight * geom.Manhattan(ca, cb)
	}
	return res
}
