// Package place implements the physical side of the synthesis flow described
// in Section VII of the paper: computing optimal switch positions with a
// linear program that minimises bandwidth-weighted Manhattan wire lengths,
// inserting the NoC components (switches, NIs, TSV macros) into the existing
// core floorplan with a custom overlap-removal routine, and reporting the
// resulting per-layer and chip areas.
package place

import (
	"fmt"
	"sort"

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
	if t.NumSwitches() == 0 {
		return fmt.Errorf("place: topology has no switches")
	}
	xs, err := solveAxis(t, true)
	if err != nil {
		return fmt.Errorf("place: x axis LP: %w", err)
	}
	ys, err := solveAxis(t, false)
	if err != nil {
		return fmt.Errorf("place: y axis LP: %w", err)
	}
	for i := range t.Switches {
		t.Switches[i].Pos = geom.Point{X: xs[i], Y: ys[i]}
	}
	return nil
}

// solveAxis builds and solves the one-dimensional positioning LP for either
// the x axis (xAxis true) or the y axis.
func solveAxis(t *topology.Topology, xAxis bool) ([]float64, error) {
	prob := lp.NewProblem()
	pos := make([]int, t.NumSwitches())
	for i := range t.Switches {
		pos[i] = prob.AddVariable(0)
	}

	coreCoord := func(c int) float64 {
		ctr := t.Design.Cores[c].Center()
		if xAxis {
			return ctr.X
		}
		return ctr.Y
	}

	// Core-to-switch terms: weight is the total bandwidth exchanged between
	// the core and its switch (both directions), Eq. 2 and the first sum of
	// Eq. 4.
	coreBW := make(map[int]float64)
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
		prob.AddAbsDifferenceObjective([]lp.Term{{Var: pos[sw], Coeff: 1}}, -coreCoord(c), w)
	}

	// Switch-to-switch terms: weight is the aggregated link bandwidth, Eq. 3
	// and the second sum of Eq. 4. Sum both directions so each pair appears
	// once. The pairs must enter the problem in a fixed order: the LP's
	// auxiliary variables and constraint rows are created per term, simplex
	// pivoting (and with it the choice among degenerate optima) depends on
	// that order, and SwitchLinks() is sorted — iterating the aggregation map
	// here instead made repeated placements of the same topology return
	// different (all optimal) switch positions.
	pair := make(map[[2]int]float64)
	var pairKeys [][2]int
	for _, l := range t.SwitchLinks() {
		a, b := l.From, l.To
		if a > b {
			a, b = b, a
		}
		k := [2]int{a, b}
		if _, ok := pair[k]; !ok {
			pairKeys = append(pairKeys, k)
		}
		pair[k] += l.BandwidthMBps
	}
	sort.Slice(pairKeys, func(i, j int) bool {
		if pairKeys[i][0] != pairKeys[j][0] {
			return pairKeys[i][0] < pairKeys[j][0]
		}
		return pairKeys[i][1] < pairKeys[j][1]
	})
	for _, k := range pairKeys {
		prob.AddAbsDifferenceObjective(
			[]lp.Term{{Var: pos[k[0]], Coeff: 1}, {Var: pos[k[1]], Coeff: -1}},
			0, pair[k])
	}

	sol, err := prob.Solve()
	if err != nil {
		return nil, err
	}
	out := make([]float64, t.NumSwitches())
	for i := range out {
		out[i] = sol.Value(pos[i])
	}
	return out, nil
}
