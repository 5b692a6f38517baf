// Package lp provides a small linear-programming solver used by the
// switch-position computation of Section VII of the paper. It implements the
// two-phase primal simplex method on problems in the general form
//
//	minimise   c^T x
//	subject to A x (<=|=|>=) b,   x >= 0
//
// together with a Problem builder for absolute-value objective terms
// (|x - y| is linearised with an auxiliary variable and two constraints),
// which is exactly what the Manhattan-distance objective of Eq. 2-5 needs.
// The paper uses lp_solve; any exact LP solver yields the same optimum, and
// the instances (tens of switches) are tiny. The tableau is dense, but
// pivots are not: each Gauss-Jordan step updates only the columns where the
// pivot row is nonzero, plus the right-hand side.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// ConstraintOp is the relational operator of a constraint row.
type ConstraintOp int

const (
	// LE is "less than or equal".
	LE ConstraintOp = iota
	// GE is "greater than or equal".
	GE
	// EQ is "equal".
	EQ
)

// Errors returned by Solve.
var (
	// ErrInfeasible is returned when no point satisfies all constraints.
	ErrInfeasible = errors.New("lp: problem is infeasible")
	// ErrUnbounded is returned when the objective can decrease without bound.
	ErrUnbounded = errors.New("lp: problem is unbounded")
)

const eps = 1e-9

// constraint is a single row a^T x (op) b.
type constraint struct {
	coeffs map[int]float64
	op     ConstraintOp
	rhs    float64
}

// Problem is an LP under construction. All structural variables are
// non-negative.
type Problem struct {
	nvars       int
	objective   map[int]float64
	constraints []constraint
}

// NewProblem returns an empty minimisation problem.
func NewProblem() *Problem {
	return &Problem{objective: make(map[int]float64)}
}

// AddVariable adds a non-negative variable with the given objective
// coefficient and returns its index.
func (p *Problem) AddVariable(objCoeff float64) int {
	idx := p.nvars
	p.nvars++
	if objCoeff != 0 {
		p.objective[idx] = objCoeff
	}
	return idx
}

// AddConstraint adds the constraint sum(coeffs[i]*x_i) op rhs.
func (p *Problem) AddConstraint(coeffs map[int]float64, op ConstraintOp, rhs float64) {
	cp := make(map[int]float64, len(coeffs))
	//determlint:ordered write-only copy into a fresh map keyed by the same indices; the checkVar panic fires only on caller bugs, never in a valid Result path
	for i, c := range coeffs {
		p.checkVar(i)
		if c != 0 {
			cp[i] = c
		}
	}
	p.constraints = append(p.constraints, constraint{coeffs: cp, op: op, rhs: rhs})
}

func (p *Problem) checkVar(i int) {
	if i < 0 || i >= p.nvars {
		panic(fmt.Sprintf("lp: variable %d out of range [0,%d)", i, p.nvars))
	}
}

// Solution holds the optimum of a solved problem.
type Solution struct {
	// Objective is the optimal objective value.
	Objective float64
	// Values holds the optimal value of every variable (including auxiliary
	// ones created by the builder helpers).
	Values []float64
}

// Value returns the optimal value of variable i.
func (s *Solution) Value(i int) float64 {
	if i < 0 || i >= len(s.Values) {
		return 0
	}
	return s.Values[i]
}

// Solve runs the two-phase simplex method and returns the optimum.
func (p *Problem) Solve() (*Solution, error) {
	n := p.nvars
	m := len(p.constraints)
	if n == 0 {
		return &Solution{Objective: 0}, nil
	}

	// Every constraint becomes an equality with a slack (LE), surplus (GE)
	// or nothing (EQ). Negating a row for a negative rhs swaps LE and GE, so
	// it leaves the slack count alone.
	numSlack := 0
	for _, c := range p.constraints {
		if c.op != EQ {
			numSlack++
		}
	}
	live := n + numSlack // the columns phase 2 may still enter
	total := live + m    // artificial variable for every row (unused ones cost nothing)

	// Build the phase-1 tableau in one backing array: rows are constraints,
	// columns are [structural | slack/surplus | artificial | rhs]. Rows
	// with a negative rhs are negated so that b >= 0.
	width := total + 1
	cells := make([]float64, (m+1)*width)
	tab := make([][]float64, m+1)
	for i := range tab {
		tab[i] = cells[i*width : (i+1)*width]
	}
	basis := make([]int, m)
	slackCol := n
	for i, c := range p.constraints {
		r := tab[i]
		for j, v := range c.coeffs {
			r[j] = v
		}
		b, op := c.rhs, c.op
		if b < 0 {
			for j := 0; j < n; j++ {
				r[j] = -r[j]
			}
			b = -b
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		switch op {
		case LE:
			r[slackCol] = 1
			slackCol++
		case GE:
			r[slackCol] = -1
			slackCol++
		}
		r[live+i] = 1
		basis[i] = live + i
		r[total] = b
	}
	// For LE rows with a positive slack we could start from the slack basis,
	// but starting from the artificial basis everywhere keeps the code
	// simple; phase 1 drives all artificials out regardless.

	// Phase 1 objective: minimise the sum of artificial variables.
	obj := tab[m]
	for i := 0; i < m; i++ {
		obj[live+i] = 1
	}
	// Price out the basic (artificial) variables.
	for i := 0; i < m; i++ {
		for j := 0; j <= total; j++ {
			obj[j] -= tab[i][j]
		}
	}
	cols := make([]int, 0, width) // pivot's column list, reused by every pivot
	if err := runSimplex(tab, basis, total, total, cols); err != nil {
		return nil, err
	}
	if phase1 := -tab[m][total]; phase1 > 1e-6 {
		return nil, ErrInfeasible
	}
	// Drive any artificial variables that remain basic at level zero out of
	// the basis (a fully zero row is redundant; its artificial stays at 0).
	// These pivots still update the artificial columns: the pricing below
	// reads them for the artificials left in the basis.
	for i := 0; i < m; i++ {
		if basis[i] < live {
			continue
		}
		for j := 0; j < live; j++ {
			if math.Abs(tab[i][j]) > eps {
				pivot(tab, basis, i, j, total, cols)
				break
			}
		}
	}

	// Phase 2: replace the objective row with the real objective, forbid the
	// artificial columns, and price out the current basis. From here on
	// nothing reads the artificial columns, so pivots leave them stale.
	for j := 0; j <= total; j++ {
		obj[j] = 0
	}
	for j, c := range p.objective {
		obj[j] = c
	}
	for i := 0; i < m; i++ {
		bj := basis[i]
		if math.Abs(obj[bj]) > eps {
			coef := obj[bj]
			for j := 0; j <= total; j++ {
				obj[j] -= coef * tab[i][j]
			}
		}
	}
	if err := runSimplex(tab, basis, total, live, cols); err != nil {
		return nil, err
	}

	sol := &Solution{Values: make([]float64, n)}
	for i := 0; i < m; i++ {
		if basis[i] < n {
			sol.Values[basis[i]] = tab[i][total]
		}
	}
	// Accumulate in ascending variable order: map iteration order would vary
	// the float summation order and with it the last bits of the reported
	// objective between otherwise identical runs.
	var objVal float64
	for j := 0; j < n; j++ {
		if c, ok := p.objective[j]; ok {
			objVal += c * sol.Values[j]
		}
	}
	sol.Objective = objVal
	return sol, nil
}

// runSimplex pivots until no column among the first allowedCols has a
// negative reduced cost (phase 1 allows every column, phase 2 excludes the
// artificial ones). cols is the column buffer pivot reuses.
func runSimplex(tab [][]float64, basis []int, total, allowedCols int, cols []int) error {
	m := len(tab) - 1
	obj := tab[m]
	maxIter := 200 * (m + total + 1)
	for iter := 0; iter < maxIter; iter++ {
		// Bland's rule (smallest index with negative reduced cost) to avoid
		// cycling.
		col := -1
		for j := 0; j < allowedCols; j++ {
			if obj[j] < -eps {
				col = j
				break
			}
		}
		if col < 0 {
			return nil // optimal
		}
		// Ratio test.
		row := -1
		best := math.MaxFloat64
		for i := 0; i < m; i++ {
			if tab[i][col] > eps {
				ratio := tab[i][total] / tab[i][col]
				if ratio < best-eps || (math.Abs(ratio-best) <= eps && (row < 0 || basis[i] < basis[row])) {
					best = ratio
					row = i
				}
			}
		}
		if row < 0 {
			return ErrUnbounded
		}
		pivot(tab, basis, row, col, allowedCols, cols)
	}
	return errors.New("lp: simplex iteration limit exceeded")
}

// pivot performs a Gauss-Jordan pivot on (row, col). It keeps the first
// ncols columns and the rhs up to date and leaves the columns in between
// stale. Within those it divides and subtracts only where the pivot row is
// nonzero; cols, with room for every column, holds that column list. For
// any x, x - f*(±0) differs from x at most in the sign of a zero, so every
// nonzero entry, and with it every pivot choice, is bit-identical to a
// full-row update. The sign of a zero matters in the rhs column alone:
// Solve reads it back as the solution, and a -0 there prints as a "-0.000"
// switch coordinate. So the rhs is updated whatever its value, exactly as
// a full-row update would.
func pivot(tab [][]float64, basis []int, row, col, ncols int, cols []int) {
	pr := tab[row]
	rhs := len(pr) - 1
	p := pr[col]
	cols = cols[:0]
	for j, v := range pr[:ncols] {
		if v != 0 {
			pr[j] = v / p
			cols = append(cols, j)
		}
	}
	pr[rhs] /= p
	cols = append(cols, rhs)
	for i, r := range tab {
		if i == row {
			continue
		}
		f := r[col]
		if math.Abs(f) < eps {
			continue
		}
		for _, j := range cols {
			r[j] -= f * pr[j]
		}
	}
	basis[row] = col
}
