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
// the instances (tens of switches) are tiny. A problem is built without
// maps: each constraint row is a slice of its nonzero coefficients in
// ascending variable order, and the objective is one coefficient per
// variable. The tableau is dense, but its arithmetic is not: the phase-1
// pricing subtracts only each row's nonzero cells, and each Gauss-Jordan
// step updates only the columns where the pivot row is nonzero, plus the
// right-hand side in both.
package lp

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
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

// constraint is a single row a^T x (op) b. Its coefficients are the row
// slice Problem.terms[lo:hi].
type constraint struct {
	lo, hi int
	op     ConstraintOp
	rhs    float64
}

// Problem is an LP under construction. All structural variables are
// non-negative.
type Problem struct {
	nvars int
	// objective holds every variable's objective coefficient; a zero one,
	// -0 included, is stored as +0.
	objective []float64
	// terms holds the rows' coefficients one row after the other: each row
	// lists its nonzero coefficients in ascending variable order.
	terms       []Term
	constraints []constraint
}

// NewProblem returns an empty minimisation problem.
func NewProblem() *Problem {
	return &Problem{}
}

// AddVariable adds a non-negative variable with the given objective
// coefficient and returns its index.
func (p *Problem) AddVariable(objCoeff float64) int {
	idx := p.nvars
	p.nvars++
	c := 0.0
	if objCoeff != 0 {
		c = objCoeff
	}
	p.objective = append(p.objective, c)
	return idx
}

// AddConstraint adds the constraint sum(coeffs[i]*x_i) op rhs.
func (p *Problem) AddConstraint(coeffs map[int]float64, op ConstraintOp, rhs float64) {
	lo := len(p.terms)
	//determlint:ordered the row is sorted by variable below, so its order does not depend on map order; the checkVar panic fires only on caller bugs, never in a valid Result path
	for i, c := range coeffs {
		p.checkVar(i)
		if c != 0 {
			p.terms = append(p.terms, Term{Var: i, Coeff: c})
		}
	}
	row := p.terms[lo:]
	sort.Slice(row, func(a, b int) bool { return row[a].Var < row[b].Var })
	p.addRow(lo, op, rhs)
}

// addRow closes the row whose coefficients were appended to p.terms from
// index lo on.
func (p *Problem) addRow(lo int, op ConstraintOp, rhs float64) {
	p.constraints = append(p.constraints, constraint{lo: lo, hi: len(p.terms), op: op, rhs: rhs})
}

// row returns the nonzero coefficients of constraint i in ascending
// variable order.
func (p *Problem) row(i int) []Term {
	c := p.constraints[i]
	return p.terms[c.lo:c.hi]
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
	// with a negative rhs are negated so that b >= 0. The memory comes from
	// workspaces; clear makes every cell +0, as make would.
	width := total + 1
	ws := workspaces.Get().(*workspace)
	defer ws.release()
	ws.cells = resize(ws.cells, (m+1)*width)
	ws.rows = resize(ws.rows, m+1)
	ws.basis = resize(ws.basis, m)
	ws.cols = resize(ws.cols, width)
	cells, tab, basis := ws.cells, ws.rows, ws.basis
	clear(cells)
	for i := range tab {
		tab[i] = cells[i*width : (i+1)*width]
	}
	// Phase 1 objective: minimise the sum of artificial variables, priced
	// out below for the artificial basis every row starts in.
	obj := tab[m]
	slackCol := n
	for i, c := range p.constraints {
		r := tab[i]
		terms := p.row(i)
		b, op := c.rhs, c.op
		sign := 1.0
		if b < 0 {
			sign = -1
			b = -b
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		// Negating a row leaves its zero cells +0, where a whole-row
		// negation would make them -0. The sign of a zero outside the rhs
		// reaches no pivot choice and no solution value (see pivot).
		for _, t := range terms {
			r[t.Var] = sign * t.Coeff
		}
		// Price out the row's artificial: subtract the row from the
		// objective. Only its coefficients, its slack or surplus and its
		// rhs can be nonzero; its artificial's reduced cost, 1 - 1, is
		// the +0 the column already holds. Rows are priced in order, so
		// every nonzero entry of obj is bit-identical to a subtraction of
		// whole rows. A skipped zero could at most turn a -0 into +0, and
		// no entry of obj is ever -0: it starts at +0, and x - x is +0.
		// The rhs is subtracted whatever its value, as in pivot.
		for _, t := range terms {
			obj[t.Var] -= r[t.Var]
		}
		if op != EQ {
			r[slackCol] = 1
			if op == GE {
				r[slackCol] = -1
			}
			obj[slackCol] -= r[slackCol]
			slackCol++
		}
		r[live+i] = 1
		basis[i] = live + i
		r[total] = b
		obj[total] -= b
	}
	// For LE rows with a positive slack we could start from the slack basis,
	// but starting from the artificial basis everywhere keeps the code
	// simple; phase 1 drives all artificials out regardless.
	cols := ws.cols[:0] // pivot's column list, reused by every pivot
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
	copy(obj, p.objective)
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
	// Accumulate in ascending variable order, skipping the variables
	// without an objective term.
	var objVal float64
	for j, c := range p.objective {
		if c != 0 {
			objVal += c * sol.Values[j]
		}
	}
	sol.Objective = objVal
	return sol, nil
}

// workspace is the memory one Solve works in: the tableau's backing array
// and row headers, the basis and pivot's column buffer. Solve takes one from
// workspaces and puts it back when it returns, so the placement of one
// design point after another reuses one tableau per worker instead of
// allocating and zeroing a new one per LP. No Solution aliases it.
type workspace struct {
	cells []float64
	rows  [][]float64
	basis []int
	cols  []int
}

// workspaces holds the workspaces of finished solves.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// maxPooledCells is the largest tableau, in cells (512 KiB), that a
// workspace keeps in workspaces. A pooled workspace stays live for two
// collections after its solve, so a large tableau would stay resident
// through the work that follows its LP, such as the simulation of a refined
// best point; a larger one is left to the collector instead. 502 of the 504
// placement LPs of perf's seed-1 signoff list (D_26_media, D_38_tvopd) fit;
// D_65_pipe's refined best point (136125 cells) does not.
const maxPooledCells = 1 << 16

// release hands the workspace back to workspaces unless its tableau is
// larger than maxPooledCells.
func (ws *workspace) release() {
	if cap(ws.cells) <= maxPooledCells {
		workspaces.Put(ws)
	}
}

// resize returns s with length n, reusing its memory when it has room. The
// elements keep whatever they held.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
