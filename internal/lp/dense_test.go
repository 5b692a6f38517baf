package lp

// Bit-level equivalence of the sparse pivot with the dense one it replaced.
// solveDense, runSimplexDense and pivotDense are the solver as it was before
// the pivot went sparse, kept verbatim as a test oracle: every Gauss-Jordan
// step subtracts a multiple of the whole pivot row. FuzzSolveMatchesDense
// requires Solve to agree with it bit for bit, the sign of a zero included,
// on placement-shaped LPs (the shape place.solveAxis builds) and on small
// general LPs.

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// solveDense is the dense two-phase simplex that Solve must reproduce.
func solveDense(p *Problem) (*Solution, error) {
	n := p.nvars
	m := len(p.constraints)
	if n == 0 {
		return &Solution{Objective: 0}, nil
	}

	type row struct {
		a  []float64
		b  float64
		op ConstraintOp
	}
	rows := make([]row, m)
	for i, c := range p.constraints {
		a := make([]float64, n)
		for j, v := range c.coeffs {
			a[j] = v
		}
		b := c.rhs
		op := c.op
		if b < 0 {
			for j := range a {
				a[j] = -a[j]
			}
			b = -b
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		rows[i] = row{a: a, b: b, op: op}
	}

	numSlack := 0
	for _, r := range rows {
		if r.op != EQ {
			numSlack++
		}
	}
	total := n + numSlack + m

	tab := make([][]float64, m+1)
	for i := range tab {
		tab[i] = make([]float64, total+1)
	}
	basis := make([]int, m)
	slackCol := n
	for i, r := range rows {
		copy(tab[i], r.a)
		switch r.op {
		case LE:
			tab[i][slackCol] = 1
			slackCol++
		case GE:
			tab[i][slackCol] = -1
			slackCol++
		}
		artCol := n + numSlack + i
		tab[i][artCol] = 1
		basis[i] = artCol
		tab[i][total] = r.b
	}

	obj := tab[m]
	for i := 0; i < m; i++ {
		art := n + numSlack + i
		obj[art] = 1
	}
	for i := 0; i < m; i++ {
		for j := 0; j <= total; j++ {
			obj[j] -= tab[i][j]
		}
	}
	if err := runSimplexDense(tab, basis, total, total); err != nil {
		return nil, err
	}
	if phase1 := -tab[m][total]; phase1 > 1e-6 {
		return nil, ErrInfeasible
	}
	for i := 0; i < m; i++ {
		if basis[i] < n+numSlack {
			continue
		}
		for j := 0; j < n+numSlack; j++ {
			if math.Abs(tab[i][j]) > eps {
				pivotDense(tab, basis, i, j, total)
				break
			}
		}
	}

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
	if err := runSimplexDense(tab, basis, total, n+numSlack); err != nil {
		return nil, err
	}

	sol := &Solution{Values: make([]float64, n)}
	for i := 0; i < m; i++ {
		if basis[i] < n {
			sol.Values[basis[i]] = tab[i][total]
		}
	}
	var objVal float64
	for j := 0; j < n; j++ {
		if c, ok := p.objective[j]; ok {
			objVal += c * sol.Values[j]
		}
	}
	sol.Objective = objVal
	return sol, nil
}

func runSimplexDense(tab [][]float64, basis []int, total, allowedCols int) error {
	m := len(tab) - 1
	obj := tab[m]
	maxIter := 200 * (m + total + 1)
	for iter := 0; iter < maxIter; iter++ {
		col := -1
		for j := 0; j < allowedCols; j++ {
			if obj[j] < -eps {
				col = j
				break
			}
		}
		if col < 0 {
			return nil
		}
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
		pivotDense(tab, basis, row, col, total)
	}
	return errors.New("lp: simplex iteration limit exceeded")
}

func pivotDense(tab [][]float64, basis []int, row, col, total int) {
	p := tab[row][col]
	for j := 0; j <= total; j++ {
		tab[row][j] /= p
	}
	for i := range tab {
		if i == row {
			continue
		}
		f := tab[i][col]
		if math.Abs(f) < eps {
			continue
		}
		for j := 0; j <= total; j++ {
			tab[i][j] -= f * tab[row][j]
		}
	}
	basis[row] = col
}

// lpReader decodes fuzz bytes into LP parameters. Once the input is used up
// it yields zeros, so every input decodes to some problem.
type lpReader struct{ data []byte }

func (r *lpReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

// coord is a core-centre coordinate: exactly 0 (which place.solveAxis turns
// into a -0 constant), integral, or fractional.
func (r *lpReader) coord() float64 {
	v := r.next()
	switch v % 4 {
	case 0:
		return 0
	case 1:
		return float64(v / 4)
	case 2:
		return float64(v) * 0.1
	default:
		return float64(v/4) + 0.25
	}
}

// weight is a positive bandwidth weight, integral or fractional.
func (r *lpReader) weight() float64 {
	v := r.next()
	if v%2 == 0 {
		return float64(1 + 25*(v/2))
	}
	return 0.5 + float64(v)*3.7
}

// coeff is a small coefficient in [-4, 4], scaled by 0.3 for odd bytes
// above 127.
func (r *lpReader) coeff() float64 {
	v := r.next()
	c := float64(v%9 - 4)
	if v >= 128 && v%2 == 1 {
		c *= 0.3
	}
	return c
}

// rhs is a right-hand side: +0, -0, positive or negative.
func (r *lpReader) rhs() float64 {
	v := r.next()
	switch v % 4 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return float64(v/4) * 0.5
	default:
		return -float64(v/4) * 0.7
	}
}

// placementLP builds the one-axis switch-position LP the way place.solveAxis
// does: a variable per switch, one |switch - core| term per attached core
// (constant -coordinate), then one |switch_a - switch_b| term per linked
// pair in ascending pair order (constant 0).
func placementLP(r *lpReader) *Problem {
	p := NewProblem()
	pos := make([]int, 1+r.next()%8)
	for i := range pos {
		pos[i] = p.AddVariable(0)
	}
	for c, cores := 0, 1+r.next()%24; c < cores; c++ {
		sw := pos[r.next()%len(pos)]
		p.AddAbsDifferenceObjective([]Term{{Var: sw, Coeff: 1}}, -r.coord(), r.weight())
	}
	for a := range pos {
		for b := a + 1; b < len(pos); b++ {
			if r.next()%2 == 0 {
				continue
			}
			p.AddAbsDifferenceObjective([]Term{{Var: pos[a], Coeff: 1}, {Var: pos[b], Coeff: -1}}, 0, r.weight())
		}
	}
	return p
}

// generalLP builds a small LP with LE, GE and EQ rows, signed objective
// coefficients and right-hand sides of every sign; a row can also repeat
// the previous one doubled (a redundant constraint). Such problems are
// optimal, infeasible or unbounded.
func generalLP(r *lpReader) *Problem {
	p := NewProblem()
	n := 1 + r.next()%5
	for j := 0; j < n; j++ {
		p.AddVariable(r.coeff())
	}
	for i, rows := 0, r.next()%8; i < rows; i++ {
		kind := r.next()
		if kind%8 == 7 && i > 0 {
			prev := p.constraints[len(p.constraints)-1]
			doubled := make(map[int]float64, len(prev.coeffs))
			for j := 0; j < n; j++ {
				if c, ok := prev.coeffs[j]; ok {
					doubled[j] = 2 * c
				}
			}
			p.AddConstraint(doubled, prev.op, 2*prev.rhs)
			continue
		}
		coeffs := make(map[int]float64, n)
		for j := 0; j < n; j++ {
			coeffs[j] = r.coeff()
		}
		p.AddConstraint(coeffs, ConstraintOp(kind%3), r.rhs())
	}
	return p
}

// decodeLP turns a fuzz input into a problem: placement-shaped when the
// first byte is even, general when it is odd.
func decodeLP(data []byte) *Problem {
	r := &lpReader{data: data}
	if r.next()%2 == 0 {
		return placementLP(r)
	}
	return generalLP(r)
}

// requireSameSolution fails unless Solve and solveDense return the same
// error and Float64bits-equal values and objective.
func requireSameSolution(t *testing.T, p *Problem) {
	t.Helper()
	got, gotErr := p.Solve()
	want, wantErr := solveDense(p)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("error: sparse %v, dense %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("objective: sparse %v (%#x), dense %v (%#x)",
			got.Objective, math.Float64bits(got.Objective), want.Objective, math.Float64bits(want.Objective))
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("values: sparse has %d, dense %d", len(got.Values), len(want.Values))
	}
	for i := range got.Values {
		if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
			t.Fatalf("value %d: sparse %v (%#x), dense %v (%#x)",
				i, got.Values[i], math.Float64bits(got.Values[i]), want.Values[i], math.Float64bits(want.Values[i]))
		}
	}
}

func FuzzSolveMatchesDense(f *testing.F) {
	// Placement-shaped: two switches; cores at 0 (a -0 constant), at an
	// integral and at two fractional coordinates; the one switch pair.
	f.Add([]byte{0, 1, 3, 0, 0, 2, 1, 5, 9, 0, 6, 4, 1, 7, 3, 1, 10})
	// Placement-shaped: four cores, all at 0, on one switch.
	f.Add([]byte{0, 0, 3, 0, 0, 2, 0, 4, 1, 0, 8, 3, 0, 12, 7})
	// Placement-shaped: eight switches with three cores each, every pair
	// linked.
	eight := []byte{0, 7, 23}
	for c := 0; c < 24; c++ {
		eight = append(eight, byte(c%8), byte(c*7), byte(c*5+1))
	}
	for k := 0; k < 28; k++ {
		eight = append(eight, 1, byte(k*9))
	}
	f.Add(eight)
	// General: minimise -3x - 2y under x + y <= 4, x + 3y <= 6.
	f.Add([]byte{1, 1, 1, 2, 2, 0, 5, 5, 34, 3, 5, 7, 50})
	// General: infeasible, x <= 2 and x >= 5.
	f.Add([]byte{1, 0, 5, 2, 0, 5, 18, 1, 5, 42})
	// General: unbounded, minimise -x under x >= 0.
	f.Add([]byte{1, 0, 3, 1, 1, 5, 0})
	// General: x + y = 4, the same row doubled, and negative right-hand
	// sides: -x <= -0.7, -y >= -1.4.
	f.Add([]byte{1, 1, 5, 5, 4, 2, 5, 5, 34, 7, 0, 3, 4, 7, 1, 4, 3, 11})
	// Generated inputs of every length up to 96 bytes.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(97))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSameSolution(t, decodeLP(data))
	})
}
