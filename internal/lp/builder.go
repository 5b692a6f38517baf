package lp

// Builder helper on top of the raw simplex solver. The switch-position LP of
// Section VII minimises sums of bandwidth-weighted Manhattan distances, i.e.
// sums of |x_i - x_j| terms. Each absolute value is linearised in the
// standard way with an auxiliary non-negative variable d and the two
// constraints d >= x_i - x_j and d >= x_j - x_i, after which d appears in the
// objective with the term's weight.

// Term is a linear term Coeff * x_Var.
type Term struct {
	Var   int
	Coeff float64
}

// AddAbsDifferenceObjective adds weight * |expr| to the objective, where expr
// is the linear expression described by terms (plus the constant). It returns
// the index of the auxiliary variable holding |expr| at the optimum (for
// positive weight).
func (p *Problem) AddAbsDifferenceObjective(terms []Term, constant, weight float64) int {
	d := p.AddVariable(weight)
	// d >= expr  ->  d - expr >= -constant
	coeffs := make(map[int]float64)
	for _, t := range terms {
		coeffs[t.Var] += t.Coeff
	}
	neg := make(map[int]float64, len(coeffs)+1)
	for i, c := range coeffs {
		neg[i] = -c
	}
	neg[d] += 1
	p.AddConstraint(neg, GE, constant)
	// d >= -expr  ->  d + expr >= constant... careful with signs:
	// expr + constant can be negative; we need d >= expr + constant and
	// d >= -(expr + constant).
	pos := make(map[int]float64, len(coeffs)+1)
	for i, c := range coeffs {
		pos[i] = c
	}
	pos[d] += 1
	p.AddConstraint(pos, GE, -constant)
	return d
}
