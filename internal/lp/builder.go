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
	for _, t := range terms {
		p.checkVar(t.Var)
	}
	d := p.AddVariable(weight)
	// The two rows d - expr >= constant and d + expr >= -constant, that is
	// d >= expr + constant and d >= -(expr + constant). Both list expr's
	// coefficients in ascending variable order, repeated variables summed
	// and zero sums dropped, followed by d, the newest variable. Negation
	// commutes with rounding, so the second row's coefficients, negated
	// from the first's, are expr's sums exactly.
	lo := len(p.terms)
	for _, t := range terms {
		p.terms = addTerm(p.terms, lo, Term{Var: t.Var, Coeff: -t.Coeff})
	}
	p.terms = dropZeros(p.terms, lo)
	p.terms = append(p.terms, Term{Var: d, Coeff: 1})
	p.addRow(lo, GE, constant)
	mid := len(p.terms)
	for _, t := range p.terms[lo : mid-1] {
		p.terms = append(p.terms, Term{Var: t.Var, Coeff: -t.Coeff})
	}
	p.terms = append(p.terms, Term{Var: d, Coeff: 1})
	p.addRow(mid, GE, -constant)
	return d
}

// addTerm adds t into the row that starts at row[lo], which is sorted by
// variable: t's coefficient is added to an existing entry of its variable,
// or t is inserted in order.
func addTerm(row []Term, lo int, t Term) []Term {
	i := len(row)
	for i > lo && row[i-1].Var > t.Var {
		i--
	}
	if i > lo && row[i-1].Var == t.Var {
		row[i-1].Coeff += t.Coeff
		return row
	}
	row = append(row, Term{})
	copy(row[i+1:], row[i:])
	row[i] = t
	return row
}

// dropZeros removes the zero coefficients of the row that starts at row[lo].
func dropZeros(row []Term, lo int) []Term {
	out := row[:lo]
	for _, t := range row[lo:] {
		if t.Coeff != 0 {
			out = append(out, t)
		}
	}
	return out
}
