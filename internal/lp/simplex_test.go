package lp

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) < eps }

func TestSimpleMaximizationAsMinimization(t *testing.T) {
	// maximise 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0
	// (classic example; optimum x=2, y=6, objective 36). We minimise the
	// negation.
	p := NewProblem()
	x := p.AddVariable(-3)
	y := p.AddVariable(-5)
	p.AddConstraint(map[int]float64{x: 1}, LE, 4)
	p.AddConstraint(map[int]float64{y: 2}, LE, 12)
	p.AddConstraint(map[int]float64{x: 3, y: 2}, LE, 18)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almost(sol.Objective, -36, 1e-6) {
		t.Errorf("objective = %v, want -36", sol.Objective)
	}
	if !almost(sol.Value(x), 2, 1e-6) || !almost(sol.Value(y), 6, 1e-6) {
		t.Errorf("x=%v y=%v, want 2,6", sol.Value(x), sol.Value(y))
	}
}

func TestMinimizationWithGEConstraints(t *testing.T) {
	// minimise 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3
	// optimum: y at its lower bound? 2x+3y with x+y>=10: put as much on x:
	// x=7, y=3 -> 14+9=23.
	p := NewProblem()
	x := p.AddVariable(2)
	y := p.AddVariable(3)
	p.AddConstraint(map[int]float64{x: 1, y: 1}, GE, 10)
	p.AddConstraint(map[int]float64{x: 1}, GE, 2)
	p.AddConstraint(map[int]float64{y: 1}, GE, 3)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almost(sol.Objective, 23, 1e-6) {
		t.Errorf("objective = %v, want 23", sol.Objective)
	}
	if !almost(sol.Value(x), 7, 1e-6) || !almost(sol.Value(y), 3, 1e-6) {
		t.Errorf("x=%v y=%v, want 7,3", sol.Value(x), sol.Value(y))
	}
}

func TestEqualityConstraints(t *testing.T) {
	// minimise x + 2y s.t. x + y = 5, x - y = 1 -> x=3, y=2, obj=7.
	p := NewProblem()
	x := p.AddVariable(1)
	y := p.AddVariable(2)
	p.AddConstraint(map[int]float64{x: 1, y: 1}, EQ, 5)
	p.AddConstraint(map[int]float64{x: 1, y: -1}, EQ, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almost(sol.Value(x), 3, 1e-6) || !almost(sol.Value(y), 2, 1e-6) {
		t.Errorf("x=%v y=%v, want 3,2", sol.Value(x), sol.Value(y))
	}
	if !almost(sol.Objective, 7, 1e-6) {
		t.Errorf("objective = %v, want 7", sol.Objective)
	}
}

func TestNegativeRHS(t *testing.T) {
	// minimise x s.t. -x <= -4  (i.e. x >= 4)
	p := NewProblem()
	x := p.AddVariable(1)
	p.AddConstraint(map[int]float64{x: -1}, LE, -4)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almost(sol.Value(x), 4, 1e-6) {
		t.Errorf("x = %v, want 4", sol.Value(x))
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(1)
	p.AddConstraint(map[int]float64{x: 1}, LE, 2)
	p.AddConstraint(map[int]float64{x: 1}, GE, 5)
	if _, err := p.Solve(); err != ErrInfeasible {
		t.Errorf("expected ErrInfeasible, got %v", err)
	}
}

func TestUnbounded(t *testing.T) {
	// minimise -x with only x >= 0: unbounded below.
	p := NewProblem()
	x := p.AddVariable(-1)
	p.AddConstraint(map[int]float64{x: 1}, GE, 0)
	if _, err := p.Solve(); err != ErrUnbounded {
		t.Errorf("expected ErrUnbounded, got %v", err)
	}
}

func TestEmptyProblem(t *testing.T) {
	p := NewProblem()
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Objective != 0 {
		t.Errorf("objective = %v", sol.Objective)
	}
}

func TestDegenerateRedundantConstraints(t *testing.T) {
	// Redundant equalities should not break phase 1 / basis cleanup.
	p := NewProblem()
	x := p.AddVariable(1)
	y := p.AddVariable(1)
	p.AddConstraint(map[int]float64{x: 1, y: 1}, EQ, 4)
	p.AddConstraint(map[int]float64{x: 2, y: 2}, EQ, 8) // same constraint doubled
	p.AddConstraint(map[int]float64{x: 1}, GE, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almost(sol.Objective, 4, 1e-6) {
		t.Errorf("objective = %v, want 4", sol.Objective)
	}
	if !almost(sol.Value(x)+sol.Value(y), 4, 1e-6) {
		t.Errorf("x+y = %v, want 4", sol.Value(x)+sol.Value(y))
	}
}

func TestVariableNamesAndCounts(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(2)
	p.AddConstraint(map[int]float64{x: 1}, LE, 3)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almost(sol.Value(x), 0, 1e-6) {
		t.Errorf("x = %v, want 0", sol.Value(x))
	}
}

func TestAddConstraintPanicsOnBadVariable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p := NewProblem()
	p.AddConstraint(map[int]float64{3: 1}, LE, 1)
}

func TestWeightedMedianViaAbsTerms(t *testing.T) {
	// minimise sum_i w_i |x - a_i| : the optimum is a weighted median of a_i.
	// Points 0 (w=1), 10 (w=1), 4 (w=5): optimum x = 4.
	p := NewProblem()
	x := p.AddVariable(0)
	points := []struct{ a, w float64 }{{0, 1}, {10, 1}, {4, 5}}
	for _, pt := range points {
		p.AddAbsDifferenceObjective([]Term{{Var: x, Coeff: 1}}, -pt.a, pt.w)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almost(sol.Value(x), 4, 1e-6) {
		t.Errorf("x = %v, want 4", sol.Value(x))
	}
	// objective = 1*4 + 1*6 + 5*0 = 10
	if !almost(sol.Objective, 10, 1e-6) {
		t.Errorf("objective = %v, want 10", sol.Objective)
	}
}

func TestAbsBetweenTwoVariables(t *testing.T) {
	// minimise |x - y| + 0.01 x s.t. x >= 5, y <= 3  ->  x=5, y=3, obj 2.05
	p := NewProblem()
	x := p.AddVariable(0.01)
	y := p.AddVariable(0)
	p.AddConstraint(map[int]float64{x: 1}, GE, 5)
	p.AddConstraint(map[int]float64{y: 1}, LE, 3)
	p.AddAbsDifferenceObjective([]Term{{Var: x, Coeff: 1}, {Var: y, Coeff: -1}}, 0, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almost(sol.Value(x), 5, 1e-6) || !almost(sol.Value(y), 3, 1e-6) {
		t.Errorf("x=%v y=%v", sol.Value(x), sol.Value(y))
	}
	if !almost(sol.Objective, 2.05, 1e-6) {
		t.Errorf("objective = %v, want 2.05", sol.Objective)
	}
}

// Property: for random weighted-median instances the LP optimum matches the
// analytic weighted median cost.
func TestWeightedMedianProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		type pt struct{ a, w float64 }
		pts := make([]pt, len(raw))
		for i, r := range raw {
			pts[i] = pt{a: float64(r % 50), w: float64(r%7) + 1}
		}
		p := NewProblem()
		x := p.AddVariable(0)
		for _, q := range pts {
			p.AddAbsDifferenceObjective([]Term{{Var: x, Coeff: 1}}, -q.a, q.w)
		}
		sol, err := p.Solve()
		if err != nil {
			return false
		}
		// Brute force over candidate positions (optimum is at one of the a_i).
		best := math.MaxFloat64
		for _, cand := range pts {
			cost := 0.0
			for _, q := range pts {
				cost += q.w * math.Abs(cand.a-q.a)
			}
			if cost < best {
				best = cost
			}
		}
		return almost(sol.Objective, best, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
