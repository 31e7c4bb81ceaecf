package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, p Problem) Solution {
	t.Helper()
	s, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestValidate(t *testing.T) {
	if err := (Problem{}).Validate(); err == nil {
		t.Error("empty problem accepted")
	}
	if err := (Problem{NumVars: 2, Objective: []float64{1}}).Validate(); err == nil {
		t.Error("objective length mismatch accepted")
	}
	p := Problem{NumVars: 1, Objective: []float64{1},
		Rows: []Row{{Terms: []Term{{Var: 5, Coeff: 1}}, Sense: LE, RHS: 1}}}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range variable accepted")
	}
	p = Problem{NumVars: 1, Objective: []float64{1},
		Rows: []Row{{Terms: []Term{{Var: 0, Coeff: math.NaN()}}, Sense: LE, RHS: 1}}}
	if err := p.Validate(); err == nil {
		t.Error("NaN coefficient accepted")
	}
}

func TestSimpleMaximisation(t *testing.T) {
	// max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18  (classic; optimum 36 at (2,6)).
	p := Problem{
		NumVars:   2,
		Objective: []float64{-3, -5},
		Rows: []Row{
			{Terms: []Term{{0, 1}}, Sense: LE, RHS: 4},
			{Terms: []Term{{1, 2}}, Sense: LE, RHS: 12},
			{Terms: []Term{{0, 3}, {1, 2}}, Sense: LE, RHS: 18},
		},
	}
	s := solveOK(t, p)
	if s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
	if math.Abs(s.Objective-(-36)) > 1e-6 {
		t.Errorf("objective = %v, want -36", s.Objective)
	}
	if math.Abs(s.X[0]-2) > 1e-6 || math.Abs(s.X[1]-6) > 1e-6 {
		t.Errorf("X = %v, want (2,6)", s.X)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + 2y s.t. x + y = 3, x <= 1 → x=1, y=2, obj 5.
	p := Problem{
		NumVars:   2,
		Objective: []float64{1, 2},
		Rows: []Row{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: EQ, RHS: 3},
			{Terms: []Term{{0, 1}}, Sense: LE, RHS: 1},
		},
	}
	s := solveOK(t, p)
	if s.Status != Optimal || math.Abs(s.Objective-5) > 1e-6 {
		t.Fatalf("status %v obj %v, want optimal 5", s.Status, s.Objective)
	}
}

func TestGEConstraint(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 4, x <= 3 → (3,1): 9.
	p := Problem{
		NumVars:   2,
		Objective: []float64{2, 3},
		Rows: []Row{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: GE, RHS: 4},
			{Terms: []Term{{0, 1}}, Sense: LE, RHS: 3},
		},
	}
	s := solveOK(t, p)
	if s.Status != Optimal || math.Abs(s.Objective-9) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 9", s.Status, s.Objective)
	}
}

func TestNegativeRHSNormalisation(t *testing.T) {
	// -x - y <= -4 is x + y >= 4.
	p := Problem{
		NumVars:   2,
		Objective: []float64{2, 3},
		Rows: []Row{
			{Terms: []Term{{0, -1}, {1, -1}}, Sense: LE, RHS: -4},
			{Terms: []Term{{0, 1}}, Sense: LE, RHS: 3},
		},
	}
	s := solveOK(t, p)
	if s.Status != Optimal || math.Abs(s.Objective-9) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 9", s.Status, s.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := Problem{
		NumVars:   1,
		Objective: []float64{1},
		Rows: []Row{
			{Terms: []Term{{0, 1}}, Sense: GE, RHS: 5},
			{Terms: []Term{{0, 1}}, Sense: LE, RHS: 2},
		},
	}
	s := solveOK(t, p)
	if s.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x with x >= 0 only.
	p := Problem{
		NumVars:   1,
		Objective: []float64{-1},
		Rows:      []Row{{Terms: []Term{{0, 1}}, Sense: GE, RHS: 0}},
	}
	s := solveOK(t, p)
	if s.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", s.Status)
	}
}

func TestNoRows(t *testing.T) {
	// min x with no constraints: x = 0.
	p := Problem{NumVars: 1, Objective: []float64{1}}
	s := solveOK(t, p)
	if s.Status != Optimal || s.Objective != 0 {
		t.Fatalf("got %v obj %v", s.Status, s.Objective)
	}
}

func TestRedundantEquality(t *testing.T) {
	// Duplicate equality rows leave a basic artificial on a redundant row;
	// phase 2 must still solve correctly.
	p := Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Rows: []Row{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: EQ, RHS: 2},
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: EQ, RHS: 2},
			{Terms: []Term{{0, 1}}, Sense: GE, RHS: 1},
		},
	}
	s := solveOK(t, p)
	if s.Status != Optimal || math.Abs(s.Objective-2) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 2", s.Status, s.Objective)
	}
}

func TestDegenerate(t *testing.T) {
	// A degenerate vertex (several constraints meet): must not cycle.
	p := Problem{
		NumVars:   2,
		Objective: []float64{-1, -1},
		Rows: []Row{
			{Terms: []Term{{0, 1}}, Sense: LE, RHS: 1},
			{Terms: []Term{{1, 1}}, Sense: LE, RHS: 1},
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: LE, RHS: 2},
			{Terms: []Term{{0, 1}, {1, -1}}, Sense: LE, RHS: 0},
			{Terms: []Term{{0, -1}, {1, 1}}, Sense: LE, RHS: 0},
		},
	}
	s := solveOK(t, p)
	if s.Status != Optimal || math.Abs(s.Objective-(-2)) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal -2", s.Status, s.Objective)
	}
}

// feasible reports whether x satisfies all rows of p within tolerance.
func feasible(p Problem, x []float64) bool {
	for _, v := range x {
		if v < -1e-6 {
			return false
		}
	}
	for _, r := range p.Rows {
		var lhs float64
		for _, term := range r.Terms {
			lhs += term.Coeff * x[term.Var]
		}
		switch r.Sense {
		case LE:
			if lhs > r.RHS+1e-6 {
				return false
			}
		case GE:
			if lhs < r.RHS-1e-6 {
				return false
			}
		case EQ:
			if math.Abs(lhs-r.RHS) > 1e-6 {
				return false
			}
		}
	}
	return true
}

func TestRandomProblemsSolutionFeasibleAndNotBeatenBySampling(t *testing.T) {
	// Property: on random bounded LPs, the simplex solution is feasible and
	// no random feasible sample achieves a lower objective.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(4)
		m := 1 + rng.Intn(5)
		p := Problem{NumVars: n, Objective: make([]float64, n)}
		for i := range p.Objective {
			p.Objective[i] = rng.Float64()*4 - 1 // mostly positive
		}
		// Box constraints keep it bounded.
		for i := 0; i < n; i++ {
			p.Rows = append(p.Rows, Row{
				Terms: []Term{{i, 1}}, Sense: LE, RHS: 1 + rng.Float64()*4,
			})
		}
		for i := 0; i < m; i++ {
			row := Row{Sense: GE, RHS: rng.Float64()}
			for j := 0; j < n; j++ {
				row.Terms = append(row.Terms, Term{j, rng.Float64()})
			}
			p.Rows = append(p.Rows, row)
		}
		s := solveOK(t, p)
		if s.Status == Infeasible {
			continue
		}
		if s.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, s.Status)
		}
		if !feasible(p, s.X) {
			t.Fatalf("trial %d: solution infeasible: %v", trial, s.X)
		}
		// Sample random feasible points; none should beat the optimum.
		for k := 0; k < 200; k++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = rng.Float64() * 5
			}
			if feasible(p, x) {
				var obj float64
				for j := range x {
					obj += p.Objective[j] * x[j]
				}
				if obj < s.Objective-1e-5 {
					t.Fatalf("trial %d: sample %v beats optimum (%v < %v)",
						trial, x, obj, s.Objective)
				}
			}
		}
	}
}

func TestDuplicateTermsAccumulate(t *testing.T) {
	// Two terms on the same variable must sum: x + x <= 4 means x <= 2.
	p := Problem{
		NumVars:   1,
		Objective: []float64{-1},
		Rows: []Row{
			{Terms: []Term{{0, 1}, {0, 1}}, Sense: LE, RHS: 4},
		},
	}
	s := solveOK(t, p)
	if math.Abs(s.X[0]-2) > 1e-6 {
		t.Fatalf("X = %v, want 2", s.X)
	}
}

func TestStatusString(t *testing.T) {
	for _, st := range []Status{Optimal, Infeasible, Unbounded, IterLimit} {
		if st.String() == "" {
			t.Errorf("empty name for status %d", st)
		}
	}
}

func TestAssignmentLikeLP(t *testing.T) {
	// The OPERON selection shape: pick one candidate per net. LP relaxation
	// of min 3a + 1b s.t. a + b = 1 → b = 1, obj 1.
	p := Problem{
		NumVars:   2,
		Objective: []float64{3, 1},
		Rows:      []Row{{Terms: []Term{{0, 1}, {1, 1}}, Sense: EQ, RHS: 1}},
	}
	s := solveOK(t, p)
	if s.Status != Optimal || math.Abs(s.Objective-1) > 1e-9 {
		t.Fatalf("got %v obj %v", s.Status, s.Objective)
	}
	if math.Abs(s.X[1]-1) > 1e-9 {
		t.Fatalf("X = %v", s.X)
	}
}

// TestSolveAgreesWithDense pins small instances whose status is easy to get
// wrong: conflicting singleton rows, a feasible region too narrow for bound
// propagation, a free negative-cost column with and without an infeasible
// row elsewhere, and fully pinned or one-candidate-dominates optima. Solve
// must report the expected status, and so must the dense oracle, with
// objectives within 1e-7 when optimal.
func TestSolveAgreesWithDense(t *testing.T) {
	t.Run("DetectsInfeasible", func(t *testing.T) {
		// x >= 3 and x <= 1.
		checkAgainstDense(t, Problem{NumVars: 1, Objective: []float64{1}, Rows: []Row{
			{Terms: []Term{{0, 1}}, Sense: GE, RHS: 3},
			{Terms: []Term{{0, 1}}, Sense: LE, RHS: 1},
		}}, Infeasible)
		// x + y >= 5 with x, y <= 1.
		checkAgainstDense(t, Problem{NumVars: 2, Objective: []float64{1, 1}, Upper: []float64{1, 1}, Rows: []Row{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: GE, RHS: 5},
		}}, Infeasible)
		// x = 1 and x = 3.
		checkAgainstDense(t, Problem{NumVars: 2, Objective: []float64{1, 1}, Rows: []Row{
			{Terms: []Term{{0, 1}}, Sense: EQ, RHS: 1},
			{Terms: []Term{{0, 1}}, Sense: EQ, RHS: 3},
		}}, Infeasible)
	})
	t.Run("KeepsNarrowContinuousRange", func(t *testing.T) {
		checkAgainstDense(t, Problem{NumVars: 2, Objective: []float64{6, 6}, Upper: []float64{1, 1}, Rows: []Row{
			{Terms: []Term{{0, 1.375}, {1, 11}}, Sense: EQ, RHS: 2},
			{Terms: []Term{{0, 7}, {1, -15.25}}, Sense: EQ, RHS: 6.125},
		}}, Optimal)
	})
	t.Run("DetectsUnbounded", func(t *testing.T) {
		checkAgainstDense(t, Problem{NumVars: 2, Objective: []float64{-1, 2}, Rows: []Row{
			{Terms: []Term{{1, 1}}, Sense: LE, RHS: 4},
		}}, Unbounded)
		// The same free column beside an infeasible row is infeasible.
		checkAgainstDense(t, Problem{NumVars: 2, Objective: []float64{-1, 1}, Upper: []float64{math.Inf(1), 1}, Rows: []Row{
			{Terms: []Term{{1, 1}}, Sense: GE, RHS: 5},
		}}, Infeasible)
	})
	t.Run("SolvesFully", func(t *testing.T) {
		// Singleton equalities pin every variable; objective 6.5.
		checkAgainstDense(t, Problem{NumVars: 3, Objective: []float64{2, 3, 5}, Rows: []Row{
			{Terms: []Term{{0, 1}}, Sense: EQ, RHS: 1},
			{Terms: []Term{{1, 2}}, Sense: EQ, RHS: 3},
			{Terms: []Term{{0, 1}, {1, 1}, {2, 1}}, Sense: LE, RHS: 10},
		}}, Optimal)
	})
	t.Run("TwoCandidateAssignment", func(t *testing.T) {
		// The dearer candidate is dominated; objective 1.
		checkAgainstDense(t, Problem{NumVars: 2, Objective: []float64{1, 4}, Upper: []float64{1, 1}, Rows: []Row{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: EQ, RHS: 1},
			{Terms: []Term{{0, 2}, {1, 2}}, Sense: LE, RHS: 8},
		}}, Optimal)
	})
}

func checkAgainstDense(t *testing.T, p Problem, status Status) {
	t.Helper()
	got := solveOK(t, p)
	want, err := SolveDense(context.Background(), p, Options{})
	if err != nil {
		t.Fatalf("dense: %v", err)
	}
	if got.Status != status || want.Status != status {
		t.Fatalf("status %v (Solve), %v (dense), want %v", got.Status, want.Status, status)
	}
	if got.Status == Optimal && math.Abs(got.Objective-want.Objective) > 1e-7 {
		t.Fatalf("objective %v, dense %v", got.Objective, want.Objective)
	}
}
