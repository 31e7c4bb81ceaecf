package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// solveViaPresolve runs the explicit presolve → reduced solve → postsolve
// pipeline, returning the full-space solution.
func solveViaPresolve(t *testing.T, p Problem) Solution {
	t.Helper()
	ps, err := Presolve(p, nil, nil, nil)
	if err != nil {
		t.Fatalf("presolve: %v", err)
	}
	switch ps.Outcome {
	case PresolveInfeasible:
		return Solution{Status: Infeasible}
	case PresolveUnbounded:
		return Solution{Status: Unbounded}
	case PresolveSolved:
		return Solution{Status: Optimal, Objective: ps.Offset, X: ps.Postsolve(nil, nil)}
	}
	s, err := NewBoundedSolver(ps.P)
	if err != nil {
		t.Fatalf("reduced solver: %v", err)
	}
	sol, _, err := solveBounds(s, ps.Lo, ps.Up, nil)
	if err != nil {
		t.Fatalf("reduced solve: %v", err)
	}
	if sol.Status == Optimal {
		sol.X = ps.Postsolve(sol.X, nil)
		sol.Objective += ps.Offset
	}
	return sol
}

// TestPresolveMatchesDenseOracle is the presolve differential contract:
// on randomized bounded LPs the presolved pipeline must agree with the
// dense oracle on status and objective, and its postsolved solution must be
// feasible for the ORIGINAL problem — the reinflation is checked directly,
// not just the reduced optimum.
func TestPresolveMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(rng)
		got := solveViaPresolve(t, p)
		want, err := SolveDense(context.Background(), p, Options{})
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d: status %v (presolved) vs %v (dense)\nproblem: %+v",
				trial, got.Status, want.Status, p)
		}
		if got.Status != Optimal {
			continue
		}
		if math.Abs(got.Objective-want.Objective) > 1e-6 {
			t.Fatalf("trial %d: objective %v (presolved) vs %v (dense)\nproblem: %+v",
				trial, got.Objective, want.Objective, p)
		}
		if !feasible(p, got.X) {
			t.Fatalf("trial %d: postsolved solution infeasible: %v\nproblem: %+v",
				trial, got.X, p)
		}
		if p.Upper != nil {
			for i, u := range p.Upper {
				if got.X[i] > u+1e-6 {
					t.Fatalf("trial %d: x[%d]=%v above upper %v", trial, i, got.X[i], u)
				}
			}
		}
	}
}

// TestPresolveSelectionShapedOracle runs the same contract on the
// Formula-(3) relaxation structure, where the singleton-absorb and
// redundant-row reductions actually fire.
func TestPresolveSelectionShapedOracle(t *testing.T) {
	for _, tc := range []struct{ nets, cands int }{
		{6, 3}, {12, 4},
	} {
		for seed := int64(29); seed < 32; seed++ {
			p := selectionShaped(tc.nets, tc.cands, seed)
			got := solveViaPresolve(t, p)
			want, err := SolveDense(context.Background(), p, Options{})
			if err != nil {
				t.Fatalf("dense: %v", err)
			}
			if got.Status != want.Status {
				t.Fatalf("nets=%d cands=%d seed=%d: status %v vs %v",
					tc.nets, tc.cands, seed, got.Status, want.Status)
			}
			if got.Status == Optimal && math.Abs(got.Objective-want.Objective) > 1e-6 {
				t.Fatalf("nets=%d cands=%d seed=%d: objective %v vs %v",
					tc.nets, tc.cands, seed, got.Objective, want.Objective)
			}
			if got.Status == Optimal && !feasible(p, got.X) {
				t.Fatalf("nets=%d cands=%d seed=%d: postsolved X infeasible",
					tc.nets, tc.cands, seed)
			}
		}
	}
}

// TestPresolveDetectsInfeasible pins direct infeasibility detection inside
// presolve — conflicting singletons and forced rows never reach a solver.
func TestPresolveDetectsInfeasible(t *testing.T) {
	cases := []Problem{
		// x >= 3 and x <= 1.
		{NumVars: 1, Objective: []float64{1}, Rows: []Row{
			{Terms: []Term{{0, 1}}, Sense: GE, RHS: 3},
			{Terms: []Term{{0, 1}}, Sense: LE, RHS: 1},
		}},
		// x + y >= 5 with x <= 1, y <= 1.
		{NumVars: 2, Objective: []float64{1, 1}, Upper: []float64{1, 1}, Rows: []Row{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: GE, RHS: 5},
		}},
		// Empty row 0 = 2 after fixing x = 1 via an equality singleton.
		{NumVars: 2, Objective: []float64{1, 1}, Rows: []Row{
			{Terms: []Term{{0, 1}}, Sense: EQ, RHS: 1},
			{Terms: []Term{{0, 1}}, Sense: EQ, RHS: 3},
		}},
	}
	for i, p := range cases {
		ps, err := Presolve(p, nil, nil, nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if ps.Outcome != PresolveInfeasible {
			t.Fatalf("case %d: outcome %v, want infeasible", i, ps.Outcome)
		}
		// The full pipeline agrees with the dense oracle.
		d, err := SolveDense(context.Background(), p, Options{})
		if err != nil {
			t.Fatalf("case %d dense: %v", i, err)
		}
		if d.Status != Infeasible {
			t.Fatalf("case %d: dense says %v — test case is wrong", i, d.Status)
		}
	}
}

// TestPresolveKeepsNarrowContinuousRange pins a system whose only feasible
// point propagation approaches but never reaches: two equalities in two
// bounded continuous variables. Fixing a column inside its last, sub-
// tolerance range once made presolve report this feasible LP infeasible.
func TestPresolveKeepsNarrowContinuousRange(t *testing.T) {
	p := Problem{NumVars: 2, Objective: []float64{6, 6}, Upper: []float64{1, 1}, Rows: []Row{
		{Terms: []Term{{0, 1.375}, {1, 11}}, Sense: EQ, RHS: 2},
		{Terms: []Term{{0, 7}, {1, -15.25}}, Sense: EQ, RHS: 6.125},
	}}
	want, err := SolveDense(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := solveViaPresolve(t, p)
	if want.Status != Optimal || got.Status != Optimal {
		t.Fatalf("status %v (presolved) vs %v (dense), want optimal", got.Status, want.Status)
	}
	if math.Abs(got.Objective-want.Objective) > 1e-7 {
		t.Fatalf("objective %v, dense %v", got.Objective, want.Objective)
	}
}

// TestPresolveDetectsUnbounded pins the one shape presolve may classify as
// unbounded itself: a negative-cost unconstrained column once no rows
// remain. With rows still alive the column must be left for the simplex
// (the instance could be infeasible instead).
func TestPresolveDetectsUnbounded(t *testing.T) {
	p := Problem{NumVars: 2, Objective: []float64{-1, 2}, Rows: []Row{
		{Terms: []Term{{1, 1}}, Sense: LE, RHS: 4},
	}}
	ps, err := Presolve(p, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Outcome != PresolveUnbounded {
		t.Fatalf("outcome %v, want unbounded", ps.Outcome)
	}
	// Same column, but an infeasible row elsewhere: presolve must NOT claim
	// unbounded; whichever layer decides, the final status is Infeasible.
	q := Problem{NumVars: 2, Objective: []float64{-1, 1}, Upper: []float64{math.Inf(1), 1}, Rows: []Row{
		{Terms: []Term{{1, 1}}, Sense: GE, RHS: 5},
	}}
	sol, err := Solve(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

// TestPresolveSolvesFully covers the PresolveSolved outcome: singleton
// equalities pin every variable, no solver ever runs, and Postsolve
// rebuilds the exact assignment with the objective in Offset.
func TestPresolveSolvesFully(t *testing.T) {
	p := Problem{NumVars: 3, Objective: []float64{2, 3, 5}, Rows: []Row{
		{Terms: []Term{{0, 1}}, Sense: EQ, RHS: 1},
		{Terms: []Term{{1, 2}}, Sense: EQ, RHS: 3},
		{Terms: []Term{{0, 1}, {1, 1}, {2, 1}}, Sense: LE, RHS: 10},
	}}
	ps, err := Presolve(p, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Outcome != PresolveSolved {
		t.Fatalf("outcome %v, want solved", ps.Outcome)
	}
	x := ps.Postsolve(nil, nil)
	want := []float64{1, 1.5, 0}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("X = %v, want %v", x, want)
		}
	}
	if math.Abs(ps.Offset-6.5) > 1e-9 {
		t.Fatalf("Offset = %v, want 6.5", ps.Offset)
	}
}

// TestPresolveDominatedBinary checks the selection-shaped reduction: in an
// assignment row where candidate 0 is cheaper and no looser than candidate
// 1 in every other row, the dominated candidate is fixed to zero, and the
// reduced optimum matches the original.
func TestPresolveDominatedBinary(t *testing.T) {
	// Two candidates for one net; both consume the same LE budget, the
	// first is cheaper → the second is dominated.
	p := Problem{
		NumVars:   2,
		Objective: []float64{1, 4},
		Upper:     []float64{1, 1},
		Rows: []Row{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: EQ, RHS: 1},
			{Terms: []Term{{0, 2}, {1, 2}}, Sense: LE, RHS: 8},
		},
	}
	ps, err := Presolve(p, nil, nil, []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	if ps.Outcome != PresolveSolved {
		t.Fatalf("outcome %v (cols removed %d), want fully solved by dominance",
			ps.Outcome, ps.ColsRemoved)
	}
	x := ps.Postsolve(nil, nil)
	if x[0] != 1 || x[1] != 0 {
		t.Fatalf("X = %v, want [1 0]", x)
	}
	if ps.Offset != 1 {
		t.Fatalf("Offset = %v, want 1", ps.Offset)
	}
}

// TestPresolveIntegerBoundRounding checks integer-aware propagation: an
// implied fractional bound on an integral column rounds inward.
func TestPresolveIntegerBoundRounding(t *testing.T) {
	// 2x <= 3 with x integer in [0, 5] → x <= 1. The GE row keeps both
	// columns alive so the rounded bound is observable in the reduction.
	p := Problem{NumVars: 2, Objective: []float64{-1, 0}, Upper: []float64{5, 1}, Rows: []Row{
		{Terms: []Term{{0, 2}}, Sense: LE, RHS: 3},
		{Terms: []Term{{0, 1}, {1, 1}}, Sense: GE, RHS: 0.5},
	}}
	ps, err := Presolve(p, nil, nil, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if ps.Outcome != PresolveReduced {
		t.Fatalf("outcome %v, want reduced", ps.Outcome)
	}
	for r, oc := range ps.colMap {
		if oc == 0 && ps.Up[r] != 1 {
			t.Fatalf("Up[x] = %v, want 1 (rounded from 1.5)", ps.Up[r])
		}
	}
}

// TestPresolveDeterministic pins bit-identical reduced problems across
// repeated presolves of the same instance.
func TestPresolveDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 40; trial++ {
		p := randomProblem(rng)
		a, err := Presolve(p, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Presolve(p, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Outcome != b.Outcome || a.Offset != b.Offset ||
			a.RowsRemoved != b.RowsRemoved || a.ColsRemoved != b.ColsRemoved {
			t.Fatalf("trial %d: presolve nondeterministic", trial)
		}
		if a.Outcome != PresolveReduced {
			continue
		}
		if a.P.NumVars != b.P.NumVars || len(a.P.Rows) != len(b.P.Rows) {
			t.Fatalf("trial %d: reduced shapes differ", trial)
		}
		for i := range a.Lo {
			if a.Lo[i] != b.Lo[i] || a.Up[i] != b.Up[i] {
				t.Fatalf("trial %d: reduced bounds differ at %d", trial, i)
			}
		}
	}
}
