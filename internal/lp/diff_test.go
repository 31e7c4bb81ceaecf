package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// randomProblem generates a random LP whose shape matches the OPERON
// selection programmes: mixed senses, optional upper bounds, mostly
// bounded objectives.
func randomProblem(rng *rand.Rand) Problem {
	n := 1 + rng.Intn(8)
	m := 1 + rng.Intn(10)
	p := Problem{NumVars: n, Objective: make([]float64, n)}
	for i := range p.Objective {
		p.Objective[i] = rng.Float64()*6 - 2
	}
	withUpper := rng.Intn(2) == 0
	if withUpper {
		p.Upper = make([]float64, n)
		for i := range p.Upper {
			if rng.Intn(4) == 0 {
				p.Upper[i] = math.Inf(1)
			} else {
				p.Upper[i] = rng.Float64() * 4
			}
		}
	}
	// Box rows keep variables without native bounds from making the LP
	// unbounded in most trials (a few unbounded instances are fine — both
	// solvers must agree on the status).
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			p.Rows = append(p.Rows, Row{
				Terms: []Term{{Var: i, Coeff: 1}}, Sense: LE, RHS: 0.5 + rng.Float64()*4,
			})
		}
	}
	for k := 0; k < m; k++ {
		row := Row{RHS: rng.Float64()*4 - 1}
		switch rng.Intn(3) {
		case 0:
			row.Sense = LE
		case 1:
			row.Sense = GE
		default:
			row.Sense = EQ
			row.RHS = math.Abs(row.RHS)
		}
		terms := 1 + rng.Intn(n)
		for t := 0; t < terms; t++ {
			row.Terms = append(row.Terms, Term{
				Var: rng.Intn(n), Coeff: rng.Float64()*4 - 2,
			})
		}
		p.Rows = append(p.Rows, row)
	}
	return p
}

// TestRevisedMatchesDenseOracle solves ~200 random LPs with both engines
// and asserts matching status and objective. This is the differential
// oracle contract: lp.Solve (revised simplex) must agree with
// lp.SolveDense (two-phase tableau) on every instance.
func TestRevisedMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 220; trial++ {
		p := randomProblem(rng)
		got, err := Solve(context.Background(), p, Options{})
		if err != nil {
			t.Fatalf("trial %d: revised: %v", trial, err)
		}
		want, err := SolveDense(context.Background(), p, Options{})
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d: status %v (revised) vs %v (dense)\nproblem: %+v",
				trial, got.Status, want.Status, p)
		}
		if got.Status != Optimal {
			continue
		}
		if math.Abs(got.Objective-want.Objective) > 1e-6 {
			t.Fatalf("trial %d: objective %v (revised) vs %v (dense)\nproblem: %+v",
				trial, got.Objective, want.Objective, p)
		}
		if !feasible(p, got.X) {
			t.Fatalf("trial %d: revised solution infeasible: %v", trial, got.X)
		}
		if p.Upper != nil {
			for i, u := range p.Upper {
				if got.X[i] > u+1e-6 {
					t.Fatalf("trial %d: x[%d]=%v above upper bound %v", trial, i, got.X[i], u)
				}
			}
		}
	}
}

// TestRevisedDeterministic pins that repeated solves of the same problem
// produce bit-identical solutions (deterministic pivot rules).
func TestRevisedDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(rng)
		a, err := Solve(context.Background(), p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Solve(context.Background(), p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Status != b.Status || a.Objective != b.Objective {
			t.Fatalf("trial %d: nondeterministic: %v/%v vs %v/%v",
				trial, a.Status, a.Objective, b.Status, b.Objective)
		}
		for i := range a.X {
			if a.X[i] != b.X[i] {
				t.Fatalf("trial %d: X[%d] differs: %v vs %v", trial, i, a.X[i], b.X[i])
			}
		}
	}
}

// TestBoundedSolverWarmStartMatchesCold tightens bounds on an optimal basis
// and checks the dual-simplex warm start reaches the same objective as a
// cold solve under the same bounds.
func TestBoundedSolverWarmStartMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		p := randomProblem(rng)
		s, err := NewBoundedSolver(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		root, basis, err := solveBounds(s, nil, nil, nil)
		if err != nil {
			t.Fatalf("trial %d: root: %v", trial, err)
		}
		if root.Status != Optimal {
			continue
		}
		// Fix a random variable to a random integer within its range —
		// the branch-and-bound child-node shape.
		v := rng.Intn(p.NumVars)
		val := math.Round(rng.Float64() * 2)
		lo := make([]float64, p.NumVars)
		up := make([]float64, p.NumVars)
		for i := range up {
			if p.Upper != nil {
				up[i] = p.Upper[i]
			} else {
				up[i] = math.Inf(1)
			}
		}
		lo[v], up[v] = val, val

		warm, _, err := solveBounds(s, lo, up, basis)
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		s2, err := NewBoundedSolver(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold, _, err := solveBounds(s2, lo, up, nil)
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v vs cold %v (fix x%d=%v)\nproblem: %+v",
				trial, warm.Status, cold.Status, v, val, p)
		}
		if warm.Status == Optimal && math.Abs(warm.Objective-cold.Objective) > 1e-6 {
			t.Fatalf("trial %d: warm objective %v vs cold %v (fix x%d=%v)",
				trial, warm.Objective, cold.Objective, v, val)
		}
	}
}

// TestUpperBoundsNative checks bounds are honoured without any rows.
func TestUpperBoundsNative(t *testing.T) {
	// max x + y with x <= 1.5, y <= 2 as native bounds, no rows.
	p := Problem{
		NumVars:   2,
		Objective: []float64{-1, -1},
		Upper:     []float64{1.5, 2},
	}
	s, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective-(-3.5)) > 1e-9 {
		t.Fatalf("got %v obj %v, want optimal -3.5", s.Status, s.Objective)
	}
	// The dense oracle materialises the same bounds as rows.
	d, err := SolveDense(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Status != Optimal || math.Abs(d.Objective-(-3.5)) > 1e-9 {
		t.Fatalf("dense got %v obj %v, want optimal -3.5", d.Status, d.Objective)
	}
}

// TestFixedVariableBounds solves with lo == up (the B&B fixing shape).
func TestFixedVariableBounds(t *testing.T) {
	// min 3a + b s.t. a + b >= 2, with a fixed to 1: b = 1, obj 4.
	p := Problem{
		NumVars:   2,
		Objective: []float64{3, 1},
		Rows: []Row{
			{Terms: []Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, Sense: GE, RHS: 2},
		},
	}
	s, err := NewBoundedSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := solveBounds(s, []float64{1, 0}, []float64{1, math.Inf(1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-4) > 1e-9 {
		t.Fatalf("got %v obj %v, want optimal 4", sol.Status, sol.Objective)
	}
	if math.Abs(sol.X[0]-1) > 1e-9 {
		t.Fatalf("X = %v, want x0 = 1", sol.X)
	}
}

// TestSolverReuse re-solves different bound sets on one BoundedSolver,
// interleaving warm and cold starts, and checks each against a fresh
// dense solve with the bounds materialised as rows.
func TestSolverReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := randomProblem(rng)
	for p.NumVars < 3 {
		p = randomProblem(rng)
	}
	s, err := NewBoundedSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, basis, err := solveBounds(s, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		lo := make([]float64, p.NumVars)
		up := make([]float64, p.NumVars)
		for i := range up {
			if p.Upper != nil {
				up[i] = p.Upper[i]
			} else {
				up[i] = math.Inf(1)
			}
		}
		v := rng.Intn(p.NumVars)
		val := float64(rng.Intn(2))
		lo[v], up[v] = val, val

		var warm *Basis
		if trial%2 == 0 {
			warm = basis
		}
		got, _, err := solveBounds(s, lo, up, warm)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		q := p
		q.Rows = append(append([]Row(nil), p.Rows...), Row{
			Terms: []Term{{Var: v, Coeff: 1}}, Sense: EQ, RHS: val,
		})
		want, err := SolveDense(context.Background(), q, Options{})
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d: status %v vs dense %v (fix x%d=%v)", trial, got.Status, want.Status, v, val)
		}
		if got.Status == Optimal && math.Abs(got.Objective-want.Objective) > 1e-6 {
			t.Fatalf("trial %d: objective %v vs dense %v", trial, got.Objective, want.Objective)
		}
	}
}

// selectionShaped builds the Formula-(3) relaxation structure at a size
// that forces periodic eta-file refactorisations: assignment equalities
// over candidate blocks, GE linearisation rows over pair variables, LE
// detection rows, native [0,1] bounds on the assignment columns.
func selectionShaped(nets, cands int, seed int64) Problem {
	rng := rand.New(rand.NewSource(seed))
	var obj, upper []float64
	var rows []Row
	for i := 0; i < nets; i++ {
		row := Row{Sense: EQ, RHS: 1}
		for j := 0; j < cands; j++ {
			row.Terms = append(row.Terms, Term{Var: i*cands + j, Coeff: 1})
			obj = append(obj, 1+rng.Float64()*4)
			upper = append(upper, 1)
		}
		rows = append(rows, row)
	}
	pair := func(a, b int) {
		v := len(obj)
		obj = append(obj, 0)
		upper = append(upper, math.Inf(1))
		rows = append(rows, Row{
			Terms: []Term{{Var: v, Coeff: 1}, {Var: a, Coeff: -1}, {Var: b, Coeff: -1}},
			Sense: GE, RHS: -1,
		})
		rows = append(rows, Row{
			Terms: []Term{{Var: v, Coeff: 0.5 + rng.Float64()}, {Var: a, Coeff: 0.2}},
			Sense: LE, RHS: 3,
		})
	}
	for i := 0; i+1 < nets; i++ {
		for j := 0; j < cands; j++ {
			pair(i*cands+j, (i+1)*cands+rng.Intn(cands))
		}
	}
	return Problem{NumVars: len(obj), Objective: obj, Rows: rows, Upper: upper}
}

// TestRevisedSelectionShapedOracle pins the revised engine on LPs large
// enough to cross the refactorEvery threshold mid-solve — the shape that
// exposed a refactorisation deadlock the small random family cannot reach
// (refactor must be free to re-pair basis columns with pivot rows).
func TestRevisedSelectionShapedOracle(t *testing.T) {
	for _, tc := range []struct{ nets, cands int }{
		{6, 3}, {10, 3}, {12, 4}, {16, 4},
	} {
		for seed := int64(29); seed < 32; seed++ {
			p := selectionShaped(tc.nets, tc.cands, seed)
			got, err := Solve(context.Background(), p, Options{})
			if err != nil {
				t.Fatalf("nets=%d cands=%d seed=%d: %v", tc.nets, tc.cands, seed, err)
			}
			want, err := SolveDense(context.Background(), p, Options{})
			if err != nil {
				t.Fatalf("nets=%d cands=%d seed=%d dense: %v", tc.nets, tc.cands, seed, err)
			}
			if got.Status != want.Status {
				t.Fatalf("nets=%d cands=%d seed=%d: status %v vs %v",
					tc.nets, tc.cands, seed, got.Status, want.Status)
			}
			if got.Status == Optimal && math.Abs(got.Objective-want.Objective) > 1e-6 {
				t.Fatalf("nets=%d cands=%d seed=%d: objective %v vs %v",
					tc.nets, tc.cands, seed, got.Objective, want.Objective)
			}
		}
	}
}

// TestSelectionShapedAllocs pins the allocation profile of both engines on
// the selection-shaped relaxation. Each ceiling is the measured count plus
// about 10% headroom.
func TestSelectionShapedAllocs(t *testing.T) {
	p := selectionShaped(12, 4, 29)
	for _, tc := range []struct {
		name  string
		solve func(context.Context, Problem, Options) (Solution, error)
		max   float64
	}{
		{"revised", Solve, 580},    // 523 measured
		{"dense", SolveDense, 540}, // 491 measured
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if s, err := tc.solve(context.Background(), p, Options{}); err != nil || s.Status != Optimal {
				t.Fatalf("%s: status %v, err %v", tc.name, s.Status, err)
			}
		})
		t.Logf("%s: %.0f allocs per solve", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("%s engine allocates %.0f per solve, ceiling %.0f", tc.name, allocs, tc.max)
		}
	}
}

// solveBounds is SolveBounds into fresh outputs, returning them.
func solveBounds(s *BoundedSolver, lo, up []float64, warm *Basis) (Solution, *Basis, error) {
	var sol Solution
	out := &Basis{}
	if err := s.SolveBounds(context.Background(), lo, up, warm, &sol, out); err != nil {
		return Solution{}, nil, err
	}
	return sol, out, nil
}
