package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"operon/internal/lp"
)

// randomILP builds a feasibility-biased random 0-1 programme with a few
// continuous variables, the same family TestAgainstBruteForce uses.
func randomILP(rng *rand.Rand) Problem {
	nB := 2 + rng.Intn(5)
	nC := rng.Intn(3)
	n := nB + nC
	p := Problem{LP: lp.Problem{NumVars: n, Objective: make([]float64, n)}}
	for i := 0; i < n; i++ {
		p.LP.Objective[i] = rng.Float64()*6 - 1
	}
	for i := 0; i < nB; i++ {
		p.Binary = append(p.Binary, i)
	}
	for i := nB; i < n; i++ {
		p.LP.Rows = append(p.LP.Rows, lp.Row{
			Terms: []lp.Term{{Var: i, Coeff: 1}}, Sense: lp.LE, RHS: 3,
		})
	}
	for k := 0; k < 1+rng.Intn(3); k++ {
		row := lp.Row{Sense: lp.GE, RHS: 0.5 + rng.Float64()}
		for j := 0; j < n; j++ {
			row.Terms = append(row.Terms, lp.Term{Var: j, Coeff: rng.Float64()})
		}
		p.LP.Rows = append(p.LP.Rows, row)
	}
	return p
}

// TestRowsInvariantAcrossTree asserts the branch-and-bound tree never
// materialises bound rows: the problem rows are not mutated or grown by the
// solve.
func TestRowsInvariantAcrossTree(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		p := randomILP(rng)
		wantRows := len(p.LP.Rows)
		r, err := Solve(context.Background(), p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.LP.Rows) != wantRows {
			t.Fatalf("trial %d: problem rows grew from %d to %d", trial, wantRows, len(p.LP.Rows))
		}
		if r.Nodes > 1 && r.LPSolves < 2 {
			t.Fatalf("trial %d: %d nodes but only %d LP solves recorded", trial, r.Nodes, r.LPSolves)
		}
	}
}

// TestWarmStartMatchesColdObjective pins the warm-start contract at the
// branch-and-bound level: fixing a binary via the node bound mechanism
// (warm dual-simplex start) must reach the same objective as solving the
// equivalent problem from scratch with the fixing expressed as a row.
func TestWarmStartMatchesColdObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		p := randomILP(rng)
		warm, err := Solve(context.Background(), p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Cold reference: same problem with every relaxation solved from
		// scratch — emulated by the dense brute force over all binary
		// assignments.
		want := bruteForce(t, p)
		if math.IsInf(want, 1) {
			if warm.Status != Infeasible {
				t.Fatalf("trial %d: brute force infeasible but solver says %v", trial, warm.Status)
			}
			continue
		}
		if warm.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, warm.Status)
		}
		if math.Abs(warm.Objective-want) > 1e-5 {
			t.Fatalf("trial %d: warm-started objective %v, want %v", trial, warm.Objective, want)
		}
	}
}

// TestRootRoundingSeedsIncumbent pins the root heuristic: a solve that
// stops at its node limit right after the root must still report the
// rounded-root incumbent (Feasible, not Limit) when rounding is feasible.
func TestRootRoundingSeedsIncumbent(t *testing.T) {
	// max 10a + 6b + 4c s.t. a+b+c <= 2.4: the root LP sits at a=b=1,
	// c=0.4, and rounding (c -> 0) is feasible with objective -16.
	p := Problem{
		LP: lp.Problem{
			NumVars:   3,
			Objective: []float64{-10, -6, -4},
			Rows: []lp.Row{
				{Terms: []lp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}, {Var: 2, Coeff: 1}},
					Sense: lp.LE, RHS: 2.4},
			},
		},
		Binary: []int{0, 1, 2},
	}
	r, err := Solve(context.Background(), p, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.X == nil {
		t.Fatalf("no incumbent despite feasible root rounding (status %v)", r.Status)
	}
	if r.Status != Feasible && r.Status != Optimal {
		t.Fatalf("status %v, want feasible or optimal with the rounded incumbent", r.Status)
	}
	if r.Objective > -16+1e-6 {
		t.Fatalf("rounded incumbent objective %v, want <= -16", r.Objective)
	}
}

// TestBinaryWithProblemUpperBounds checks binaries compose with native
// Problem.Upper bounds on continuous variables.
func TestBinaryWithProblemUpperBounds(t *testing.T) {
	// min 5b + y s.t. y >= 3 - 4b with y <= 2 native: b=0 infeasible
	// (y would need 3 > 2), so b=1, y=0: objective 5.
	p := Problem{
		LP: lp.Problem{
			NumVars:   2,
			Objective: []float64{5, 1},
			Rows: []lp.Row{
				{Terms: []lp.Term{{Var: 0, Coeff: 4}, {Var: 1, Coeff: 1}},
					Sense: lp.GE, RHS: 3},
			},
			Upper: []float64{math.Inf(1), 2},
		},
		Binary: []int{0},
	}
	r, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || math.Abs(r.Objective-5) > 1e-6 {
		t.Fatalf("status %v obj %v, want optimal 5", r.Status, r.Objective)
	}
}
