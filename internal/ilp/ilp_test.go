package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"operon/internal/lp"
)

func TestValidate(t *testing.T) {
	p := Problem{
		LP:     lp.Problem{NumVars: 2, Objective: []float64{1, 1}},
		Binary: []int{0, 5},
	}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range binary accepted")
	}
	p.Binary = []int{0, 0}
	if err := p.Validate(); err == nil {
		t.Error("duplicate binary accepted")
	}
}

func TestKnapsack(t *testing.T) {
	// max 10a + 6b + 4c s.t. a+b+c <= 2 (binary): pick a and b → 16.
	p := Problem{
		LP: lp.Problem{
			NumVars:   3,
			Objective: []float64{-10, -6, -4},
			Rows: []lp.Row{
				{Terms: []lp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}, {Var: 2, Coeff: 1}},
					Sense: lp.LE, RHS: 2},
			},
		},
		Binary: []int{0, 1, 2},
	}
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal {
		t.Fatalf("status %v", r.Status)
	}
	if math.Abs(r.Objective-(-16)) > 1e-6 {
		t.Errorf("objective %v, want -16", r.Objective)
	}
	if r.X[0] < 0.99 || r.X[1] < 0.99 || r.X[2] > 0.01 {
		t.Errorf("X = %v", r.X)
	}
}

func TestFractionalRelaxationForcesBranching(t *testing.T) {
	// max a + b s.t. a + b <= 1.5, binary: LP gives 1.5; ILP must give 1.
	p := Problem{
		LP: lp.Problem{
			NumVars:   2,
			Objective: []float64{-1, -1},
			Rows: []lp.Row{
				{Terms: []lp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}},
					Sense: lp.LE, RHS: 1.5},
			},
		},
		Binary: []int{0, 1},
	}
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || math.Abs(r.Objective-(-1)) > 1e-6 {
		t.Fatalf("status %v obj %v, want optimal -1", r.Status, r.Objective)
	}
}

func TestInfeasibleILP(t *testing.T) {
	// a + b = 1.5 with both binary has no integer solution... relaxation is
	// feasible, so branching must prove infeasibility... actually a=1,b=0.5
	// is not integral; a=1,b=1 gives 2; none hit 1.5.
	p := Problem{
		LP: lp.Problem{
			NumVars:   2,
			Objective: []float64{1, 1},
			Rows: []lp.Row{
				{Terms: []lp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}},
					Sense: lp.EQ, RHS: 1.5},
			},
		},
		Binary: []int{0, 1},
	}
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", r.Status)
	}
}

func TestRootInfeasible(t *testing.T) {
	p := Problem{
		LP: lp.Problem{
			NumVars:   1,
			Objective: []float64{1},
			Rows: []lp.Row{
				{Terms: []lp.Term{{Var: 0, Coeff: 1}}, Sense: lp.GE, RHS: 2},
				{Terms: []lp.Term{{Var: 0, Coeff: 1}}, Sense: lp.LE, RHS: 1},
			},
		},
		Binary: []int{0},
	}
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Infeasible {
		t.Fatalf("status %v", r.Status)
	}
}

func TestMixedContinuousBinary(t *testing.T) {
	// min 5b + y s.t. y >= 3 - 4b, y >= 0, b binary.
	// b=0: y=3 → 3. b=1: y=0 → 5. Optimal 3.
	p := Problem{
		LP: lp.Problem{
			NumVars:   2,
			Objective: []float64{5, 1},
			Rows: []lp.Row{
				{Terms: []lp.Term{{Var: 0, Coeff: 4}, {Var: 1, Coeff: 1}},
					Sense: lp.GE, RHS: 3},
			},
		},
		Binary: []int{0},
	}
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || math.Abs(r.Objective-3) > 1e-6 {
		t.Fatalf("status %v obj %v, want optimal 3", r.Status, r.Objective)
	}
}

// bruteForce enumerates all binary assignments and solves the continuous
// remainder, returning the best objective (or +Inf).
func bruteForce(t *testing.T, p Problem) float64 {
	t.Helper()
	best := math.Inf(1)
	nB := len(p.Binary)
	for mask := 0; mask < 1<<nB; mask++ {
		q := p.LP
		rows := append([]lp.Row(nil), q.Rows...)
		for i, v := range p.Binary {
			val := 0.0
			if mask&(1<<i) != 0 {
				val = 1
			}
			rows = append(rows, lp.Row{
				Terms: []lp.Term{{Var: v, Coeff: 1}}, Sense: lp.EQ, RHS: val,
			})
		}
		q.Rows = rows
		s, err := lp.Solve(q)
		if err != nil {
			t.Fatal(err)
		}
		if s.Status == lp.Optimal && s.Objective < best {
			best = s.Objective
		}
	}
	return best
}

func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		nB := 2 + rng.Intn(5) // up to 6 binaries
		nC := rng.Intn(3)     // plus continuous vars
		n := nB + nC
		p := Problem{LP: lp.Problem{NumVars: n, Objective: make([]float64, n)}}
		for i := 0; i < n; i++ {
			p.LP.Objective[i] = rng.Float64()*6 - 1
		}
		for i := 0; i < nB; i++ {
			p.Binary = append(p.Binary, i)
		}
		// Continuous vars need upper bounds for boundedness.
		for i := nB; i < n; i++ {
			p.LP.Rows = append(p.LP.Rows, lp.Row{
				Terms: []lp.Term{{Var: i, Coeff: 1}}, Sense: lp.LE, RHS: 3,
			})
		}
		// Random covering constraints.
		for k := 0; k < 1+rng.Intn(3); k++ {
			row := lp.Row{Sense: lp.GE, RHS: 0.5 + rng.Float64()}
			for j := 0; j < n; j++ {
				row.Terms = append(row.Terms, lp.Term{Var: j, Coeff: rng.Float64()})
			}
			p.LP.Rows = append(p.LP.Rows, row)
		}
		want := bruteForce(t, p)
		r, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(want, 1) {
			if r.Status != Infeasible {
				t.Errorf("trial %d: brute force infeasible but solver says %v", trial, r.Status)
			}
			continue
		}
		if r.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, r.Status)
		}
		if math.Abs(r.Objective-want) > 1e-5 {
			t.Errorf("trial %d: objective %v, want %v", trial, r.Objective, want)
		}
	}
}

func TestSelectionShape(t *testing.T) {
	// The OPERON ILP shape: per net exactly one candidate, loss coupling via
	// a pair variable y >= a0 + b0 - 1 charged on a budget row.
	//   net A: cand a0 (power 1, loss-heavy), a1 (power 3)
	//   net B: cand b0 (power 1), b1 (power 3)
	//   budget: 2·y <= 1  → a0 and b0 cannot both be chosen.
	// Optimal: one net keeps its cheap candidate, the other upgrades: 4.
	p := Problem{
		LP: lp.Problem{
			NumVars:   5, // a0 a1 b0 b1 y
			Objective: []float64{1, 3, 1, 3, 0},
			Rows: []lp.Row{
				{Terms: []lp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, Sense: lp.EQ, RHS: 1},
				{Terms: []lp.Term{{Var: 2, Coeff: 1}, {Var: 3, Coeff: 1}}, Sense: lp.EQ, RHS: 1},
				// y >= a0 + b0 - 1
				{Terms: []lp.Term{{Var: 4, Coeff: 1}, {Var: 0, Coeff: -1}, {Var: 2, Coeff: -1}},
					Sense: lp.GE, RHS: -1},
				// 2y <= 1
				{Terms: []lp.Term{{Var: 4, Coeff: 2}}, Sense: lp.LE, RHS: 1},
			},
		},
		Binary: []int{0, 1, 2, 3},
	}
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || math.Abs(r.Objective-4) > 1e-6 {
		t.Fatalf("status %v obj %v, want optimal 4", r.Status, r.Objective)
	}
}

func TestTimeLimit(t *testing.T) {
	// A crafted equality-knapsack family with many symmetric solutions is
	// slow to prove optimal; a tiny context deadline must return promptly
	// with TimedOut set.
	rng := rand.New(rand.NewSource(11))
	n := 26
	p := Problem{LP: lp.Problem{NumVars: n, Objective: make([]float64, n)}}
	row := lp.Row{Sense: lp.EQ, RHS: 7.5}
	for i := 0; i < n; i++ {
		p.LP.Objective[i] = 1 + rng.Float64()*0.001
		row.Terms = append(row.Terms, lp.Term{Var: i, Coeff: 1 + rng.Float64()*0.01})
		p.Binary = append(p.Binary, i)
	}
	p.LP.Rows = append(p.LP.Rows, row)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	r, err := Solve(p, Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !r.TimedOut && r.Status == Optimal {
		// Fast machines may actually finish; that is acceptable, but then
		// the elapsed time must be under the limit.
		if time.Since(start) > time.Second {
			t.Error("solver neither timed out nor finished quickly")
		}
		return
	}
	if time.Since(start) > 5*time.Second {
		t.Errorf("time limit ignored: ran %v", time.Since(start))
	}
}

func TestNodeLimit(t *testing.T) {
	p := Problem{
		LP: lp.Problem{
			NumVars:   4,
			Objective: []float64{-1, -1, -1, -1},
			Rows: []lp.Row{
				{Terms: []lp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1},
					{Var: 2, Coeff: 1}, {Var: 3, Coeff: 1}}, Sense: lp.LE, RHS: 2.5},
			},
		},
		Binary: []int{0, 1, 2, 3},
	}
	r, err := Solve(p, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes > 2 {
		t.Errorf("node limit ignored: %d nodes", r.Nodes)
	}
	_ = r
}

func TestStatusStrings(t *testing.T) {
	for _, s := range []Status{Optimal, Feasible, Infeasible, Limit} {
		if s.String() == "" {
			t.Error("empty status name")
		}
	}
}

func TestMemoryBudgetEndsSolve(t *testing.T) {
	p := Problem{
		LP: lp.Problem{
			NumVars:   4,
			Objective: []float64{1, 1, 1, 1},
			Rows: []lp.Row{
				{Terms: []lp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1},
					{Var: 2, Coeff: 1}, {Var: 3, Coeff: 1}}, Sense: lp.GE, RHS: 2},
			},
		},
		Binary: []int{0, 1, 2, 3},
	}
	r, err := Solve(p, Options{MaxTableauBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !r.TimedOut || r.Status != Limit {
		t.Fatalf("tiny memory budget: status %v timedOut %v, want limit/true",
			r.Status, r.TimedOut)
	}
}
