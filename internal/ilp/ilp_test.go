package ilp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"operon/internal/lp"
	"operon/internal/obs"
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
	r, err := Solve(context.Background(), p, Options{})
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
	r, err := Solve(context.Background(), p, Options{})
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
	r, err := Solve(context.Background(), p, Options{})
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
	r, err := Solve(context.Background(), p, Options{})
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
	r, err := Solve(context.Background(), p, Options{})
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
		s, err := lp.Solve(context.Background(), q, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Status == lp.Optimal && s.Objective < best {
			best = s.Objective
		}
	}
	return best
}

// TestAgainstBruteForce checks Solve against exhaustive enumeration on
// randomILP programmes and on fixed instances: a two-candidate assignment
// whose dearer candidate is dominated, and a binary whose row alone
// (2x <= 3) would let it exceed 1.
func TestAgainstBruteForce(t *testing.T) {
	checkRandomAgainstBruteForce(t, 5, 25)
	t.Run("DominatedCandidate", func(t *testing.T) {
		checkAgainstBruteForce(t, "dominated candidate", Problem{LP: lp.Problem{
			NumVars: 2, Objective: []float64{1, 4}, Upper: []float64{1, 1},
			Rows: []lp.Row{
				{Terms: []lp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, Sense: lp.EQ, RHS: 1},
				{Terms: []lp.Term{{Var: 0, Coeff: 2}, {Var: 1, Coeff: 2}}, Sense: lp.LE, RHS: 8},
			},
		}, Binary: []int{0, 1}})
	})
	t.Run("FractionalRowBound", func(t *testing.T) {
		checkAgainstBruteForce(t, "fractional row bound", Problem{LP: lp.Problem{
			NumVars: 2, Objective: []float64{-1, 0}, Upper: []float64{5, 1},
			Rows: []lp.Row{
				{Terms: []lp.Term{{Var: 0, Coeff: 2}}, Sense: lp.LE, RHS: 3},
				{Terms: []lp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, Sense: lp.GE, RHS: 0.5},
			},
		}, Binary: []int{0}})
	})
}

// TestParallelILPMatchesBruteForce keeps its historical name from when the
// search ran speculative workers; it now checks the serial search against
// exhaustive enumeration on a second randomILP seed.
func TestParallelILPMatchesBruteForce(t *testing.T) {
	checkRandomAgainstBruteForce(t, 41, 15)
}

func checkRandomAgainstBruteForce(t *testing.T, seed int64, trials int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		checkAgainstBruteForce(t, fmt.Sprintf("seed %d trial %d", seed, trial), randomILP(rng))
	}
}

func checkAgainstBruteForce(t *testing.T, name string, p Problem) {
	t.Helper()
	want := bruteForce(t, p)
	r, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(want, 1) {
		if r.Status != Infeasible {
			t.Errorf("%s: brute force infeasible but solver says %v", name, r.Status)
		}
		return
	}
	if r.Status != Optimal {
		t.Fatalf("%s: status %v", name, r.Status)
	}
	if math.Abs(r.Objective-want) > 1e-5 {
		t.Errorf("%s: objective %v, want %v", name, r.Objective, want)
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
	r, err := Solve(context.Background(), p, Options{})
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
	r, err := Solve(ctx, p, Options{})
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
	r, err := Solve(context.Background(), p, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes != 1 || !r.TimedOut {
		t.Errorf("MaxNodes 1: %d nodes, timedOut %v; want 1 node, timed out", r.Nodes, r.TimedOut)
	}
}

// knapsackILP is a 24-binary knapsack whose tree branches a few hundred
// nodes deep: weights w in [1,10), profit w plus up to 2, and one capacity
// row at Σw/2.3.
func knapsackILP(seed int64) Problem {
	rng := rand.New(rand.NewSource(seed))
	const n = 24
	p := Problem{LP: lp.Problem{NumVars: n, Objective: make([]float64, n)}}
	row := lp.Row{Sense: lp.LE}
	for i := 0; i < n; i++ {
		w := 1 + 9*rng.Float64()
		p.LP.Objective[i] = -(w + 2*rng.Float64())
		row.Terms = append(row.Terms, lp.Term{Var: i, Coeff: w})
		row.RHS += w
		p.Binary = append(p.Binary, i)
	}
	row.RHS /= 2.3
	p.LP.Rows = []lp.Row{row}
	return p
}

// TestFrontierStopProvesOptimum pins the stop rule and the node accounting
// on trees that branch. Nodes equals the ilp.nodes counter and the number
// of ilp/node events. A budget of exactly that many nodes still proves the
// optimum, because the first prunable frontier node ends the search. One
// node less stops on the budget with Nodes == MaxNodes.
func TestFrontierStopProvesOptimum(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := knapsackILP(seed)
		col := &obs.Collector{}
		tr := obs.New(col)
		r, err := Solve(context.Background(), p, Options{Obs: tr})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != Optimal || r.TimedOut || r.Nodes < 3 {
			t.Fatalf("seed %d: status %v timedOut %v after %d nodes; want a branching optimal solve",
				seed, r.Status, r.TimedOut, r.Nodes)
		}
		events := len(col.EventsNamed("ilp/node"))
		if counted := tr.Counter("ilp.nodes").Value(); r.Nodes != events || counted != int64(r.Nodes) {
			t.Fatalf("seed %d: Nodes %d, ilp.nodes %d, ilp/node events %d; want all equal",
				seed, r.Nodes, counted, events)
		}

		exact, err := Solve(context.Background(), p, Options{MaxNodes: r.Nodes})
		if err != nil {
			t.Fatal(err)
		}
		if exact.Status != Optimal || exact.TimedOut || exact.Nodes != r.Nodes || exact.Objective != r.Objective {
			t.Fatalf("seed %d, MaxNodes %d: status %v timedOut %v nodes %d objective %v; want the unbudgeted optimum %v",
				seed, r.Nodes, exact.Status, exact.TimedOut, exact.Nodes, exact.Objective, r.Objective)
		}

		short, err := Solve(context.Background(), p, Options{MaxNodes: r.Nodes - 1})
		if err != nil {
			t.Fatal(err)
		}
		if !short.TimedOut || short.Status == Optimal || short.Nodes != r.Nodes-1 {
			t.Fatalf("seed %d, MaxNodes %d: status %v timedOut %v nodes %d; want a budget stop at MaxNodes",
				seed, r.Nodes-1, short.Status, short.TimedOut, short.Nodes)
		}
	}
}

// TestConcurrentSolves runs independent solves on separate goroutines, as
// operond's worker slots do, and checks each against its serial result.
// Under -race (make check) it also proves the solves share no state.
func TestConcurrentSolves(t *testing.T) {
	const n = 4
	want := make([]Result, n)
	for i := range want {
		r, err := Solve(context.Background(), knapsackILP(int64(i+1)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	got := make([]Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = Solve(context.Background(), knapsackILP(int64(i+1)), Options{})
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i].Objective != want[i].Objective || got[i].Nodes != want[i].Nodes ||
			!reflect.DeepEqual(got[i].X, want[i].X) {
			t.Fatalf("seed %d: concurrent solve %v in %d nodes, serial %v in %d nodes",
				i+1, got[i].Objective, got[i].Nodes, want[i].Objective, want[i].Nodes)
		}
	}
}

// branchyILP builds an equality knapsack with no integral solution: every
// coefficient lies in (1, 1.01), so a k-subset sums into (k, 1.01k), and
// for n below 100 no such range holds the right-hand side n/4 + 1/2.
// Branch and bound must exhaust a wide, deep tree to prove infeasibility.
func branchyILP(n int, seed int64) Problem {
	rng := rand.New(rand.NewSource(seed))
	p := Problem{LP: lp.Problem{NumVars: n, Objective: make([]float64, n)}}
	row := lp.Row{Sense: lp.EQ, RHS: float64(n)/4 + 0.5}
	for i := 0; i < n; i++ {
		p.LP.Objective[i] = 1 + rng.Float64()*0.001
		row.Terms = append(row.Terms, lp.Term{Var: i, Coeff: 1 + rng.Float64()*0.01})
		p.Binary = append(p.Binary, i)
	}
	p.LP.Rows = append(p.LP.Rows, row)
	return p
}

// maxBranchyAllocs is the allocation ceiling of one solve of the branchy
// knapsack (about 11,350 measured, plus 10% headroom).
const maxBranchyAllocs = 12500

// TestBranchyAllocs pins the branch and bound's allocation profile,
// including the basis pool's reuse of warm-start snapshots.
func TestBranchyAllocs(t *testing.T) {
	p := branchyILP(20, 11)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Solve(context.Background(), p, Options{MaxNodes: 4000}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("branchy knapsack: %.0f allocs per solve", allocs)
	if allocs > maxBranchyAllocs {
		t.Fatalf("branchy knapsack allocates %.0f per solve, ceiling %d", allocs, maxBranchyAllocs)
	}
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
	r, err := Solve(context.Background(), p, Options{MaxTableauBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !r.TimedOut || r.Status != Limit {
		t.Fatalf("tiny memory budget: status %v timedOut %v, want limit/true",
			r.Status, r.TimedOut)
	}
	// The budget is checked before the solver is built, so no relaxation
	// is attempted.
	if r.LPSolves != 0 || r.Nodes != 0 {
		t.Fatalf("tiny memory budget: %d LP solves, %d nodes, want none",
			r.LPSolves, r.Nodes)
	}
}
