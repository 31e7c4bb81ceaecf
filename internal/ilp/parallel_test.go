package ilp

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"operon/internal/lp"
	"operon/internal/obs"
	"operon/internal/parallel"
)

// branchyILP builds an equality-knapsack family with many near-symmetric
// solutions — the branch-and-bound tree is wide and deep, so speculation
// actually overlaps with the decision loop.
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

// deterministicCounters filters a snapshot down to the counters covered by
// the determinism contract: everything except the scheduling diagnostics
// (ilp.spec_* and ilp.basis_reuse vary with worker timing by design).
func deterministicCounters(t *obs.Tracer) []obs.CounterValue {
	var out []obs.CounterValue
	for _, cv := range t.Snapshot() {
		if strings.HasPrefix(cv.Name, "ilp.spec_") || cv.Name == "ilp.basis_reuse" {
			continue
		}
		out = append(out, cv)
	}
	return out
}

// ilpEvents extracts the (name, attrs) stream of the search's own events;
// timestamps are dropped, order is preserved.
func ilpEvents(col *obs.Collector) [][]obs.Attr {
	var out [][]obs.Attr
	for _, e := range col.Events() {
		if e.Name == "ilp/node" || e.Name == "ilp/incumbent" {
			out = append(out, append([]obs.Attr{obs.S("event", e.Name)}, e.Attrs...))
		}
	}
	return out
}

// TestParallelILPDeterministic is the tentpole contract: at every worker
// count the explored tree (the full ilp/node and ilp/incumbent event
// streams), the result, and all deterministic counters are bit-identical
// to the serial Workers=1 run. Runs under -race in make check.
func TestParallelILPDeterministic(t *testing.T) {
	arena := parallel.NewArena()
	type row struct {
		p        Problem
		maxNodes int
	}
	problems := []row{
		{branchyILP(18, 11), 3000},
		{branchyILP(14, 7), 3000},
		// The branchy knapsack the parallel-speedup benchmark times.
		{branchyILP(20, 11), 4000},
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		problems = append(problems, row{randomILP(rng), 3000})
	}

	for pi, pr := range problems {
		type outcome struct {
			res      Result
			counters []obs.CounterValue
			events   [][]obs.Attr
		}
		var ref outcome
		for _, workers := range []int{1, 2, 4, 8} {
			col := &obs.Collector{}
			tr := obs.New(col)
			r, err := Solve(pr.p, Options{
				MaxNodes: pr.maxNodes,
				Workers:  workers,
				Arena:    arena,
				Obs:      tr,
			})
			if err != nil {
				t.Fatalf("problem %d workers %d: %v", pi, workers, err)
			}
			got := outcome{res: r, counters: deterministicCounters(tr), events: ilpEvents(col)}
			// Wall-clock fields are not part of the contract.
			got.res.Elapsed = 0
			got.res.LPTime = 0
			if workers == 1 {
				ref = got
				continue
			}
			if got.res.Status != ref.res.Status || got.res.Nodes != ref.res.Nodes ||
				got.res.TimedOut != ref.res.TimedOut || got.res.LPSolves != ref.res.LPSolves ||
				got.res.LPRows != ref.res.LPRows || got.res.Objective != ref.res.Objective {
				t.Fatalf("problem %d workers %d: result diverged\n got %+v\nwant %+v",
					pi, workers, got.res, ref.res)
			}
			if !reflect.DeepEqual(got.res.X, ref.res.X) {
				t.Fatalf("problem %d workers %d: incumbent diverged\n got %v\nwant %v",
					pi, workers, got.res.X, ref.res.X)
			}
			if !reflect.DeepEqual(got.counters, ref.counters) {
				t.Fatalf("problem %d workers %d: counters diverged\n got %v\nwant %v",
					pi, workers, got.counters, ref.counters)
			}
			if !reflect.DeepEqual(got.events, ref.events) {
				t.Fatalf("problem %d workers %d: explored tree diverged (%d vs %d events)",
					pi, workers, len(got.events), len(ref.events))
			}
		}
	}
}

// TestParallelILPMatchesBruteForce cross-checks parallel correctness
// against exhaustive enumeration, independent of the serial reference.
func TestParallelILPMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		p := randomILP(rng)
		r, err := Solve(p, Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(t, p)
		if math.IsInf(want, 1) {
			if r.Status != Infeasible {
				t.Fatalf("trial %d: brute force infeasible but solver says %v", trial, r.Status)
			}
			continue
		}
		if r.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, r.Status)
		}
		if math.Abs(r.Objective-want) > 1e-5 {
			t.Fatalf("trial %d: objective %v, want %v", trial, r.Objective, want)
		}
	}
}

// branchySpeedupProblem is the branchy knapsack of the allocation pin and
// the parallel-speedup gate; TestParallelILPDeterministic covers its tree.
func branchySpeedupProblem() (Problem, Options) {
	return branchyILP(20, 11), Options{MaxNodes: 4000, Arena: parallel.NewArena()}
}

// maxBranchyAllocs is the allocation ceiling of one sequential solve of
// the branchy knapsack (about 11,350 measured, plus 10% headroom).
const maxBranchyAllocs = 12500

// TestBranchyAllocs pins the sequential branch and bound's allocation
// profile. Workers=1 keeps the count independent of the host's CPUs.
func TestBranchyAllocs(t *testing.T) {
	p, opt := branchySpeedupProblem()
	opt.Workers = 1
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Solve(p, opt); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("branchy knapsack: %.0f allocs per solve", allocs)
	if allocs > maxBranchyAllocs {
		t.Fatalf("branchy knapsack allocates %.0f per solve, ceiling %d", allocs, maxBranchyAllocs)
	}
}

// minParallelSpeedup is the factor by which Workers=4 must beat Workers=1
// on the branchy knapsack when more than one CPU is available.
const minParallelSpeedup = 1.05

// BenchmarkParallelSpeedup times the branchy knapsack at Workers=1 and
// Workers=4 in alternating order and fails below minParallelSpeedup. With
// GOMAXPROCS=1 it skips: the pair would measure pool overhead, not
// parallelism. Run with `make bench-speedup`.
func BenchmarkParallelSpeedup(b *testing.B) {
	if runtime.GOMAXPROCS(0) == 1 {
		b.Skip("GOMAXPROCS=1: parallel speedup is not measurable")
	}
	p, opt := branchySpeedupProblem()
	workers := [2]int{1, 4}
	var elapsed [2]time.Duration
	for i := 0; i < b.N; i++ {
		for k := 0; k < 2; k++ {
			side := (i + k) % 2
			opt.Workers = workers[side]
			start := time.Now()
			if _, err := Solve(p, opt); err != nil {
				b.Fatal(err)
			}
			elapsed[side] += time.Since(start)
		}
	}
	speedup := float64(elapsed[0]) / float64(elapsed[1])
	b.ReportMetric(speedup, "speedup")
	if speedup < minParallelSpeedup {
		b.Fatalf("workers4 vs workers1 speedup %.2fx < %.2fx", speedup, minParallelSpeedup)
	}
}
