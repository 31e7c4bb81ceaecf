package ilp

import (
	"context"
	"math"
	"testing"

	"operon/internal/lp"
)

// decodeProblem turns fuzz bytes into a small mixed 0-1 programme: 1–8
// binaries, 0–2 continuous variables capped at 1–4, and 0–4 rows of any
// sense. Coefficients are multiples of 1/8 in [-16, 16), so ties and
// degenerate vertices are common. Missing bytes read as zero.
func decodeProblem(data []byte) Problem {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	coeff := func() float64 { return float64(int8(next())) / 8 }

	shape := next()
	nB := 1 + int(shape%8)
	nC := int(shape/8) % 3
	nRows := int(shape/32) % 5
	n := nB + nC
	p := Problem{LP: lp.Problem{NumVars: n, Objective: make([]float64, n), Upper: make([]float64, n)}}
	for i := 0; i < n; i++ {
		p.LP.Objective[i] = coeff()
		if i < nB {
			p.Binary = append(p.Binary, i)
			p.LP.Upper[i] = 1
		} else {
			p.LP.Upper[i] = float64(1 + next()%4)
		}
	}
	for k := 0; k < nRows; k++ {
		row := lp.Row{Sense: lp.Sense(next() % 3), RHS: coeff()}
		for j := 0; j < n; j++ {
			if c := coeff(); c != 0 {
				row.Terms = append(row.Terms, lp.Term{Var: j, Coeff: c})
			}
		}
		p.LP.Rows = append(p.LP.Rows, row)
	}
	return p
}

// checkFeasible reports how x violates p: a row, a bound, or integrality.
func checkFeasible(p Problem, x []float64) (string, bool) {
	const tol = 1e-6
	if len(x) != p.LP.NumVars {
		return "wrong length", false
	}
	for i, v := range x {
		if v < -tol || v > p.LP.Upper[i]+tol {
			return "bound", false
		}
	}
	for _, v := range p.Binary {
		if math.Abs(x[v]-math.Round(x[v])) > tol {
			return "integrality", false
		}
	}
	for _, r := range p.LP.Rows {
		lhs, scale := 0.0, 1.0
		for _, t := range r.Terms {
			lhs += t.Coeff * x[t.Var]
			scale += math.Abs(t.Coeff)
		}
		d := lhs - r.RHS
		if r.Sense == lp.LE && d > tol*scale || r.Sense == lp.GE && d < -tol*scale ||
			r.Sense == lp.EQ && math.Abs(d) > tol*scale {
			return "row", false
		}
	}
	return "", true
}

// FuzzSolve checks Solve against exhaustive enumeration: the status, the
// objective, and the feasibility of the returned assignment. Root rounding
// and the frontier stop rule are both on the path. `go test` runs the seed
// corpus in testdata/fuzz/FuzzSolve; `go test -fuzz FuzzSolve` explores.
func FuzzSolve(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProblem(data)
		want := bruteForce(t, p)
		r, err := Solve(context.Background(), p, Options{})
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if math.IsInf(want, 1) {
			if r.Status != Infeasible {
				t.Fatalf("brute force infeasible but solver says %v (objective %v)", r.Status, r.Objective)
			}
			return
		}
		if r.Status != Optimal || r.TimedOut {
			t.Fatalf("status %v timedOut %v, want optimal %v", r.Status, r.TimedOut, want)
		}
		if math.Abs(r.Objective-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("objective %v, want %v", r.Objective, want)
		}
		if what, ok := checkFeasible(p, r.X); !ok {
			t.Fatalf("X = %v violates a %s", r.X, what)
		}
		obj := 0.0
		for i, c := range p.LP.Objective {
			obj += c * r.X[i]
		}
		if math.Abs(obj-r.Objective) > 1e-6*(1+math.Abs(obj)) {
			t.Fatalf("X prices at %v, reported objective %v", obj, r.Objective)
		}
	})
}
