package lp

import (
	"context"
	"math"
	"testing"
)

// decodeLP turns fuzz bytes into a small pure LP: 1–6 variables, 0–4 rows
// of any sense, and, when the shape asks for them, upper bounds of 1–4 or
// +Inf per variable. Coefficients are multiples of 1/8 in [-16, 16), so
// ties, degenerate vertices, singleton and empty rows are common. Missing
// bytes read as zero.
func decodeLP(data []byte) Problem {
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
	n := 1 + int(shape%6)
	nRows := int(shape/6) % 5
	p := Problem{NumVars: n, Objective: make([]float64, n)}
	if shape/30%2 == 1 {
		p.Upper = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		p.Objective[i] = coeff()
		if p.Upper != nil {
			if b := next(); b%5 == 0 {
				p.Upper[i] = math.Inf(1)
			} else {
				p.Upper[i] = float64(b % 5)
			}
		}
	}
	for k := 0; k < nRows; k++ {
		row := Row{Sense: Sense(next() % 3), RHS: coeff()}
		for j := 0; j < n; j++ {
			if c := coeff(); c != 0 {
				row.Terms = append(row.Terms, Term{Var: j, Coeff: c})
			}
		}
		p.Rows = append(p.Rows, row)
	}
	return p
}

// FuzzSolve checks Solve (the revised simplex) against the dense oracle on
// small pure LPs: the same status, objectives within 1e-6 relative, and an
// X that satisfies the rows and bounds and prices at the reported
// objective. `go test` runs the seed corpus in testdata/fuzz/FuzzSolve;
// `go test -fuzz FuzzSolve` explores.
func FuzzSolve(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeLP(data)
		got, err := Solve(context.Background(), p, Options{})
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		want, err := SolveDense(context.Background(), p, Options{})
		if err != nil {
			t.Fatalf("SolveDense: %v", err)
		}
		if got.Status != want.Status {
			t.Fatalf("Solve status %v, dense %v (objective %v)", got.Status, want.Status, want.Objective)
		}
		if got.Status != Optimal {
			return
		}
		if math.Abs(got.Objective-want.Objective) > 1e-6*(1+math.Abs(want.Objective)) {
			t.Fatalf("Solve objective %v, dense %v", got.Objective, want.Objective)
		}
		if what := violation(p, got.X); what != "" {
			t.Fatalf("X = %v violates %s", got.X, what)
		}
		obj := 0.0
		for i, c := range p.Objective {
			obj += c * got.X[i]
		}
		if math.Abs(obj-got.Objective) > 1e-6*(1+math.Abs(obj)) {
			t.Fatalf("X prices at %v, reported objective %v", obj, got.Objective)
		}
	})
}

// violation names the first row or bound x violates, or returns
// "" when x is feasible for p.
func violation(p Problem, x []float64) string {
	const tol = 1e-6
	if len(x) != p.NumVars {
		return "the variable count"
	}
	for i, v := range x {
		if v < -tol || p.Upper != nil && v > p.Upper[i]+tol {
			return "a bound"
		}
	}
	for _, r := range p.Rows {
		lhs, scale := 0.0, 1.0
		for _, t := range r.Terms {
			lhs += t.Coeff * x[t.Var]
			scale += math.Abs(t.Coeff)
		}
		d := lhs - r.RHS
		if r.Sense == LE && d > tol*scale || r.Sense == GE && d < -tol*scale ||
			r.Sense == EQ && math.Abs(d) > tol*scale {
			return "a row"
		}
	}
	return ""
}
