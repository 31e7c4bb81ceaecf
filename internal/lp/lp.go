// Package lp implements linear-programming solvers for problems in the form
//
//	min  cᵀx
//	s.t. aᵢᵀx {<=,=,>=} bᵢ
//	     0 <= x <= u   (u optional, +Inf by default)
//
// It is the substrate under OPERON's ILP stage (paper §3.3), standing in
// for the commercial solver the authors used. Two engines are provided:
//
//   - Solve / SolveWithOptions — a revised simplex over sparse column
//     storage (CSC) with a product-form eta representation of B⁻¹, partial
//     pricing, native bounded variables, and a dual-simplex phase used to
//     warm-start from a near-optimal basis (see BoundedSolver). This is the
//     production path.
//   - SolveDense / SolveDenseWithOptions — the original dense two-phase
//     tableau simplex, retained as a cross-check oracle for tests and as a
//     fallback on numerical breakdown of the revised engine.
//
// Both engines use deterministic pivot rules (Dantzig/partial pricing with
// a Bland anti-cycling fallback, lowest-index tie-breaks), so results are
// bit-identical across runs and worker counts.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"operon/internal/obs"
)

// Sense is a constraint direction.
type Sense int

const (
	// LE is aᵀx <= b.
	LE Sense = iota
	// GE is aᵀx >= b.
	GE
	// EQ is aᵀx = b.
	EQ
)

// Term is one non-zero coefficient of a constraint row.
type Term struct {
	// Var is the variable index in [0, Problem.NumVars).
	Var int
	// Coeff is the coefficient of Var in the row.
	Coeff float64
}

// Row is one constraint.
type Row struct {
	// Terms holds the non-zero coefficients of the row.
	Terms []Term
	// Sense relates the row to RHS: LE, GE, or EQ.
	Sense Sense
	// RHS is the constraint's right-hand side.
	RHS float64
}

// Problem is a linear programme over NumVars non-negative variables.
type Problem struct {
	// NumVars is the number of structural variables.
	NumVars int
	// Objective is minimised; length NumVars.
	Objective []float64
	// Rows lists the constraints.
	Rows []Row
	// Upper optionally gives per-variable upper bounds (0 <= x_i <= Upper[i]).
	// A nil slice, or a +Inf entry, means unbounded above. The revised
	// simplex handles these natively in the ratio test; the dense oracle
	// materialises them as LE rows.
	Upper []float64
}

// Validate checks structural consistency.
func (p Problem) Validate() error {
	if p.NumVars <= 0 {
		return errors.New("lp: no variables")
	}
	if len(p.Objective) != p.NumVars {
		return fmt.Errorf("lp: objective has %d coefficients for %d variables",
			len(p.Objective), p.NumVars)
	}
	if p.Upper != nil {
		if len(p.Upper) != p.NumVars {
			return fmt.Errorf("lp: %d upper bounds for %d variables",
				len(p.Upper), p.NumVars)
		}
		for i, u := range p.Upper {
			if math.IsNaN(u) || u < 0 {
				return fmt.Errorf("lp: invalid upper bound %v on variable %d", u, i)
			}
		}
	}
	for i, r := range p.Rows {
		for _, t := range r.Terms {
			if t.Var < 0 || t.Var >= p.NumVars {
				return fmt.Errorf("lp: row %d references variable %d", i, t.Var)
			}
			if math.IsNaN(t.Coeff) || math.IsInf(t.Coeff, 0) {
				return fmt.Errorf("lp: row %d has non-finite coefficient", i)
			}
		}
		if math.IsNaN(r.RHS) || math.IsInf(r.RHS, 0) {
			return fmt.Errorf("lp: row %d has non-finite rhs", i)
		}
	}
	return nil
}

// Status describes the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
	// IterLimit means the iteration budget was exhausted.
	IterLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return "iteration-limit"
	}
}

// Solution is the result of Solve.
type Solution struct {
	// Status classifies the solve outcome.
	Status Status
	// X is the primal solution (length Problem.NumVars).
	X []float64
	// Objective is the objective value of X.
	Objective float64
	// Iterations counts simplex pivots consumed by the solve (both engines
	// fill it; diagnostic only).
	Iterations int
}

// ErrTooLarge reports that the solver workspace would exceed the memory
// budget; callers treat it like a resource limit.
var ErrTooLarge = errors.New("lp: problem exceeds solver memory budget")

// Options bound a solve beyond the problem statement.
type Options struct {
	// Ctx, when non-nil, bounds the solve: its deadline (if any) aborts the
	// pivot loop with Status IterLimit once passed, and cancellation is
	// observed every few pivots with the same effect. This is the single
	// time-budget mechanism of the solver substrate. A nil Ctx means
	// context.Background().
	Ctx context.Context
	// MaxTableauBytes caps the solver workspace allocation; Solve returns
	// ErrTooLarge above it. Zero means 1.5 GiB. The revised simplex needs
	// far less memory than the dense tableau, so the same budget admits
	// much larger problems.
	MaxTableauBytes int64
	// Obs, when non-nil, receives the revised engine's behaviour counters:
	// lp.solves, lp.pivots, lp.bound_flips, and lp.refactors. The dense
	// oracle is not instrumented. Nil costs the pivot loop one nil check.
	Obs *obs.Tracer
}

const (
	tol = 1e-8
	// blandAfter switches to Bland's rule after this many consecutive
	// non-improving pivots, guaranteeing termination.
	blandAfter = 64
)

// Solve runs the revised simplex method on p with default options.
func Solve(p Problem) (Solution, error) {
	return SolveWithOptions(p, Options{})
}

// SolveWithOptions runs presolve and then the revised simplex method on the
// reduced problem under the given resource bounds, falling back to the
// dense oracle on numerical breakdown (singular refactorisation that cannot
// be recovered). The solution is postsolved back to the full variable
// space, so callers never see the reduction.
func SolveWithOptions(p Problem, opt Options) (Solution, error) {
	ps, err := Presolve(p, nil, nil, nil)
	if err != nil {
		return Solution{}, err
	}
	if opt.Obs != nil {
		opt.Obs.Counter("lp.presolve_rows").Add(int64(ps.RowsRemoved))
		opt.Obs.Counter("lp.presolve_cols").Add(int64(ps.ColsRemoved))
	}
	switch ps.Outcome {
	case PresolveInfeasible:
		return Solution{Status: Infeasible}, nil
	case PresolveUnbounded:
		return Solution{Status: Unbounded}, nil
	case PresolveSolved:
		return Solution{Status: Optimal, Objective: ps.Offset, X: ps.Postsolve(nil, nil)}, nil
	}
	s, err := NewBoundedSolver(ps.P)
	if err != nil {
		return Solution{}, err
	}
	sol, _, err := s.SolveBounds(ps.Lo, ps.Up, nil, opt)
	if errors.Is(err, ErrNumerical) {
		return SolveDenseWithOptions(p, opt)
	}
	if err != nil {
		return Solution{}, err
	}
	if sol.Status == Optimal {
		sol.X = ps.Postsolve(sol.X, nil)
		sol.Objective += ps.Offset
	}
	return sol, nil
}
