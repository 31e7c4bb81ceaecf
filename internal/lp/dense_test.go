package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"
)

// SolveDense runs the dense two-phase tableau simplex on p under ctx and
// the given resource bounds. It is the tests' independent oracle for the
// revised simplex (see Solve); the implementation favours clarity and
// robustness (Bland's anti-cycling rule after a stall) over raw speed.
// Problem.Upper bounds are materialised as LE rows (the dense engine has no
// native bound handling).
func SolveDense(ctx context.Context, p Problem, opt Options) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	if p.Upper != nil {
		q := p
		q.Rows = make([]Row, len(p.Rows), len(p.Rows)+len(p.Upper))
		copy(q.Rows, p.Rows)
		for i, u := range p.Upper {
			if !math.IsInf(u, 1) {
				q.Rows = append(q.Rows, Row{
					Terms: []Term{{Var: i, Coeff: 1}}, Sense: LE, RHS: u,
				})
			}
		}
		q.Upper = nil
		p = q
	}
	maxBytes := opt.MaxTableauBytes
	if maxBytes == 0 {
		maxBytes = 3 << 29 // 1.5 GiB
	}
	if bytes := tableauBytes(p); bytes > maxBytes {
		return Solution{}, fmt.Errorf("%w: needs %d bytes", ErrTooLarge, bytes)
	}
	t := newTableau(p)
	t.ctx, t.deadline = ResolveBudget(ctx)
	// Phase 1: drive artificial variables to zero.
	if t.nArt > 0 {
		status := t.iterate(t.phase1Cost(), t.nCols)
		if status == Unbounded {
			// Phase-1 objective is bounded below by 0; unbounded indicates
			// a numerical breakdown.
			return Solution{}, errors.New("lp: phase-1 became unbounded (numerical failure)")
		}
		if status == IterLimit {
			return Solution{Status: IterLimit}, nil
		}
		if t.phase1Value() > 1e-6 {
			return Solution{Status: Infeasible}, nil
		}
		t.driveOutArtificials()
	}
	// Phase 2: optimise the real objective. Artificial columns are excluded
	// from entering the basis (their cost is zero, not penalised, so a
	// still-basic artificial on a redundant row cannot poison pricing).
	status := t.iterate(t.phase2Cost(), t.nVars+t.nSlack)
	sol := Solution{Status: status}
	if status == Optimal {
		sol.X = t.extract()
		sol.Objective = 0
		for i, c := range p.Objective {
			sol.Objective += c * sol.X[i]
		}
	}
	return sol, nil
}

// tableau holds the dense simplex working state.
//
// Column layout: [0, nVars) structural, [nVars, nVars+nSlack) slack/surplus,
// [nVars+nSlack, nCols) artificial. b holds the RHS, basis[r] the basic
// column of row r.
type tableau struct {
	p        Problem
	nVars    int
	nSlack   int
	nArt     int
	nCols    int
	a        [][]float64
	b        []float64
	basis    []int
	maxIter  int
	ctx      context.Context
	deadline time.Time
}

// tableauBytes estimates the dense tableau allocation for p.
func tableauBytes(p Problem) int64 {
	m := int64(len(p.Rows))
	cols := int64(p.NumVars)
	for _, r := range p.Rows {
		switch r.Sense {
		case LE:
			cols++
		case GE:
			cols += 2
		case EQ:
			cols++
		}
	}
	return m * cols * 8
}

func newTableau(p Problem) *tableau {
	m := len(p.Rows)
	t := &tableau{p: p, nVars: p.NumVars}
	// Count slacks and artificials. Rows are normalised to RHS >= 0 first.
	type rowShape struct {
		coeffs []float64
		rhs    float64
		sense  Sense
	}
	rows := make([]rowShape, m)
	for i, r := range p.Rows {
		coeffs := make([]float64, p.NumVars)
		for _, term := range r.Terms {
			coeffs[term.Var] += term.Coeff
		}
		rhs := r.RHS
		sense := r.Sense
		if rhs < 0 {
			for j := range coeffs {
				coeffs[j] = -coeffs[j]
			}
			rhs = -rhs
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		rows[i] = rowShape{coeffs: coeffs, rhs: rhs, sense: sense}
		switch sense {
		case LE:
			t.nSlack++
		case GE:
			t.nSlack++
			t.nArt++
		case EQ:
			t.nArt++
		}
	}
	t.nCols = t.nVars + t.nSlack + t.nArt
	t.a = make([][]float64, m)
	t.b = make([]float64, m)
	t.basis = make([]int, m)
	t.maxIter = 200 * (m + t.nCols)

	slackAt := t.nVars
	artAt := t.nVars + t.nSlack
	for i, r := range rows {
		row := make([]float64, t.nCols)
		copy(row, r.coeffs)
		t.b[i] = r.rhs
		switch r.sense {
		case LE:
			row[slackAt] = 1
			t.basis[i] = slackAt
			slackAt++
		case GE:
			row[slackAt] = -1
			slackAt++
			row[artAt] = 1
			t.basis[i] = artAt
			artAt++
		case EQ:
			row[artAt] = 1
			t.basis[i] = artAt
			artAt++
		}
		t.a[i] = row
	}
	return t
}

// phase1Cost is 1 on artificial columns.
func (t *tableau) phase1Cost() []float64 {
	c := make([]float64, t.nCols)
	for j := t.nVars + t.nSlack; j < t.nCols; j++ {
		c[j] = 1
	}
	return c
}

// phase2Cost is the original objective extended with zero costs on slack
// and artificial columns; artificials are kept out of the basis by the
// entering-column restriction in iterate.
func (t *tableau) phase2Cost() []float64 {
	c := make([]float64, t.nCols)
	copy(c, t.p.Objective)
	return c
}

// phase1Value returns the current sum of artificial variables.
func (t *tableau) phase1Value() float64 {
	var sum float64
	for r, col := range t.basis {
		if col >= t.nVars+t.nSlack {
			sum += t.b[r]
		}
	}
	return sum
}

// reducedCosts computes c_j − c_Bᵀ B⁻¹ a_j for all columns under cost c.
func (t *tableau) reducedCosts(c []float64) []float64 {
	m := len(t.a)
	// y = c_B (costs of basic columns per row).
	y := make([]float64, m)
	for r, col := range t.basis {
		y[r] = c[col]
	}
	rc := make([]float64, t.nCols)
	for j := 0; j < t.nCols; j++ {
		sum := c[j]
		for r := 0; r < m; r++ {
			if y[r] != 0 && t.a[r][j] != 0 {
				sum -= y[r] * t.a[r][j]
			}
		}
		rc[j] = sum
	}
	return rc
}

// iterate performs primal simplex pivots under cost c until optimality.
// Only columns below maxCol may enter the basis.
func (t *tableau) iterate(c []float64, maxCol int) Status {
	m := len(t.a)
	stall := 0
	prevObj := math.Inf(1)
	for iter := 0; iter < t.maxIter; iter++ {
		if iter%32 == 0 {
			if t.ctx.Err() != nil {
				return IterLimit
			}
			if !t.deadline.IsZero() && time.Now().After(t.deadline) {
				return IterLimit
			}
		}
		rc := t.reducedCosts(c)
		// Choose the entering column: Dantzig normally, Bland under stall.
		enter := -1
		if stall < blandAfter {
			best := -tol
			for j := 0; j < maxCol; j++ {
				if rc[j] < best {
					best = rc[j]
					enter = j
				}
			}
		} else {
			for j := 0; j < maxCol; j++ {
				if rc[j] < -tol {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return Optimal
		}
		// Ratio test for the leaving row (Bland tie-break on basis index).
		leave := -1
		bestRatio := math.Inf(1)
		for r := 0; r < m; r++ {
			if t.a[r][enter] > tol {
				ratio := t.b[r] / t.a[r][enter]
				if ratio < bestRatio-tol ||
					(ratio < bestRatio+tol && (leave < 0 || t.basis[r] < t.basis[leave])) {
					bestRatio = ratio
					leave = r
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		t.pivot(leave, enter)
		obj := t.objectiveValue(c)
		if obj < prevObj-tol {
			stall = 0
		} else {
			stall++
		}
		prevObj = obj
	}
	return IterLimit
}

func (t *tableau) objectiveValue(c []float64) float64 {
	var sum float64
	for r, col := range t.basis {
		sum += c[col] * t.b[r]
	}
	return sum
}

// pivot makes column `enter` basic in row `leave` via Gauss-Jordan.
func (t *tableau) pivot(leave, enter int) {
	pr := t.a[leave]
	pv := pr[enter]
	inv := 1 / pv
	for j := range pr {
		pr[j] *= inv
	}
	t.b[leave] *= inv
	pr[enter] = 1 // exact
	for r := range t.a {
		if r == leave {
			continue
		}
		f := t.a[r][enter]
		if f == 0 {
			continue
		}
		row := t.a[r]
		for j := range row {
			row[j] -= f * pr[j]
		}
		row[enter] = 0 // exact
		t.b[r] -= f * t.b[leave]
	}
	t.basis[leave] = enter
}

// driveOutArtificials pivots any artificial variable still basic at zero
// level out of the basis where possible; rows that cannot pivot are
// redundant and left in place (their artificial stays at zero).
func (t *tableau) driveOutArtificials() {
	artStart := t.nVars + t.nSlack
	for r, col := range t.basis {
		if col < artStart {
			continue
		}
		for j := 0; j < artStart; j++ {
			if math.Abs(t.a[r][j]) > tol {
				t.pivot(r, j)
				break
			}
		}
	}
}

// extract reads the structural variable values from the tableau.
func (t *tableau) extract() []float64 {
	x := make([]float64, t.nVars)
	for r, col := range t.basis {
		if col < t.nVars {
			x[col] = t.b[r]
		}
	}
	// Clamp tiny negatives from roundoff.
	for i, v := range x {
		if v < 0 && v > -1e-7 {
			x[i] = 0
		}
	}
	return x
}
