package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"operon/internal/obs"
)

// ErrNumerical reports an unrecoverable numerical breakdown of the revised
// engine (singular refactorisation). Solve returns it as is; branch and bound
// retries a warm-started relaxation cold once before surfacing it.
var ErrNumerical = errors.New("lp: revised simplex numerical breakdown")

const (
	// bndTol is the primal feasibility tolerance on variable bounds.
	bndTol = 1e-7
	// dualTol is the dual feasibility tolerance on reduced costs.
	dualTol = 1e-7
	// refactorEvery bounds the update etas (pivots since the last rebuild)
	// before a refactorisation.
	refactorEvery = 100
)

// BoundedSolver is a revised primal/dual simplex over the sparse column
// form of one Problem, with native variable bounds lo <= x <= up. The
// constraint rows are converted once to equalities with one slack column
// per row (the slack's bounds encode the sense); branch-and-bound callers
// re-solve with changed structural bounds and a warm-start basis without
// ever touching the rows.
//
// A BoundedSolver is reusable but not safe for concurrent use.
type BoundedSolver struct {
	prob Problem
	// A is the column-compressed constraint matrix (structural plus slack
	// columns), capitalised after the conventional simplex notation Ax = b.
	A csc
	// ar is the row-compressed mirror of A, built once; the devex weight
	// update walks it row-wise.
	ar   csr
	m    int // rows
	n    int // structural columns
	nTot int // n + m (slacks)

	c []float64 // costs, zero on slacks
	b []float64 // RHS

	// Per-column bounds for the current solve. Structural entries are set
	// from SolveBounds arguments; slack entries are fixed by row sense:
	// LE -> [0, +Inf), GE -> (-Inf, 0], EQ -> [0, 0].
	lo, up []float64

	basic []int32 // row -> basic column
	pos   []int32 // column -> basis row, or -1 when nonbasic
	atUp  []bool  // nonbasic column rests at its upper bound
	xB    []float64

	etas etaFile
	// etaBase is the eta-file length right after the last refactorisation
	// (one eta per non-identity basis column); only update etas beyond it
	// count against refactorEvery.
	etaBase int
	// factorGen counts refactorisations; phase 2 compares it to know when
	// its updated duals must be recomputed from the new file.
	factorGen int

	// Dense scratch vectors, length m.
	dir, rho, y, sigma []float64

	// Devex reference weights per column plus the update-pass scratch: dvAcc
	// accumulates the pivot row's entries (length nTot, kept zeroed between
	// updates), dvTouch lists the columns written so only they are re-zeroed.
	dw, dvAcc []float64
	dvTouch   []int32

	// Factorisation scratch, reused across refactorisations (refactor ran
	// hot enough that its ~15 per-call allocations dominated the LP
	// allocation profile).
	fOrder, fHints         []int32
	fRowStart, fRowSlot    []int32
	fColCnt, fRowCnt       []int32
	fCursor                []int32
	fColActive, fRowActive []bool
	fRowQ, fColQ           []int32
	fBackSlots, fBackRows  []int32
	fCols                  []int32
	fRowTaken              []bool
	// fMark flags the rows of fNz, the non-zero list of the column being
	// refactorised; both are clear between columns.
	fMark []bool
	fNz   []int32

	ctx      context.Context
	deadline time.Time
	iter     int
	maxIter  int
	stall    int
	scanAt   int // partial-pricing cursor

	// Behaviour counters, fetched from Options.Obs once at construction; nil
	// counters make the increments no-ops (a nil check per pivot, nothing
	// more).
	cSolves, cPivots, cFlips, cRefactors *obs.Counter
	// numErr records a numerical breakdown inside the pivot loop (singular
	// refactorisation); SolveBounds returns it as ErrNumerical.
	numErr error
	// onPrice, when set (tests only), runs before each phase-2 pricing pass
	// and learns whether y is fresh from a BTRAN or carried by updates.
	onPrice func(yFresh bool)
}

// NewBoundedSolver validates p and builds the sparse column storage once.
// It returns ErrTooLarge, before allocating anything, when the workspace
// p's shape implies exceeds opt.MaxTableauBytes; opt.Obs receives the
// counters of every later SolveBounds call.
func NewBoundedSolver(p Problem, opt Options) (*BoundedSolver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	maxBytes := opt.MaxTableauBytes
	if maxBytes == 0 {
		maxBytes = 3 << 29 // 1.5 GiB
	}
	if bytes := workspaceBytes(p); bytes > maxBytes {
		return nil, fmt.Errorf("%w: needs %d bytes", ErrTooLarge, bytes)
	}
	s := &BoundedSolver{prob: p}
	s.A = buildCSC(p)
	s.ar = buildCSR(&s.A)
	s.m = len(p.Rows)
	s.n = p.NumVars
	s.nTot = s.A.n
	s.c = make([]float64, s.nTot)
	copy(s.c, p.Objective)
	s.b = make([]float64, s.m)
	for i, r := range p.Rows {
		s.b[i] = r.RHS
	}
	s.lo = make([]float64, s.nTot)
	s.up = make([]float64, s.nTot)
	s.basic = make([]int32, s.m)
	s.pos = make([]int32, s.nTot)
	s.atUp = make([]bool, s.nTot)
	s.xB = make([]float64, s.m)
	s.dir = make([]float64, s.m)
	s.rho = make([]float64, s.m)
	s.y = make([]float64, s.m)
	s.sigma = make([]float64, s.m)
	s.dw = make([]float64, s.nTot)
	s.dvAcc = make([]float64, s.nTot)
	s.cSolves = opt.Obs.Counter("lp.solves")
	s.cPivots = opt.Obs.Counter("lp.pivots")
	s.cFlips = opt.Obs.Counter("lp.bound_flips")
	s.cRefactors = opt.Obs.Counter("lp.refactors")
	return s, nil
}

// workspaceBytes bounds the revised-simplex working memory from p's shape
// alone: the CSC store plus its CSR mirror (at most one entry per term plus
// one slack per row), per-column state incl. devex weights, the dense row
// scratch (44 bytes a row) and the refactorisation's row marker and
// non-zero list (5 bytes a row).
func workspaceBytes(p Problem) int64 {
	m := int64(len(p.Rows))
	nnz := m
	for _, r := range p.Rows {
		nnz += int64(len(r.Terms))
	}
	nTot := int64(p.NumVars) + m
	return nnz*24 + nTot*41 + m*49 + refactorEvery*16
}

// SolveBounds solves min cᵀx subject to the problem rows and lo <= x <= up
// over the structural variables (nil slices mean the Problem defaults:
// lower 0, upper Problem.Upper or +Inf), under ctx as Solve does. A non-nil
// warm basis — typically the basis snapshot of a parent solve with looser
// bounds — skips phase 1: primal feasibility is restored by dual simplex
// pivots.
//
// The solution is written into sol (reusing sol.X's capacity) and the basis
// snapshot into out (reusing its slices), so a steady-state caller holding
// both across solves allocates nothing here; the snapshot is independent of
// solver state and safe to retain. sol and out must be non-nil; out may be
// the same *Basis passed as warm (the warm basis is consumed before the
// snapshot is written).
func (s *BoundedSolver) SolveBounds(ctx context.Context, lo, up []float64, warm *Basis, sol *Solution, out *Basis) error {
	if lo != nil && len(lo) != s.n {
		return fmt.Errorf("lp: %d lower bounds for %d variables", len(lo), s.n)
	}
	if up != nil && len(up) != s.n {
		return fmt.Errorf("lp: %d upper bounds for %d variables", len(up), s.n)
	}
	s.setBounds(lo, up)
	s.ctx, s.deadline = ResolveBudget(ctx)
	s.iter = 0
	s.maxIter = 200 * (s.m + s.nTot)
	s.stall = 0
	s.scanAt = 0
	s.numErr = nil
	s.cSolves.Inc()

	warmLoaded := s.loadBasis(warm)
	if err := s.refactor(); err != nil {
		if !warmLoaded {
			return err
		}
		// A stale warm basis can be singular under the new bounds; restart
		// cold rather than failing the solve.
		warmLoaded = false
		s.loadBasis(nil)
		if err := s.refactor(); err != nil {
			return err
		}
	}
	s.computeXB()

	st := s.solveLoaded(warmLoaded)
	if s.numErr != nil {
		return s.numErr
	}
	sol.Status, sol.Iterations, sol.Objective = st, s.iter, 0
	sol.X = sol.X[:0]
	if st == Optimal {
		sol.X = s.extractInto(sol.X)
		for i, cv := range s.prob.Objective {
			sol.Objective += cv * sol.X[i]
		}
	}
	s.snapshotInto(out)
	return nil
}

// solveLoaded runs the simplex phases on the already-factorised basis.
func (s *BoundedSolver) solveLoaded(warm bool) Status {
	if warm && s.dualFeasible() {
		st, ok := s.dualSimplex()
		if ok {
			switch st {
			case Infeasible, IterLimit:
				return st
			}
			// Primal feasible and dual feasible: phase 2 confirms
			// optimality (normally zero iterations).
			return s.primal(phase2)
		}
		// Dual simplex bailed on numerics: fall through to the cold path.
	}
	st := s.primal(phase1)
	if st != Optimal {
		return st
	}
	return s.primal(phase2)
}

// setBounds installs structural bounds and the sense-derived slack bounds.
func (s *BoundedSolver) setBounds(lo, up []float64) {
	for j := 0; j < s.n; j++ {
		if lo != nil {
			s.lo[j] = lo[j]
		} else {
			s.lo[j] = 0
		}
		switch {
		case up != nil:
			s.up[j] = up[j]
		case s.prob.Upper != nil:
			s.up[j] = s.prob.Upper[j]
		default:
			s.up[j] = math.Inf(1)
		}
	}
	for i, r := range s.prob.Rows {
		j := s.n + i
		switch r.Sense {
		case LE:
			s.lo[j], s.up[j] = 0, math.Inf(1)
		case GE:
			s.lo[j], s.up[j] = math.Inf(-1), 0
		case EQ:
			s.lo[j], s.up[j] = 0, 0
		}
	}
}

// loadBasis installs warm (when structurally valid) or the all-slack basis,
// reporting whether the warm basis was used.
func (s *BoundedSolver) loadBasis(warm *Basis) bool {
	for j := range s.pos {
		s.pos[j] = -1
		s.atUp[j] = false
	}
	if warm != nil && len(warm.Basic) == s.m && len(warm.AtUpper) == s.nTot {
		valid := true
		for r, col := range warm.Basic {
			if col < 0 || int(col) >= s.nTot || s.pos[col] >= 0 {
				valid = false
				break
			}
			s.basic[r] = col
			s.pos[col] = int32(r)
		}
		if valid {
			for j := 0; j < s.nTot; j++ {
				if s.pos[j] >= 0 {
					continue
				}
				s.atUp[j] = warm.AtUpper[j]
				// Keep nonbasic columns on a finite bound.
				if s.atUp[j] && math.IsInf(s.up[j], 1) {
					s.atUp[j] = false
				}
				if !s.atUp[j] && math.IsInf(s.lo[j], -1) {
					s.atUp[j] = true
				}
			}
			return true
		}
		for j := range s.pos {
			s.pos[j] = -1
		}
	}
	for i := 0; i < s.m; i++ {
		j := s.n + i
		s.basic[i] = int32(j)
		s.pos[j] = int32(i)
	}
	// GE slacks are the only columns with an infinite lower bound; they all
	// start basic, and structural columns start at their (finite) lower.
	return false
}

// snapshotInto exports the current basis into b for warm starts, reusing
// its slices when they have capacity.
func (s *BoundedSolver) snapshotInto(b *Basis) {
	if cap(b.Basic) < s.m {
		b.Basic = make([]int32, s.m)
	}
	b.Basic = b.Basic[:s.m]
	copy(b.Basic, s.basic)
	if cap(b.AtUpper) < s.nTot {
		b.AtUpper = make([]bool, s.nTot)
	}
	b.AtUpper = b.AtUpper[:s.nTot]
	copy(b.AtUpper, s.atUp)
}

// valOf returns the resting value of nonbasic column j.
func (s *BoundedSolver) valOf(j int) float64 {
	if s.atUp[j] {
		if u := s.up[j]; !math.IsInf(u, 1) {
			return u
		}
		return s.lo[j]
	}
	if l := s.lo[j]; !math.IsInf(l, -1) {
		return l
	}
	return s.up[j]
}

// factorOrder computes a fill-reducing elimination order for the current
// basis. Rows with a single entry across the active columns pivot first
// (forward triangular: their pivot row never reappears, so the eta is the
// untouched sparse column), columns with a single active row pivot last
// (backward triangular — slack columns all land here), and the irreducible
// bump in between is ordered by a Markowitz-style min-count rule. Without
// this ordering a product-form refactorisation densifies: each eta's fill
// feeds the FTRAN of every later column, costing O(m³) on bases this size.
//
// Returned are the basis columns in elimination order and a suggested pivot
// row per column. The rows are hints — the factorisation pass verifies each
// against a stability threshold and falls back to the largest free pivot.
func (s *BoundedSolver) factorOrder() (order, hints []int32) {
	m := s.m
	order = s.fOrder[:0]
	if cap(order) < m {
		order = make([]int32, 0, m)
	}
	hints = s.fHints[:0]
	if cap(hints) < m {
		hints = make([]int32, 0, m)
	}

	// Row-wise view of the basis: rowSlot[rowStart[r]:rowStart[r+1]] lists
	// the basis slots whose column contains row r. rowStart is the only
	// scratch array that must arrive zeroed (it accumulates counts); the
	// rest are fully overwritten before use.
	rowStart := i32Scratch(&s.fRowStart, m+1)
	for i := range rowStart {
		rowStart[i] = 0
	}
	colCnt := i32Scratch(&s.fColCnt, m)
	for k := 0; k < m; k++ {
		ri, _ := s.A.col(int(s.basic[k]))
		colCnt[k] = int32(len(ri))
		for _, r := range ri {
			rowStart[r+1]++
		}
	}
	rowCnt := i32Scratch(&s.fRowCnt, m)
	for r := 0; r < m; r++ {
		rowCnt[r] = rowStart[r+1]
		rowStart[r+1] += rowStart[r]
	}
	rowSlot := i32Scratch(&s.fRowSlot, int(rowStart[m]))
	cursor := i32Scratch(&s.fCursor, m)
	copy(cursor, rowStart[:m])
	for k := 0; k < m; k++ {
		ri, _ := s.A.col(int(s.basic[k]))
		for _, r := range ri {
			rowSlot[cursor[r]] = int32(k)
			cursor[r]++
		}
	}

	colActive := boolScratch(&s.fColActive, m)
	rowActive := boolScratch(&s.fRowActive, m)
	rowQ, colQ := s.fRowQ[:0], s.fColQ[:0]
	for k := 0; k < m; k++ {
		colActive[k] = true
		rowActive[k] = true
	}
	for r := int32(0); r < int32(m); r++ {
		if rowCnt[r] == 1 {
			rowQ = append(rowQ, r)
		}
	}
	for k := int32(0); k < int32(m); k++ {
		if colCnt[k] == 1 {
			colQ = append(colQ, k)
		}
	}

	backSlots, backRows := s.fBackSlots[:0], s.fBackRows[:0]
	processed := 0
	deactivate := func(k, r int32) {
		colActive[k] = false
		rowActive[r] = false
		ri, _ := s.A.col(int(s.basic[k]))
		for _, rr := range ri {
			if rowActive[rr] {
				if rowCnt[rr]--; rowCnt[rr] == 1 {
					rowQ = append(rowQ, rr)
				}
			}
		}
		for t := rowStart[r]; t < rowStart[r+1]; t++ {
			if kk := rowSlot[t]; colActive[kk] {
				if colCnt[kk]--; colCnt[kk] == 1 {
					colQ = append(colQ, kk)
				}
			}
		}
		processed++
	}
	for processed < m {
		if len(rowQ) > 0 {
			r := rowQ[len(rowQ)-1]
			rowQ = rowQ[:len(rowQ)-1]
			if !rowActive[r] || rowCnt[r] != 1 {
				continue
			}
			k := int32(-1)
			for t := rowStart[r]; t < rowStart[r+1]; t++ {
				if colActive[rowSlot[t]] {
					k = rowSlot[t]
					break
				}
			}
			if k < 0 {
				rowActive[r] = false
				continue
			}
			order = append(order, k)
			hints = append(hints, r)
			deactivate(k, r)
			continue
		}
		if len(colQ) > 0 {
			k := colQ[len(colQ)-1]
			colQ = colQ[:len(colQ)-1]
			if !colActive[k] || colCnt[k] != 1 {
				continue
			}
			r := int32(-1)
			ri, _ := s.A.col(int(s.basic[k]))
			for _, rr := range ri {
				if rowActive[rr] {
					r = rr
					break
				}
			}
			if r < 0 {
				colActive[k] = false
				continue
			}
			backSlots = append(backSlots, k)
			backRows = append(backRows, r)
			deactivate(k, r)
			continue
		}
		// Bump: no singleton available. Take the active column with the
		// fewest active rows (lowest slot on ties, for determinism) and pair
		// it with its least-populated active row.
		bk, bc := int32(-1), int32(1<<30)
		for k := int32(0); k < int32(m); k++ {
			if colActive[k] && colCnt[k] < bc {
				bk, bc = k, colCnt[k]
			}
		}
		if bk < 0 {
			break // remaining rows are uncovered; factor pass reports singular
		}
		br, brc := int32(-1), int32(1<<30)
		ri, _ := s.A.col(int(s.basic[bk]))
		for _, rr := range ri {
			if rowActive[rr] && rowCnt[rr] < brc {
				br, brc = rr, rowCnt[rr]
			}
		}
		if br < 0 {
			colActive[bk] = false
			processed++
			order = append(order, bk)
			hints = append(hints, -1)
			continue
		}
		order = append(order, bk)
		hints = append(hints, br)
		deactivate(bk, br)
	}
	for i := len(backSlots) - 1; i >= 0; i-- {
		order = append(order, backSlots[i])
		hints = append(hints, backRows[i])
	}
	// Park the grown buffers for the next refactorisation; refactor consumes
	// order/hints before factorOrder can run again, so handing them back out
	// next call is safe.
	s.fOrder, s.fHints = order, hints
	s.fRowQ, s.fColQ = rowQ, colQ
	s.fBackSlots, s.fBackRows = backSlots, backRows
	return order, hints
}

// i32Scratch resizes *buf to length n without zeroing, reallocating only on
// capacity growth; callers must fully overwrite the result (or zero it
// themselves) before reading.
func i32Scratch(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// boolScratch resizes *buf to length n without zeroing, reallocating only on
// capacity growth; callers must fully overwrite the result (or zero it
// themselves) before reading.
func boolScratch(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// refactor rebuilds the eta file from the current basic set in the
// fill-reducing order of factorOrder: each basis column is FTRANed through
// the file built so far and pivoted on its suggested row when numerically
// sound, else on the largest-magnitude entry among rows not yet pivoted
// (lowest row on ties). The basis is a column set — which row a column
// pivots on is bookkeeping — so basic/pos are relabelled to the chosen
// rows; callers recompute xB afterwards. Free row choice makes the
// factorisation succeed for every nonsingular basis (pinning columns to
// fixed rows can deadlock on a zero transformed diagonal even when the
// basis is fine).
//
// The work is sparse: a column is scattered with a row marker and a
// non-zero list, the FTRAN appends the rows that fill in, and the pivot
// search, the eta push and the clean-up visit that sorted list only. The
// file matches a dense rebuild entry for entry, less the identity etas
// pushRows drops (the refactorDense oracle in the tests checks both).
func (s *BoundedSolver) refactor() error {
	s.cRefactors.Inc()
	s.factorGen++
	order, hints := s.factorOrder()
	cols := i32Scratch(&s.fCols, s.m)
	copy(cols, s.basic)
	s.etas.reset()
	rowTaken := boolScratch(&s.fRowTaken, s.m)
	mark := boolScratch(&s.fMark, s.m)
	// d arrives holding the caller's last pivot direction; from here on it
	// is zero outside the current column's list.
	d := s.dir
	for i := range rowTaken {
		rowTaken[i] = false
		mark[i] = false
		d[i] = 0
	}
	nz := s.fNz[:0]
	for t, k := range order {
		j := cols[k]
		ri, rv := s.A.col(int(j))
		for e, r := range ri {
			mark[r] = true
			nz = append(nz, r)
			d[r] = rv[e]
		}
		nz = s.etas.ftranRows(d, mark, nz)
		slices.Sort(nz)
		pivRow, pivAbs := -1, 0.0
		for _, r := range nz {
			if rowTaken[r] {
				continue
			}
			if a := math.Abs(d[r]); a > pivAbs {
				pivRow, pivAbs = int(r), a
			}
		}
		if pivRow < 0 || pivAbs < pivTol {
			s.fNz = nz
			return ErrNumerical // column dependent on those already pivoted
		}
		// Prefer the fill-reducing hint row when it is within a stability
		// threshold of the best available pivot.
		if h := hints[t]; h >= 0 && !rowTaken[h] && int(h) != pivRow {
			if a := math.Abs(d[h]); a >= pivTol && a >= 0.01*pivAbs {
				pivRow = int(h)
			}
		}
		rowTaken[pivRow] = true
		s.etas.pushRows(d, nz, int32(pivRow))
		for _, r := range nz {
			d[r] = 0
			mark[r] = false
		}
		nz = nz[:0]
		s.basic[pivRow] = j
		s.pos[j] = int32(pivRow)
	}
	s.fNz = nz
	if len(order) < s.m {
		return ErrNumerical
	}
	s.etaBase = s.etas.len()
	return nil
}

// computeXB recomputes basic values xB = B⁻¹(b − Σ_nonbasic A_j·x_j).
func (s *BoundedSolver) computeXB() {
	rhs := s.rho
	copy(rhs, s.b)
	for j := 0; j < s.nTot; j++ {
		if s.pos[j] >= 0 {
			continue
		}
		if v := s.valOf(j); v != 0 {
			s.A.scatter(rhs, j, -v)
		}
	}
	s.etas.ftran(rhs)
	copy(s.xB, rhs)
}

// expired reports whether the context, deadline, or iteration budget is
// exhausted; it increments the shared iteration counter. The context and
// clock are polled every 32 pivots so the check stays off the critical path
// of the pivot loop; see DESIGN.md §8 for the cancellation-latency budget.
func (s *BoundedSolver) expired() bool {
	s.iter++
	if s.iter > s.maxIter {
		return true
	}
	if s.iter%32 == 0 {
		if s.ctx.Err() != nil {
			return true
		}
		if !s.deadline.IsZero() && time.Now().After(s.deadline) {
			return true
		}
	}
	return false
}

type phaseKind int

const (
	phase1 phaseKind = iota
	phase2
)

// primal runs bounded primal simplex pivots. In phase 1 the objective is
// the total bound violation of the basic variables (gradient and its BTRAN
// recomputed every iteration); in phase 2 it is the problem objective over
// a primal-feasible basis, priced with duals y that are BTRANed fresh after
// each refactorisation and otherwise carried by the pivot update
// y += (d_q/α_q)·ρ, ρ = B⁻ᵀe_leave being the row devexUpdate already
// BTRANs. An Optimal or Unbounded verdict is only ever given on fresh
// duals. Returns Optimal (phase 1: feasible), Infeasible (phase 1 only),
// Unbounded (phase 2 only), or IterLimit.
func (s *BoundedSolver) primal(kind phaseKind) Status {
	// Each phase starts a fresh devex reference framework: the phase-1
	// gradient and the problem objective price against different costs, so
	// weights learned in one phase are meaningless in the other.
	s.resetDevex()
	// rechecked reports that phase 1 already recomputed xB from the
	// factorisation before an infeasible verdict.
	rechecked := false
	// Phase 2's y was BTRANed under factorisation yGen (-1: not yet), and
	// yFresh reports that no pivot update has touched it since.
	yGen, yFresh := -1, false
	for {
		if s.expired() {
			return IterLimit
		}
		var cost []float64
		if kind == phase1 {
			if !s.infeasGradient() {
				return Optimal // primal feasible
			}
			copy(s.y, s.sigma)
			s.etas.btran(s.y)
		} else {
			cost = s.c
			if yGen != s.factorGen {
				s.freshDuals()
				yGen, yFresh = s.factorGen, true
			}
		}
		enter, dir := s.pricePhase(cost, yFresh)
		if enter < 0 && kind == phase2 && !yFresh {
			// Updated duals carry rounding drift; re-price once against
			// a fresh BTRAN before declaring optimality.
			s.freshDuals()
			yFresh = true
			enter, dir = s.pricePhase(cost, yFresh)
		}
		if enter < 0 {
			if kind == phase1 {
				// A degenerate step clamps basics that sat within bndTol
				// outside a bound, so updated values drift from B⁻¹b and
				// can show a violation no column can repair. Recompute
				// them once before declaring the violations real.
				if !rechecked {
					s.computeXB()
					rechecked = true
					continue
				}
				return Infeasible // violations remain at phase-1 optimum
			}
			return Optimal
		}
		d := s.dir
		for i := range d {
			d[i] = 0
		}
		s.A.scatter(d, enter, 1)
		s.etas.ftran(d)

		var t float64
		var leave int
		var leaveAtUp bool
		if kind == phase1 {
			t, leave, leaveAtUp = s.ratioPhase1(enter, dir, d)
		} else {
			t, leave, leaveAtUp = s.ratioPhase2(enter, dir, d)
		}
		if math.IsInf(t, 1) {
			if kind == phase1 {
				// The phase-1 objective is bounded below by zero; an
				// unbounded ray indicates numerical trouble. Refactorise
				// and retry once per occurrence.
				if err := s.refactor(); err != nil {
					s.numErr = err
					return IterLimit
				}
				s.computeXB()
				continue
			}
			if !yFresh {
				yGen = -1 // confirm the entering column on fresh duals
				continue
			}
			return Unbounded
		}
		if leave >= 0 {
			// Must run against the pre-pivot basis: it BTRANs e_leave
			// through the eta file applyStep is about to extend.
			rho := s.devexUpdate(enter, leave, d)
			if kind == phase2 {
				if rho == nil {
					yGen = -1 // unusable pivot: applyStep refactorises
				} else {
					// The entering column prices to zero under the new
					// basis and the other basic columns stay at zero.
					theta := (s.c[enter] - s.A.dot(s.y, enter)) / d[leave]
					for i, v := range rho {
						if v != 0 {
							s.y[i] += theta * v
						}
					}
					yFresh = false
				}
			}
		}
		if err := s.applyStep(enter, dir, d, t, leave, leaveAtUp); err != nil {
			s.numErr = err
			return IterLimit
		}
		if t > tol {
			s.stall = 0
		} else {
			s.stall++
		}
	}
}

// pricePhase runs priceEnter on the current y, first showing the test
// hook, in phase 2, whether y is fresh.
func (s *BoundedSolver) pricePhase(cost []float64, yFresh bool) (int, int) {
	if cost != nil && s.onPrice != nil {
		s.onPrice(yFresh)
	}
	return s.priceEnter(s.y, cost)
}

// freshDuals sets y = B⁻ᵀc_B, the phase-2 simplex multipliers, by BTRAN.
func (s *BoundedSolver) freshDuals() {
	for r := 0; r < s.m; r++ {
		s.y[r] = s.c[s.basic[r]]
	}
	s.etas.btran(s.y)
}

// infeasGradient fills sigma with the phase-1 gradient (+1 above upper,
// −1 below lower, 0 feasible) and reports whether any violation exists.
func (s *BoundedSolver) infeasGradient() bool {
	any := false
	for r := 0; r < s.m; r++ {
		j := s.basic[r]
		switch {
		case s.xB[r] > s.up[j]+bndTol:
			s.sigma[r] = 1
			any = true
		case s.xB[r] < s.lo[j]-bndTol:
			s.sigma[r] = -1
			any = true
		default:
			s.sigma[r] = 0
		}
	}
	return any
}

// priceEnter chooses the entering column: partial pricing over cyclic
// chunks with devex reference-weight scoring (rc²/weight, largest wins)
// within the first chunk containing a candidate, and Bland's lowest-index
// rule under stall. Devex approximates steepest-edge pricing at a fraction
// of the cost — long thin columns that barely move the objective per unit
// step score low — and on the selection-shaped LPs cuts the pivot count
// well below Dantzig's. cost is nil in phase 1 (nonbasic columns have zero
// infeasibility cost). Returns (-1, 0) at phase optimality, otherwise the
// column and +1 (enter rising from lower) or −1 (falling from upper).
func (s *BoundedSolver) priceEnter(y []float64, cost []float64) (int, int) {
	rcOf := func(j int) float64 {
		rc := -s.A.dot(y, j)
		if cost != nil {
			rc += cost[j]
		}
		return rc
	}
	eligible := func(j int) (float64, int) {
		if s.pos[j] >= 0 || s.lo[j] == s.up[j] {
			return 0, 0
		}
		rc := rcOf(j)
		if !s.atUp[j] && rc < -tol {
			return rc, 1
		}
		if s.atUp[j] && rc > tol {
			return -rc, -1
		}
		return 0, 0
	}
	if s.stall >= blandAfter {
		for j := 0; j < s.nTot; j++ {
			if _, dir := eligible(j); dir != 0 {
				return j, dir
			}
		}
		return -1, 0
	}
	chunk := s.nTot / 16
	if chunk < 32 {
		chunk = 32
	}
	scanned := 0
	for scanned < s.nTot {
		bestScore := 0.0
		best, bestDir := -1, 0
		end := scanned + chunk
		for ; scanned < end && scanned < s.nTot; scanned++ {
			j := (s.scanAt + scanned) % s.nTot
			if rc, dir := eligible(j); dir != 0 {
				// Devex score: squared reduced cost over the reference
				// weight. Exact comparisons with lowest-column-index ties
				// keep the choice deterministic.
				score := rc * rc / s.dw[j]
				if score > bestScore || (score == bestScore && best >= 0 && j < best) {
					bestScore = score
					best, bestDir = j, dir
				}
			}
		}
		if best >= 0 {
			s.scanAt = (s.scanAt + scanned) % s.nTot
			return best, bestDir
		}
	}
	return -1, 0
}

// devexResetAbove bounds the devex weights; a weight outgrowing it resets
// the reference framework (Forrest–Goldfarb's safeguard against drift).
const devexResetAbove = 1e7

// resetDevex restores the devex reference framework: every column weight 1,
// making the first pricing pass of a phase pure Dantzig.
func (s *BoundedSolver) resetDevex() {
	for j := range s.dw {
		s.dw[j] = 1
	}
}

// devexUpdate refreshes the devex reference weights after the ratio test
// picked (enter, leave): each nonbasic column's weight grows to at least
// its squared pivot-row ratio times the entering weight, and the leaving
// column re-enters the nonbasic set with the entering column's weight
// transferred through the pivot element. It BTRANs e_leave through the
// current eta file and walks the touched rows of the CSR mirror, so it must
// run against the pre-pivot basis (before applyStep extends the file). It
// returns that row ρ = B⁻ᵀe_leave (valid until sigma is next written), or
// nil, skipping the update, when the pivot element is unusable — the pivot
// then refactorises.
func (s *BoundedSolver) devexUpdate(enter, leave int, d []float64) []float64 {
	aq := d[leave]
	if math.Abs(aq) < pivTol {
		return nil
	}
	wq := s.dw[enter]
	// sigma is free scratch here: phase 1 rebuilds its gradient at the top
	// of every iteration and phase 2 never reads it.
	rho := s.sigma
	for i := range rho {
		rho[i] = 0
	}
	rho[leave] = 1
	s.etas.btran(rho)
	acc, touched := s.dvAcc, s.dvTouch[:0]
	for i := 0; i < s.m; i++ {
		if rho[i] == 0 {
			continue
		}
		for t, end := s.ar.rowStart[i], s.ar.rowStart[i+1]; t < end; t++ {
			j := s.ar.colIdx[t]
			if acc[j] == 0 {
				touched = append(touched, j)
			}
			acc[j] += rho[i] * s.ar.val[t]
		}
	}
	reset := false
	for _, j := range touched {
		alpha := acc[j]
		acc[j] = 0
		if int(j) == enter || s.pos[j] >= 0 {
			continue
		}
		r := alpha / aq
		if cand := r * r * wq; cand > s.dw[j] {
			s.dw[j] = cand
			if cand > devexResetAbove {
				reset = true
			}
		}
	}
	s.dvTouch = touched
	if w := wq / (aq * aq); w > 1 {
		s.dw[s.basic[leave]] = w
	} else {
		s.dw[s.basic[leave]] = 1
	}
	if reset {
		s.resetDevex()
	}
	return rho
}

// ratioPhase2 finds the blocking step for a primal-feasible basis.
// dir·d is the rate of decrease of each basic variable per unit of the
// entering variable's move. leave < 0 with finite t means a bound flip.
func (s *BoundedSolver) ratioPhase2(enter, dir int, d []float64) (float64, int, bool) {
	t := s.up[enter] - s.lo[enter] // bound flip distance (may be +Inf)
	leave := -1
	leaveAtUp := false
	for r := 0; r < s.m; r++ {
		dd := float64(dir) * d[r]
		j := s.basic[r]
		var lim float64
		var hitUp bool
		if dd > tol {
			if math.IsInf(s.lo[j], -1) {
				continue
			}
			lim = (s.xB[r] - s.lo[j]) / dd
		} else if dd < -tol {
			if math.IsInf(s.up[j], 1) {
				continue
			}
			lim = (s.up[j] - s.xB[r]) / -dd
			hitUp = true
		} else {
			continue
		}
		if lim < 0 {
			lim = 0
		}
		if lim < t-tol || (lim < t+tol && (leave < 0 || j < s.basic[leave])) {
			t = lim
			leave = r
			leaveAtUp = hitUp
		}
	}
	return t, leave, leaveAtUp
}

// ratioPhase1 finds the blocking step while basic variables may be outside
// their bounds: a feasible basic blocks at the bound it approaches, an
// infeasible one blocks where it regains feasibility, and a basic moving
// deeper into infeasibility never blocks (the gradient accounts for it).
func (s *BoundedSolver) ratioPhase1(enter, dir int, d []float64) (float64, int, bool) {
	t := s.up[enter] - s.lo[enter]
	leave := -1
	leaveAtUp := false
	// The tightest block, kept apart from the tie-broken choice: ties are
	// taken within tol of step length, and a steep basic can overshoot its
	// bound by far more than bndTol in that window.
	minLim, minRow, minUp := math.Inf(1), -1, false
	for r := 0; r < s.m; r++ {
		dd := float64(dir) * d[r]
		j := s.basic[r]
		var lim float64
		var hitUp bool
		if dd > tol { // basic decreasing
			switch {
			case s.xB[r] > s.up[j]+bndTol:
				lim = (s.xB[r] - s.up[j]) / dd
				hitUp = true
			case s.xB[r] >= s.lo[j]-bndTol && !math.IsInf(s.lo[j], -1):
				lim = (s.xB[r] - s.lo[j]) / dd
			default:
				continue // below lower and falling: gradient handles it
			}
		} else if dd < -tol { // basic increasing
			switch {
			case s.xB[r] < s.lo[j]-bndTol:
				lim = (s.lo[j] - s.xB[r]) / -dd
			case s.xB[r] <= s.up[j]+bndTol && !math.IsInf(s.up[j], 1):
				lim = (s.up[j] - s.xB[r]) / -dd
				hitUp = true
			default:
				continue
			}
		} else {
			continue
		}
		if lim < 0 {
			lim = 0
		}
		if lim < minLim {
			minLim, minRow, minUp = lim, r, hitUp
		}
		if lim < t-tol || (lim < t+tol && (leave < 0 || j < s.basic[leave])) {
			t = lim
			leave = r
			leaveAtUp = hitUp
		}
	}
	if minRow >= 0 && minRow != leave && (t-minLim)*math.Abs(d[minRow]) > bndTol {
		return minLim, minRow, minUp
	}
	return t, leave, leaveAtUp
}

// applyStep moves the entering variable by t (in direction dir off its
// bound), updates the basic values, and pivots (or bound-flips when
// leave < 0).
func (s *BoundedSolver) applyStep(enter, dir int, d []float64, t float64, leave int, leaveAtUp bool) error {
	if t != 0 {
		step := float64(dir) * t
		for r := 0; r < s.m; r++ {
			if d[r] != 0 {
				s.xB[r] -= step * d[r]
			}
		}
	}
	if leave < 0 {
		s.cFlips.Inc()
		s.atUp[enter] = !s.atUp[enter]
		return nil
	}
	return s.pivot(enter, leave, leaveAtUp, s.valOf(enter)+float64(dir)*t, d)
}

// pivot is the one commit path for a basis change, primal and dual: enter
// becomes basic in row leave at value xEnter, the leaving column rests at
// its upper bound when leaveAtUp, and the eta of pivot direction d (the
// entering column FTRANed through the pre-pivot file) is appended. It
// counts the pivot and refactorises, recomputing xB, when the pivot element
// is unusable or refactorEvery update etas have piled up since the last
// rebuild (the etas the rebuild itself left never count).
func (s *BoundedSolver) pivot(enter, leave int, leaveAtUp bool, xEnter float64, d []float64) error {
	s.cPivots.Inc()
	lv := s.basic[leave]
	s.pos[lv] = -1
	s.atUp[lv] = leaveAtUp
	s.basic[leave] = int32(enter)
	s.pos[enter] = int32(leave)
	s.xB[leave] = xEnter
	if s.etas.push(d, int32(leave)) && s.etas.len()-s.etaBase < refactorEvery {
		return nil
	}
	if err := s.refactor(); err != nil {
		return err
	}
	s.computeXB()
	return nil
}

// extractInto reads the structural solution into x, reusing its capacity.
func (s *BoundedSolver) extractInto(x []float64) []float64 {
	if cap(x) < s.n {
		x = make([]float64, s.n)
	}
	x = x[:s.n]
	for j := 0; j < s.n; j++ {
		if r := s.pos[j]; r >= 0 {
			x[j] = s.xB[r]
		} else {
			x[j] = s.valOf(j)
		}
	}
	for i, v := range x {
		if v < 0 && v > -1e-7 {
			x[i] = 0
		}
	}
	return x
}
