package lp

import (
	"math"
	"slices"
)

// Presolve tolerances. feasTol decides infeasibility of a forced row;
// improveTol is the minimum bound improvement worth recording (it also
// guards the propagation loop against asymptotic tightening).
const (
	preFeasTol    = 1e-7
	preImproveTol = 1e-7
	preZeroTol    = 1e-12
)

// PresolveOutcome classifies a presolve pass.
type PresolveOutcome int

const (
	// PresolveReduced means a (possibly smaller) problem remains to solve.
	PresolveReduced PresolveOutcome = iota
	// PresolveSolved means presolve fixed every variable; Postsolve with an
	// empty reduced solution yields the full assignment and Offset its
	// objective.
	PresolveSolved
	// PresolveInfeasible means presolve proved the constraints inconsistent.
	PresolveInfeasible
	// PresolveUnbounded means presolve proved the objective unbounded below
	// (a negative-cost column subject to no constraint at all).
	PresolveUnbounded
)

// String implements fmt.Stringer.
func (o PresolveOutcome) String() string {
	switch o {
	case PresolveReduced:
		return "reduced"
	case PresolveSolved:
		return "solved"
	case PresolveInfeasible:
		return "infeasible"
	default:
		return "unbounded"
	}
}

// Presolved is the result of Presolve: the reduced problem plus everything
// needed to reinflate a reduced-space solution to the original variable
// space. The reductions are deterministic (fixed scan orders, lowest-index
// tie-breaks), so the reduced problem is identical across runs and worker
// counts.
type Presolved struct {
	// Outcome classifies the pass; P/Lo/Up/Integer are meaningful only for
	// PresolveReduced.
	Outcome PresolveOutcome
	// P is the reduced problem over the surviving columns and rows.
	P Problem
	// Lo and Up are the reduced per-column bounds (propagation can raise a
	// lower bound above the default 0, so solve with SolveBounds, not the
	// Problem defaults).
	Lo, Up []float64
	// Integer carries the integrality flags into the reduced space; nil when
	// Presolve was called without flags.
	Integer []bool
	// Offset is the objective contribution of the eliminated columns;
	// original objective = reduced objective + Offset.
	Offset float64
	// RowsRemoved and ColsRemoved count the eliminated rows and columns.
	RowsRemoved, ColsRemoved int

	origN   int
	colMap  []int32 // reduced column -> original column
	actions []preAction
}

// preAction is one eliminated-variable record, replayed in reverse by
// Postsolve. Column indices are in the original space.
type preAction struct {
	kind  int
	col   int32
	val   float64 // fix value, or the column's lower bound for absorb
	coeff float64 // absorb: coefficient of col in the removed row
	rhs   float64 // absorb: RHS of the removed row
	terms []Term  // absorb: the removed row's other terms
}

const (
	actFix = iota
	// actAbsorb restores a cost-free column singleton that was eliminated
	// together with its only row: x = max(lo, (rhs − Σ other terms)/coeff)
	// satisfies the row at no objective cost.
	actAbsorb
)

// preRow is one working constraint during presolve.
type preRow struct {
	terms []Term
	sense Sense
	rhs   float64
	alive bool
}

// presolver carries the working state of one Presolve call.
type presolver struct {
	n        int
	c        []float64
	wlo, wup []float64
	integer  []bool
	rows     []preRow
	colRows  [][]int32 // original row membership per column
	colAlive []bool
	colNNZ   []int // alive rows containing the column
	aliveR   int   // alive row count
	aliveC   int   // alive column count

	offset     float64
	actions    []preAction
	changed    bool
	infeasible bool
}

// Presolve applies deterministic reductions to min cᵀx subject to p.Rows
// and lo <= x <= up (nil slices mean the Problem defaults: lower 0, upper
// p.Upper or +Inf). integer optionally flags integral variables, letting
// bound propagation round their implied bounds inward; nil means all
// continuous. The reductions — empty and fixed column removal, singleton-row
// substitution, bound propagation, redundant-row removal, cost-free column
// singleton absorption, and dominated-binary-column elimination on
// selection-shaped assignment rows — are exactly objective-preserving:
// every optimal solution of the reduced problem postsolves to an optimal
// solution of the original.
func Presolve(p Problem, lo, up []float64, integer []bool) (*Presolved, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ps := &presolver{n: p.NumVars}
	ps.init(p, lo, up, integer)

	for pass := 0; pass < 10; pass++ {
		ps.changed = false
		ps.scanRows()
		ps.scanCols()
		ps.propagate()
		ps.dominatedBinaries()
		if ps.infeasible || !ps.changed {
			break
		}
	}
	return ps.finish(p)
}

// init copies the problem into merged working form.
func (ps *presolver) init(p Problem, lo, up []float64, integer []bool) {
	n := ps.n
	ps.c = p.Objective
	ps.wlo = make([]float64, n)
	ps.wup = make([]float64, n)
	for j := 0; j < n; j++ {
		if lo != nil {
			ps.wlo[j] = lo[j]
		}
		switch {
		case up != nil:
			ps.wup[j] = up[j]
		case p.Upper != nil:
			ps.wup[j] = p.Upper[j]
		default:
			ps.wup[j] = math.Inf(1)
		}
	}
	if integer != nil {
		ps.integer = integer
	} else {
		ps.integer = make([]bool, n)
	}
	ps.rows = make([]preRow, len(p.Rows))
	ps.colRows = make([][]int32, n)
	ps.colNNZ = make([]int, n)
	// All rows' working terms live in one backing array (merged counts never
	// exceed the raw total, so the appends below never reallocate and every
	// row's three-index window stays valid). Rows only ever shrink in place,
	// so the shared storage survives the whole pass — and finish hands the
	// windows to the reduced problem without another copy.
	total := 0
	for _, r := range p.Rows {
		total += len(r.Terms)
	}
	backing := make([]Term, 0, total)
	var scratch []Term
	for i, r := range p.Rows {
		// Merge duplicate variables and drop zero coefficients, matching
		// buildCSC, so activity bounds and substitutions are exact.
		scratch = append(scratch[:0], r.Terms...)
		slices.SortFunc(scratch, func(a, b Term) int { return a.Var - b.Var })
		start := len(backing)
		for _, t := range scratch {
			if k := len(backing); k > start && backing[k-1].Var == t.Var {
				backing[k-1].Coeff += t.Coeff
			} else {
				backing = append(backing, t)
			}
		}
		kept := backing[start:start:len(backing)]
		for _, t := range backing[start:] {
			if t.Coeff != 0 {
				kept = append(kept, t)
			}
		}
		backing = backing[:start+len(kept)]
		kept = backing[start:len(backing):len(backing)]
		ps.rows[i] = preRow{terms: kept, sense: r.Sense, rhs: r.RHS, alive: true}
		for _, t := range kept {
			ps.colNNZ[t.Var]++
		}
	}
	// Column → row membership, likewise carved from one backing array.
	colBacking := make([]int32, 0, len(backing))
	off := 0
	for j := 0; j < n; j++ {
		ps.colRows[j] = colBacking[off : off : off+ps.colNNZ[j]]
		off += ps.colNNZ[j]
	}
	for i := range ps.rows {
		for _, t := range ps.rows[i].terms {
			ps.colRows[t.Var] = append(ps.colRows[t.Var], int32(i))
		}
	}
	ps.colAlive = make([]bool, n)
	for j := range ps.colAlive {
		ps.colAlive[j] = true
	}
	ps.aliveR = len(p.Rows)
	ps.aliveC = n
}

// killRow retires row r, releasing its columns' membership counts.
func (ps *presolver) killRow(r int32) {
	row := &ps.rows[r]
	if !row.alive {
		return
	}
	row.alive = false
	ps.aliveR--
	for _, t := range row.terms {
		ps.colNNZ[t.Var]--
	}
	ps.changed = true
}

// fixColumn eliminates column j at value v: the objective absorbs c_j·v,
// every alive row substitutes it into the RHS, and Postsolve restores it.
func (ps *presolver) fixColumn(j int, v float64) {
	ps.offset += ps.c[j] * v
	for _, r := range ps.colRows[j] {
		row := &ps.rows[r]
		if !row.alive {
			continue
		}
		kept := row.terms[:0]
		for _, t := range row.terms {
			if t.Var == j {
				row.rhs -= t.Coeff * v
			} else {
				kept = append(kept, t)
			}
		}
		row.terms = kept
	}
	ps.colAlive[j] = false
	ps.aliveC--
	ps.colNNZ[j] = 0
	ps.actions = append(ps.actions, preAction{kind: actFix, col: int32(j), val: v})
	ps.changed = true
}

// tightenLo raises column j's lower bound to v (rounded up for integers).
func (ps *presolver) tightenLo(j int, v float64) {
	if math.IsInf(v, -1) {
		return
	}
	if ps.integer[j] {
		v = math.Ceil(v - 1e-6)
	}
	if v > ps.wlo[j]+preImproveTol {
		ps.wlo[j] = v
		ps.changed = true
	}
}

// tightenUp lowers column j's upper bound to v (rounded down for integers).
func (ps *presolver) tightenUp(j int, v float64) {
	if math.IsInf(v, 1) {
		return
	}
	if ps.integer[j] {
		v = math.Floor(v + 1e-6)
	}
	if v < ps.wup[j]-preImproveTol {
		ps.wup[j] = v
		ps.changed = true
	}
}

// scanRows handles empty rows (feasibility check) and singleton rows
// (substituted into the variable's bounds).
func (ps *presolver) scanRows() {
	for i := range ps.rows {
		row := &ps.rows[i]
		if !row.alive {
			continue
		}
		switch len(row.terms) {
		case 0:
			ok := true
			switch row.sense {
			case LE:
				ok = 0 <= row.rhs+preFeasTol
			case GE:
				ok = 0 >= row.rhs-preFeasTol
			case EQ:
				ok = math.Abs(row.rhs) <= preFeasTol
			}
			if !ok {
				ps.infeasible = true
				return
			}
			ps.killRow(int32(i))
		case 1:
			t := row.terms[0]
			if math.Abs(t.Coeff) < preZeroTol {
				continue
			}
			v := row.rhs / t.Coeff
			switch {
			case row.sense == EQ:
				ps.tightenLo(t.Var, v)
				ps.tightenUp(t.Var, v)
				// An equality pins the variable exactly even when the pin
				// is within the improve tolerance of both bounds.
				if v >= ps.wlo[t.Var]-preFeasTol && v <= ps.wup[t.Var]+preFeasTol {
					ps.wlo[t.Var], ps.wup[t.Var] = v, v
				}
			case (row.sense == LE) == (t.Coeff > 0):
				ps.tightenUp(t.Var, v)
			default:
				ps.tightenLo(t.Var, v)
			}
			ps.killRow(int32(i))
		}
	}
}

// scanCols handles crossed bounds (infeasible), fixed columns, empty
// columns, and cost-free column singletons that can absorb their only row.
func (ps *presolver) scanCols() {
	for j := 0; j < ps.n; j++ {
		if !ps.colAlive[j] {
			continue
		}
		if ps.wlo[j] > ps.wup[j]+preFeasTol {
			ps.infeasible = true
			return
		}
		// Integers round to an exact fix. A continuous column fixes only when
		// its bounds meet: propagation can squeeze a range below the
		// tolerance without reaching its one feasible point, and a fix
		// inside it leaves residuals that the other rows' coefficients
		// amplify past the tolerance.
		if ps.integer[j] && ps.wup[j]-ps.wlo[j] <= preFeasTol || ps.wup[j] <= ps.wlo[j] {
			v := ps.wlo[j]
			if ps.integer[j] {
				v = math.Round(v)
			}
			ps.fixColumn(j, v)
			continue
		}
		if ps.colNNZ[j] == 0 {
			switch {
			case ps.c[j] >= 0:
				ps.fixColumn(j, ps.wlo[j])
			case !math.IsInf(ps.wup[j], 1):
				ps.fixColumn(j, ps.wup[j])
			}
			// Negative cost and no upper bound: unbounded iff the rest of
			// the problem is feasible, which presolve may not know yet —
			// leave the column alive; finish classifies it once all rows
			// are gone, the simplex does otherwise.
			continue
		}
		if ps.colNNZ[j] == 1 && ps.c[j] == 0 && !ps.integer[j] && math.IsInf(ps.wup[j], 1) {
			ps.absorbSingleton(j)
		}
	}
}

// absorbSingleton eliminates cost-free column j together with its only
// row when raising j always satisfies the row (GE with positive coefficient
// or LE with negative): the selection programme's crossing variables y land
// here once their detection rows go redundant.
func (ps *presolver) absorbSingleton(j int) {
	var rowIdx int32 = -1
	for _, r := range ps.colRows[j] {
		if ps.rows[r].alive {
			rowIdx = r
			break
		}
	}
	if rowIdx < 0 {
		return
	}
	row := &ps.rows[rowIdx]
	var coeff float64
	for _, t := range row.terms {
		if t.Var == j {
			coeff = t.Coeff
			break
		}
	}
	if !(row.sense == GE && coeff > preZeroTol || row.sense == LE && coeff < -preZeroTol) {
		return
	}
	terms := make([]Term, 0, len(row.terms)-1)
	for _, t := range row.terms {
		if t.Var != j {
			terms = append(terms, t)
		}
	}
	ps.actions = append(ps.actions, preAction{
		kind: actAbsorb, col: int32(j), val: ps.wlo[j],
		coeff: coeff, rhs: row.rhs, terms: terms,
	})
	ps.killRow(rowIdx)
	ps.colAlive[j] = false
	ps.aliveC--
	ps.colNNZ[j] = 0
	ps.changed = true
}

// propagate derives implied bounds from row activity ranges, removes
// redundant rows, and detects forced infeasibility.
func (ps *presolver) propagate() {
	for i := range ps.rows {
		row := &ps.rows[i]
		if !row.alive || len(row.terms) == 0 {
			continue
		}
		var minAct, maxAct float64
		nMinInf, nMaxInf := 0, 0
		for _, t := range row.terms {
			var locon, upcon float64
			if t.Coeff > 0 {
				locon, upcon = t.Coeff*ps.wlo[t.Var], t.Coeff*ps.wup[t.Var]
			} else {
				locon, upcon = t.Coeff*ps.wup[t.Var], t.Coeff*ps.wlo[t.Var]
			}
			if math.IsInf(locon, -1) {
				nMinInf++
			} else {
				minAct += locon
			}
			if math.IsInf(upcon, 1) {
				nMaxInf++
			} else {
				maxAct += upcon
			}
		}
		if row.sense != GE && nMinInf == 0 && minAct > row.rhs+preFeasTol {
			ps.infeasible = true
			return
		}
		if row.sense != LE && nMaxInf == 0 && maxAct < row.rhs-preFeasTol {
			ps.infeasible = true
			return
		}
		if row.sense == LE && nMaxInf == 0 && maxAct <= row.rhs+preImproveTol {
			ps.killRow(int32(i))
			continue
		}
		if row.sense == GE && nMinInf == 0 && minAct >= row.rhs-preImproveTol {
			ps.killRow(int32(i))
			continue
		}
		// Implied bounds from the <= direction (LE and EQ rows).
		if row.sense != GE && nMinInf <= 1 {
			for _, t := range row.terms {
				var locon float64
				if t.Coeff > 0 {
					locon = t.Coeff * ps.wlo[t.Var]
				} else {
					locon = t.Coeff * ps.wup[t.Var]
				}
				inf := math.IsInf(locon, -1)
				if nMinInf == 1 && !inf {
					continue // some other column's contribution is unbounded
				}
				rest := minAct
				if !inf {
					rest -= locon
				}
				if t.Coeff > 0 {
					ps.tightenUp(t.Var, (row.rhs-rest)/t.Coeff)
				} else {
					ps.tightenLo(t.Var, (row.rhs-rest)/t.Coeff)
				}
			}
		}
		// Implied bounds from the >= direction (GE and EQ rows).
		if row.sense != LE && nMaxInf <= 1 {
			for _, t := range row.terms {
				var upcon float64
				if t.Coeff > 0 {
					upcon = t.Coeff * ps.wup[t.Var]
				} else {
					upcon = t.Coeff * ps.wlo[t.Var]
				}
				inf := math.IsInf(upcon, 1)
				if nMaxInf == 1 && !inf {
					continue
				}
				rest := maxAct
				if !inf {
					rest -= upcon
				}
				if t.Coeff > 0 {
					ps.tightenLo(t.Var, (row.rhs-rest)/t.Coeff)
				} else {
					ps.tightenUp(t.Var, (row.rhs-rest)/t.Coeff)
				}
			}
		}
	}
}

// dominatedBinaries eliminates dominated candidates inside selection-shaped
// assignment rows: an EQ row with RHS 1 and all-ones coefficients over
// binary [0,1] columns picks exactly one of them, so a candidate that is no
// cheaper and no looser in every other row than a sibling can be fixed to
// zero (any solution using it swaps to the dominating sibling without
// loss). Ties keep the lowest column index.
func (ps *presolver) dominatedBinaries() {
	if ps.infeasible {
		return
	}
	var cands []int
	coeffs := map[int]map[int32]float64{}
	for i := range ps.rows {
		row := &ps.rows[i]
		if !row.alive || row.sense != EQ || math.Abs(row.rhs-1) > preZeroTol || len(row.terms) < 2 {
			continue
		}
		ok := true
		cands = cands[:0]
		for _, t := range row.terms {
			j := t.Var
			if t.Coeff != 1 || !ps.integer[j] || ps.wlo[j] != 0 || ps.wup[j] != 1 {
				ok = false
				break
			}
			cands = append(cands, j)
		}
		if !ok {
			continue
		}
		for _, j := range cands {
			if coeffs[j] == nil {
				m := map[int32]float64{}
				for _, r := range ps.colRows[j] {
					if int(r) == i || !ps.rows[r].alive {
						continue
					}
					for _, t := range ps.rows[r].terms {
						if t.Var == j {
							m[r] = t.Coeff
							break
						}
					}
				}
				coeffs[j] = m
			}
		}
		for a := 0; a < len(cands); a++ {
			j := cands[a]
			if !ps.colAlive[j] || ps.wup[j] == 0 {
				continue
			}
			for b := a + 1; b < len(cands); b++ {
				k := cands[b]
				if !ps.colAlive[k] || ps.wup[k] == 0 {
					continue
				}
				if ps.dominates(j, k, coeffs) {
					ps.tightenUp(k, 0)
				} else if ps.dominates(k, j, coeffs) {
					ps.tightenUp(j, 0)
					break
				}
			}
		}
	}
}

// dominates reports that swapping candidate k for candidate j in any
// solution keeps every remaining row satisfied at no extra cost.
func (ps *presolver) dominates(j, k int, coeffs map[int]map[int32]float64) bool {
	if ps.c[j] > ps.c[k]+preZeroTol {
		return false
	}
	cj, ck := coeffs[j], coeffs[k]
	for r, aj := range cj {
		if !ps.rows[r].alive {
			continue
		}
		if !coeffDominates(ps.rows[r].sense, aj, ck[r]) {
			return false
		}
	}
	for r, ak := range ck {
		if !ps.rows[r].alive {
			continue
		}
		if _, seen := cj[r]; seen {
			continue
		}
		if !coeffDominates(ps.rows[r].sense, 0, ak) {
			return false
		}
	}
	return true
}

// coeffDominates compares one row's coefficients under its sense: the
// dominating candidate must consume no more of a <= budget, contribute no
// less to a >= requirement, and match exactly on equalities.
func coeffDominates(sense Sense, aj, ak float64) bool {
	switch sense {
	case LE:
		return aj <= ak+preZeroTol
	case GE:
		return aj >= ak-preZeroTol
	default:
		return math.Abs(aj-ak) <= preZeroTol
	}
}

// finish compacts the surviving rows and columns into the reduced problem.
func (ps *presolver) finish(p Problem) (*Presolved, error) {
	out := &Presolved{
		origN:   ps.n,
		actions: ps.actions,
		Offset:  ps.offset,
	}
	out.RowsRemoved = len(p.Rows) - ps.aliveR
	out.ColsRemoved = ps.n - ps.aliveC
	if ps.infeasible {
		out.Outcome = PresolveInfeasible
		return out, nil
	}
	// Re-check crossed bounds over the survivors (the pass cap can leave a
	// conflict undetected), then classify free-floating negative-cost
	// columns: with zero rows left they prove unboundedness outright.
	for j := 0; j < ps.n; j++ {
		if ps.colAlive[j] && ps.wlo[j] > ps.wup[j]+preFeasTol {
			out.Outcome = PresolveInfeasible
			return out, nil
		}
	}
	if ps.aliveR == 0 {
		for j := 0; j < ps.n; j++ {
			if ps.colAlive[j] && ps.c[j] < 0 && math.IsInf(ps.wup[j], 1) {
				out.Outcome = PresolveUnbounded
				return out, nil
			}
		}
	}
	if ps.aliveC == 0 {
		// Every column is fixed; any surviving rows are empty and must
		// already be satisfied (the pass-cap case re-checks them here).
		for i := range ps.rows {
			row := &ps.rows[i]
			if !row.alive {
				continue
			}
			act := 0.0
			bad := false
			switch row.sense {
			case LE:
				bad = act > row.rhs+preFeasTol
			case GE:
				bad = act < row.rhs-preFeasTol
			case EQ:
				bad = math.Abs(act-row.rhs) > preFeasTol
			}
			if bad {
				out.Outcome = PresolveInfeasible
				return out, nil
			}
		}
		out.Outcome = PresolveSolved
		return out, nil
	}

	out.Outcome = PresolveReduced
	inv := make([]int32, ps.n)
	out.colMap = make([]int32, 0, ps.aliveC)
	for j := 0; j < ps.n; j++ {
		if ps.colAlive[j] {
			inv[j] = int32(len(out.colMap))
			out.colMap = append(out.colMap, int32(j))
		} else {
			inv[j] = -1
		}
	}
	nr := len(out.colMap)
	obj := make([]float64, nr)
	out.Lo = make([]float64, nr)
	out.Up = make([]float64, nr)
	upper := make([]float64, nr)
	out.Integer = make([]bool, nr)
	for r, oc := range out.colMap {
		obj[r] = ps.c[oc]
		out.Lo[r] = ps.wlo[oc]
		out.Up[r] = ps.wup[oc]
		upper[r] = ps.wup[oc]
		out.Integer[r] = ps.integer[oc]
	}
	rows := make([]Row, 0, ps.aliveR)
	for i := range ps.rows {
		row := &ps.rows[i]
		if !row.alive {
			continue
		}
		// The working terms are presolve-owned copies (never aliasing the
		// caller's Problem), so remap them to reduced indices in place and
		// hand the windows to the reduced problem without another copy.
		for t := range row.terms {
			row.terms[t].Var = int(inv[row.terms[t].Var])
		}
		rows = append(rows, Row{Terms: row.terms, Sense: row.sense, RHS: row.rhs})
	}
	out.P = Problem{NumVars: nr, Objective: obj, Rows: rows, Upper: upper}
	return out, nil
}

// Postsolve reinflates a reduced-space solution to the original variable
// space, replaying the elimination actions in reverse. dst is reused when
// it has capacity; xRed may be nil when the outcome was PresolveSolved.
func (ps *Presolved) Postsolve(xRed, dst []float64) []float64 {
	if cap(dst) < ps.origN {
		dst = make([]float64, ps.origN)
	}
	dst = dst[:ps.origN]
	for i := range dst {
		dst[i] = 0
	}
	for r, oc := range ps.colMap {
		dst[oc] = xRed[r]
	}
	for i := len(ps.actions) - 1; i >= 0; i-- {
		a := &ps.actions[i]
		switch a.kind {
		case actFix:
			dst[a.col] = a.val
		case actAbsorb:
			sum := 0.0
			for _, t := range a.terms {
				sum += t.Coeff * dst[t.Var]
			}
			if v := (a.rhs - sum) / a.coeff; v > a.val {
				dst[a.col] = v
			} else {
				dst[a.col] = a.val
			}
		}
	}
	return dst
}
