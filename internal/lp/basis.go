package lp

import "math"

// Basis is an exportable snapshot of a simplex basis, used to warm-start a
// BoundedSolver from a parent node's optimal basis in branch and bound.
// Basic[r] is the column basic in row r (structural columns are < NumVars,
// slack columns are NumVars+row); AtUpper marks nonbasic columns sitting at
// their upper bound.
type Basis struct {
	// Basic[r] is the column basic in row r.
	Basic []int32
	// AtUpper[c] marks nonbasic column c as sitting at its upper bound.
	AtUpper []bool
}

// etaFile is a product-form representation of the basis inverse:
// B = E_1·E_2·…·E_k where each E is the identity with one column replaced
// by a pivot direction d = B'⁻¹·A_enter. FTRAN applies the inverses in
// creation order, BTRAN transposed in reverse order. The file is rebuilt
// from scratch (refactorisation) periodically to bound its length and
// squash numerical drift; a rebuild stores no identity eta.
type etaFile struct {
	pivRow []int32   // pivot row per eta
	piv    []float64 // pivot element d[pivRow]
	starts []int32   // offsets into idx/val; len = len(pivRow)+1
	idx    []int32   // off-pivot row indices
	val    []float64 // off-pivot values of d
}

// dropTol discards near-zero eta entries; pivTol rejects pivots too small
// to divide by safely.
const (
	dropTol = 1e-12
	pivTol  = 1e-9
)

func (e *etaFile) reset() {
	e.pivRow = e.pivRow[:0]
	e.piv = e.piv[:0]
	if len(e.starts) == 0 {
		e.starts = append(e.starts, 0)
	}
	e.starts = e.starts[:1]
	e.idx = e.idx[:0]
	e.val = e.val[:0]
}

func (e *etaFile) len() int { return len(e.pivRow) }

// push appends the eta for pivot direction d (dense, length m) with pivot
// row r, scanning every row for off-pivot entries: the update path, whose d
// comes from a full FTRAN. It returns false if the pivot element is
// numerically unusable.
func (e *etaFile) push(d []float64, r int32) bool {
	p := d[r]
	if math.Abs(p) < pivTol {
		return false
	}
	for i, v := range d {
		if int32(i) != r && math.Abs(v) > dropTol {
			e.idx = append(e.idx, int32(i))
			e.val = append(e.val, v)
		}
	}
	e.seal(r, p)
	return true
}

// pushRows appends the eta for d with pivot row r, reading off-pivot
// entries only from rows (ascending; d is zero on every other row): the
// refactorisation path, whose caller has already vetted the pivot. An eta
// that would be the identity — pivot exactly 1 and no entry kept, in
// practice a basic slack — is not stored: applying it changes no FTRAN or
// BTRAN bit, and every later solve would walk past it.
func (e *etaFile) pushRows(d []float64, rows []int32, r int32) {
	for _, i := range rows {
		if v := d[i]; i != r && math.Abs(v) > dropTol {
			e.idx = append(e.idx, i)
			e.val = append(e.val, v)
		}
	}
	if d[r] == 1 && len(e.idx) == int(e.starts[len(e.starts)-1]) {
		return
	}
	e.seal(r, d[r])
}

// seal closes the eta whose off-pivot entries were just appended.
func (e *etaFile) seal(r int32, p float64) {
	e.pivRow = append(e.pivRow, r)
	e.piv = append(e.piv, p)
	e.starts = append(e.starts, int32(len(e.idx)))
}

// ftran solves B·w = v in place (w = B⁻¹·v): apply E⁻¹ in creation order.
// For E with column r = d: w_r = v_r/d_r, w_i = v_i − d_i·w_r.
func (e *etaFile) ftran(v []float64) {
	for k := range e.pivRow {
		r := e.pivRow[k]
		t := v[r] / e.piv[k]
		if t != 0 {
			for s := e.starts[k]; s < e.starts[k+1]; s++ {
				v[e.idx[s]] -= e.val[s] * t
			}
		}
		v[r] = t
	}
}

// ftranRows is ftran for a v that is zero outside the rows listed in nz
// (mark[i] is true exactly for listed rows). An eta whose pivot row is
// unlisted leaves v unchanged and is skipped; a row that fills in is marked
// and appended. It returns the grown list, in no particular order.
func (e *etaFile) ftranRows(v []float64, mark []bool, nz []int32) []int32 {
	for k, r := range e.pivRow {
		if !mark[r] {
			continue
		}
		t := v[r] / e.piv[k]
		if t != 0 {
			for s := e.starts[k]; s < e.starts[k+1]; s++ {
				i := e.idx[s]
				if !mark[i] {
					mark[i] = true
					nz = append(nz, i)
				}
				v[i] -= e.val[s] * t
			}
		}
		v[r] = t
	}
	return nz
}

// btran solves Bᵀ·w = v in place (w = B⁻ᵀ·v): apply E⁻ᵀ in reverse order.
// For E with column r = d: w_r = (v_r − Σ_{i≠r} d_i·v_i)/d_r, w_i = v_i.
func (e *etaFile) btran(v []float64) {
	for k := len(e.pivRow) - 1; k >= 0; k-- {
		r := e.pivRow[k]
		sum := v[r]
		for s := e.starts[k]; s < e.starts[k+1]; s++ {
			sum -= e.val[s] * v[e.idx[s]]
		}
		v[r] = sum / e.piv[k]
	}
}
