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
// squash numerical drift.
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
// row r. It returns false if the pivot element is numerically unusable.
func (e *etaFile) push(d []float64, r int32) bool {
	p := d[r]
	if math.Abs(p) < pivTol {
		return false
	}
	e.pivRow = append(e.pivRow, r)
	e.piv = append(e.piv, p)
	for i, v := range d {
		if int32(i) != r && math.Abs(v) > dropTol {
			e.idx = append(e.idx, int32(i))
			e.val = append(e.val, v)
		}
	}
	e.starts = append(e.starts, int32(len(e.idx)))
	return true
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
