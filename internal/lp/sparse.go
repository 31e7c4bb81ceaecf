package lp

import "sort"

// csc is a sparse matrix in compressed-sparse-column form. The revised
// simplex stores the constraint matrix A extended with one slack column per
// row: columns [0, n) are structural, [n, n+m) are unit slack columns
// (coefficient +1; the slack's bounds encode the row sense).
type csc struct {
	m, n     int // rows, columns (including slacks)
	colStart []int32
	rowIdx   []int32
	val      []float64
}

// col returns the non-zeros of column j.
func (a *csc) col(j int) ([]int32, []float64) {
	s, e := a.colStart[j], a.colStart[j+1]
	return a.rowIdx[s:e], a.val[s:e]
}

// dot returns yᵀ·A_j, the sparse dot product of a dense vector with
// column j.
func (a *csc) dot(y []float64, j int) float64 {
	var sum float64
	for s, e := a.colStart[j], a.colStart[j+1]; s < e; s++ {
		sum += y[a.rowIdx[s]] * a.val[s]
	}
	return sum
}

// scatter adds t·A_j into the dense vector v.
func (a *csc) scatter(v []float64, j int, t float64) {
	for s, e := a.colStart[j], a.colStart[j+1]; s < e; s++ {
		v[a.rowIdx[s]] += a.val[s] * t
	}
}

// csr is a row-compressed mirror of a csc matrix. The revised simplex keeps
// one for the devex weight update, which walks the rows touched by the
// BTRANed pivot row — a column-only store would make that O(nnz) per row
// probe instead of a direct slice scan.
type csr struct {
	rowStart []int32
	colIdx   []int32
	val      []float64
}

// buildCSR transposes a into row-major form; column indices are ascending
// within each row (deterministic scan order for the devex update).
func buildCSR(a *csc) csr {
	r := csr{
		rowStart: make([]int32, a.m+1),
		colIdx:   make([]int32, len(a.val)),
		val:      make([]float64, len(a.val)),
	}
	for _, ri := range a.rowIdx {
		r.rowStart[ri+1]++
	}
	for i := 0; i < a.m; i++ {
		r.rowStart[i+1] += r.rowStart[i]
	}
	cursor := make([]int32, a.m)
	copy(cursor, r.rowStart[:a.m])
	for j := 0; j < a.n; j++ {
		for t := a.colStart[j]; t < a.colStart[j+1]; t++ {
			i := a.rowIdx[t]
			r.colIdx[cursor[i]] = int32(j)
			r.val[cursor[i]] = a.val[t]
			cursor[i]++
		}
	}
	return r
}

// buildCSC assembles the extended matrix [A | I] from the problem rows.
// Duplicate terms on the same (row, variable) pair accumulate, matching the
// dense engine. Entries within each column are sorted by row index.
func buildCSC(p Problem) csc {
	m := len(p.Rows)
	n := p.NumVars
	a := csc{m: m, n: n + m}

	// Merge duplicates per row and count entries per structural column.
	type ent struct {
		col int32
		val float64
	}
	merged := make([][]ent, m)
	counts := make([]int32, a.n+1)
	var scratch []ent
	for i, r := range p.Rows {
		scratch = scratch[:0]
		for _, t := range r.Terms {
			scratch = append(scratch, ent{col: int32(t.Var), val: t.Coeff})
		}
		sort.Slice(scratch, func(x, y int) bool { return scratch[x].col < scratch[y].col })
		row := make([]ent, 0, len(scratch))
		for _, e := range scratch {
			if k := len(row); k > 0 && row[k-1].col == e.col {
				row[k-1].val += e.val
			} else {
				row = append(row, e)
			}
		}
		// Drop exact zeros after accumulation.
		kept := row[:0]
		for _, e := range row {
			if e.val != 0 {
				kept = append(kept, e)
			}
		}
		merged[i] = kept
		for _, e := range kept {
			counts[e.col+1]++
		}
		counts[int32(n+i)+1]++ // slack
	}
	a.colStart = make([]int32, a.n+1)
	for j := 0; j < a.n; j++ {
		a.colStart[j+1] = a.colStart[j] + counts[j+1]
	}
	total := a.colStart[a.n]
	a.rowIdx = make([]int32, total)
	a.val = make([]float64, total)
	cursor := make([]int32, a.n)
	copy(cursor, a.colStart[:a.n])
	for i := 0; i < m; i++ {
		for _, e := range merged[i] {
			at := cursor[e.col]
			a.rowIdx[at] = int32(i)
			a.val[at] = e.val
			cursor[e.col]++
		}
		j := int32(n + i)
		a.rowIdx[cursor[j]] = int32(i)
		a.val[cursor[j]] = 1
		cursor[j]++
	}
	return a
}
