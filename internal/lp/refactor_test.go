package lp

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"operon/internal/obs"
)

// refactorDense is the dense refactorisation the sparse one replaced, kept
// as its oracle the way SolveDense is kept for Solve: every column is
// scattered into a zeroed length-m vector, FTRANed through the whole file
// built so far, searched over all m rows for its pivot and pushed by a scan
// of all m rows. It stores every eta, identity ones included.
func (s *BoundedSolver) refactorDense() error {
	order, hints := s.factorOrder()
	cols := i32Scratch(&s.fCols, s.m)
	copy(cols, s.basic)
	s.etas.reset()
	rowTaken := boolScratch(&s.fRowTaken, s.m)
	for i := range rowTaken {
		rowTaken[i] = false
	}
	d := s.dir
	for t, k := range order {
		j := cols[k]
		for i := range d {
			d[i] = 0
		}
		s.A.scatter(d, int(j), 1)
		s.etas.ftran(d)
		pivRow, pivAbs := -1, 0.0
		for r := 0; r < s.m; r++ {
			if rowTaken[r] {
				continue
			}
			if a := math.Abs(d[r]); a > pivAbs {
				pivRow, pivAbs = r, a
			}
		}
		if pivRow < 0 || pivAbs < pivTol {
			return ErrNumerical
		}
		if h := hints[t]; h >= 0 && !rowTaken[h] && int(h) != pivRow {
			if a := math.Abs(d[h]); a >= pivTol && a >= 0.01*pivAbs {
				pivRow = int(h)
			}
		}
		rowTaken[pivRow] = true
		s.etas.push(d, int32(pivRow))
		s.basic[pivRow] = j
		s.pos[j] = int32(pivRow)
	}
	if len(order) < s.m {
		return ErrNumerical
	}
	s.etaBase = s.etas.len()
	return nil
}

// eta is one entry of an eta file, copied out for comparison.
type eta struct {
	row int32
	piv float64
	idx []int32
	val []float64
}

// etasOf copies e's etas in file order, leaving out identity etas (pivot
// exactly 1, no off-pivot entry) when dropIdentity is set.
func etasOf(e *etaFile, dropIdentity bool) []eta {
	var out []eta
	for k, r := range e.pivRow {
		lo, hi := e.starts[k], e.starts[k+1]
		if dropIdentity && e.piv[k] == 1 && lo == hi {
			continue
		}
		out = append(out, eta{r, e.piv[k], slices.Clone(e.idx[lo:hi]), slices.Clone(e.val[lo:hi])})
	}
	return out
}

// checkRefactorOracle rebuilds s's current basis with refactor and with
// refactorDense and fails unless both succeed or both fail, and on success
// agree on the row relabelling and, entry for entry and bit for bit, on the
// eta file once the dense file's identity etas are left out. s is left
// holding the sparse rebuild (or, after a failure, the basis it started
// from).
func checkRefactorOracle(t *testing.T, s *BoundedSolver) {
	t.Helper()
	basic, pos := slices.Clone(s.basic), slices.Clone(s.pos)
	errDense := s.refactorDense()
	dense, denseBasic := etasOf(&s.etas, true), slices.Clone(s.basic)
	copy(s.basic, basic)
	copy(s.pos, pos)
	errSparse := s.refactor()
	if (errSparse == nil) != (errDense == nil) {
		t.Fatalf("sparse refactor: %v, dense: %v", errSparse, errDense)
	}
	if errSparse != nil {
		copy(s.basic, basic)
		copy(s.pos, pos)
		return
	}
	if !slices.Equal(s.basic, denseBasic) {
		t.Fatalf("sparse rebuild relabels the basis %v, dense %v", s.basic, denseBasic)
	}
	sparse := etasOf(&s.etas, false)
	if len(sparse) != len(dense) {
		t.Fatalf("sparse file holds %d etas, dense %d non-identity", len(sparse), len(dense))
	}
	for k := range sparse {
		a, b := sparse[k], dense[k]
		if a.row != b.row || a.piv != b.piv || !slices.Equal(a.idx, b.idx) || !slices.Equal(a.val, b.val) {
			t.Fatalf("eta %d: sparse %+v, dense %+v", k, a, b)
		}
	}
	if s.etaBase != len(sparse) {
		t.Fatalf("etaBase %d after a rebuild of %d etas", s.etaBase, len(sparse))
	}
}

// swapIntoBasis makes nonbasic column col basic in row r, dropping the
// column basic there; it reports false, changing nothing, when col is
// already basic.
func swapIntoBasis(s *BoundedSolver, col, r int) bool {
	if s.pos[col] >= 0 {
		return false
	}
	s.pos[s.basic[r]] = -1
	s.basic[r] = int32(col)
	s.pos[col] = int32(r)
	return true
}

// FuzzRefactor checks the sparse refactorisation against refactorDense on
// the all-slack basis of a decodeLP problem and after each of a sequence of
// basis swaps (byte pairs: a column, then a row). Singular bases must fail
// in both. `go test` runs the seeds in testdata/fuzz/FuzzRefactor.
func FuzzRefactor(f *testing.F) {
	f.Fuzz(func(t *testing.T, lpData, swaps []byte) {
		p := decodeLP(lpData)
		if len(p.Rows) == 0 {
			return
		}
		s, err := NewBoundedSolver(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s.setBounds(nil, nil)
		s.loadBasis(nil)
		checkRefactorOracle(t, s)
		for i := 0; i+1 < len(swaps); i += 2 {
			if swapIntoBasis(s, int(swaps[i])%s.nTot, int(swaps[i+1])%s.m) {
				checkRefactorOracle(t, s)
			}
		}
	})
}

// TestRefactorMatchesDense runs the refactorisation oracle on bases the
// decodeLP family is too small to reach: the optimal basis of
// selection-shaped LPs with hundreds of rows (fill, bumps and relabelling
// included), then that basis after random structural swaps.
func TestRefactorMatchesDense(t *testing.T) {
	for seed := int64(29); seed < 32; seed++ {
		p := selectionShaped(30, 4, seed)
		s, err := NewBoundedSolver(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol, _, err := solveBounds(s, nil, nil, nil); err != nil || sol.Status != Optimal {
			t.Fatalf("seed %d: status %v, err %v", seed, sol.Status, err)
		}
		checkRefactorOracle(t, s)
		rng := rand.New(rand.NewSource(seed))
		for swap := 0; swap < 40; swap++ {
			if swapIntoBasis(s, rng.Intn(s.n), rng.Intn(s.m)) {
				checkRefactorOracle(t, s)
			}
		}
	}
}

// TestPhase2DualsMatchFresh pins the phase-2 dual update: at every pricing
// pass of a cold solve the duals carried by y += (d_q/α_q)·ρ agree with a
// fresh BTRAN of c_B to 1e-9 relative, and the pass that returns Optimal
// priced on fresh duals.
func TestPhase2DualsMatchFresh(t *testing.T) {
	for seed := int64(29); seed < 32; seed++ {
		p := selectionShaped(60, 4, seed)
		s, err := NewBoundedSolver(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fresh := make([]float64, s.m)
		updated, lastFresh := 0, false
		s.onPrice = func(yFresh bool) {
			lastFresh = yFresh
			if yFresh {
				return
			}
			updated++
			for r := range fresh {
				fresh[r] = s.c[s.basic[r]]
			}
			s.etas.btran(fresh)
			for r, f := range fresh {
				if d := math.Abs(s.y[r] - f); d > 1e-9*math.Max(1, math.Abs(f)) {
					t.Fatalf("seed %d: updated y[%d] = %v, fresh %v", seed, r, s.y[r], f)
				}
			}
		}
		sol, _, err := solveBounds(s, nil, nil, nil)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("seed %d: status %v, err %v", seed, sol.Status, err)
		}
		if !lastFresh {
			t.Fatalf("seed %d: Optimal declared on updated duals", seed)
		}
		if updated == 0 {
			t.Fatalf("seed %d: phase 2 never priced on updated duals", seed)
		}
	}
}

// TestWarmStartRefactorsByUpdateCount pins the dual simplex's refactor
// threshold and pivot count. A warm re-solve with ten bounds tightened runs
// dual pivots only (phase 2 confirms on its first pass), so every iteration
// but the two verdicts is a pivot that lp.pivots must count, and the file
// may be rebuilt only once up front plus once per refactorEvery updates —
// not on every pivot, as when the threshold counted the etas the rebuild
// itself leaves.
func TestWarmStartRefactorsByUpdateCount(t *testing.T) {
	// m = 262, 532 and 802. Identity etas are not stored, so only the
	// largest rebuild leaves more than refactorEvery etas (128) and would
	// refactorise on every pivot under a whole-file threshold; the others
	// pin the counts.
	for _, nets := range []int{30, 60, 90} {
		p := selectionShaped(nets, 4, 29)
		tr := obs.New(&obs.Collector{})
		s, err := NewBoundedSolver(p, Options{Obs: tr})
		if err != nil {
			t.Fatal(err)
		}
		cold, basis, err := solveBounds(s, nil, nil, nil)
		if err != nil || cold.Status != Optimal {
			t.Fatalf("nets=%d: cold status %v, err %v", nets, cold.Status, err)
		}
		// Fix the ten largest assignment columns of the optimum at zero.
		assign := make([]int, nets*4)
		for j := range assign {
			assign[j] = j
		}
		slices.SortStableFunc(assign, func(a, b int) int { return cmp.Compare(cold.X[b], cold.X[a]) })
		up := slices.Clone(p.Upper)
		for _, j := range assign[:10] {
			up[j] = 0
		}

		pivots, refactors := tr.Counter("lp.pivots"), tr.Counter("lp.refactors")
		p0, r0 := pivots.Value(), refactors.Value()
		passes := 0
		s.onPrice = func(bool) { passes++ }
		warm, _, err := solveBounds(s, nil, up, basis)
		if err != nil || warm.Status != Optimal {
			t.Fatalf("nets=%d: warm status %v, err %v", nets, warm.Status, err)
		}
		dp, dr := pivots.Value()-p0, refactors.Value()-r0
		t.Logf("nets=%d m=%d: %d iterations, %d pivots, %d refactors", nets, s.m, warm.Iterations, dp, dr)
		if passes != 1 {
			t.Fatalf("nets=%d: phase 2 priced %d times after the dual simplex, want 1", nets, passes)
		}
		if dp == 0 || dp != int64(warm.Iterations-2) {
			t.Fatalf("nets=%d: lp.pivots %d over %d iterations, want iterations-2 > 0", nets, dp, warm.Iterations)
		}
		if limit := 1 + (dp+refactorEvery-1)/refactorEvery; dr > limit {
			t.Fatalf("nets=%d: %d refactors for %d dual pivots, want <= %d", nets, dr, dp, limit)
		}

		s.onPrice = nil
		ref, _, err := solveBounds(s, nil, up, nil)
		if err != nil || ref.Status != Optimal || math.Abs(ref.Objective-warm.Objective) > 1e-6 {
			t.Fatalf("nets=%d: cold re-solve %v %v (%v), warm objective %v",
				nets, ref.Status, ref.Objective, err, warm.Objective)
		}
	}
}
