package lp

import "math"

// dualFeasible reports whether every nonbasic column's reduced cost under
// the problem objective is sign-compatible with the bound it rests at
// (rc >= 0 at lower, rc <= 0 at upper) — the precondition for dual simplex.
func (s *BoundedSolver) dualFeasible() bool {
	s.freshDuals()
	for j := 0; j < s.nTot; j++ {
		if s.pos[j] >= 0 || s.lo[j] == s.up[j] {
			continue
		}
		rc := s.c[j] - s.A.dot(s.y, j)
		if s.atUp[j] {
			if rc > dualTol {
				return false
			}
		} else if rc < -dualTol {
			return false
		}
	}
	return true
}

// dualSimplex restores primal feasibility from a dual-feasible basis —
// the warm-start path of branch and bound, where a child node re-solves
// the parent's optimal basis under tightened variable bounds. Each pivot
// drives the most-violating basic variable to its violated bound, choosing
// the entering column by the dual ratio test (minimum |rc|/|α|, preserving
// dual feasibility). Returns (Optimal, true) when primal feasible,
// (Infeasible, true) when a violated row admits no entering column (the
// Farkas certificate of an empty feasible region), (IterLimit, true) on
// budget exhaustion, or ok=false to bail to the cold primal path on
// numerical trouble.
func (s *BoundedSolver) dualSimplex() (Status, bool) {
	badPivots := 0
	for {
		if s.expired() {
			return IterLimit, true
		}
		// Leaving row: largest bound violation.
		leave := -1
		worst := bndTol
		above := false
		for r := 0; r < s.m; r++ {
			j := s.basic[r]
			if v := s.xB[r] - s.up[j]; v > worst {
				worst = v
				leave = r
				above = true
			}
			if v := s.lo[j] - s.xB[r]; v > worst {
				worst = v
				leave = r
				above = false
			}
		}
		if leave < 0 {
			return Optimal, true
		}
		lv := s.basic[leave]

		// rho = row `leave` of B⁻¹; y = simplex multipliers for rc.
		for r := range s.rho {
			s.rho[r] = 0
		}
		s.rho[leave] = 1
		s.etas.btran(s.rho)
		s.freshDuals()

		// Dual ratio test. delta orients the row so the leaving variable
		// moves toward its violated bound.
		delta := 1.0
		if !above {
			delta = -1
		}
		enter := -1
		bestRatio := math.Inf(1)
		for j := 0; j < s.nTot; j++ {
			if s.pos[j] >= 0 || s.lo[j] == s.up[j] {
				continue
			}
			alpha := s.A.dot(s.rho, j)
			da := delta * alpha
			var ok bool
			if s.atUp[j] {
				ok = da < -tol
			} else {
				ok = da > tol
			}
			if !ok {
				continue
			}
			rc := s.c[j] - s.A.dot(s.y, j)
			ratio := math.Abs(rc) / math.Abs(alpha)
			if s.stall >= blandAfter {
				// Bland: first eligible column.
				enter = j
				break
			}
			if ratio < bestRatio-tol || (ratio < bestRatio+tol && (enter < 0 || j < enter)) {
				bestRatio = ratio
				enter = j
			}
		}
		if enter < 0 {
			return Infeasible, true
		}

		d := s.dir
		for i := range d {
			d[i] = 0
		}
		s.A.scatter(d, enter, 1)
		s.etas.ftran(d)
		if math.Abs(d[leave]) < pivTol {
			// Disagreement between rho-based alpha and the FTRANed column:
			// refactorise and retry; bail if it persists.
			badPivots++
			if badPivots > 3 {
				return 0, false
			}
			if err := s.refactor(); err != nil {
				return 0, false
			}
			s.computeXB()
			continue
		}

		var bound float64
		if above {
			bound = s.up[lv]
		} else {
			bound = s.lo[lv]
		}
		tE := (s.xB[leave] - bound) / d[leave]
		for r := 0; r < s.m; r++ {
			if r != leave && d[r] != 0 {
				s.xB[r] -= tE * d[r]
			}
		}
		if err := s.pivot(enter, leave, above, s.valOf(enter)+tE, d); err != nil {
			return 0, false
		}
		if math.Abs(tE) > tol {
			s.stall = 0
		} else {
			s.stall++
		}
	}
}
