package selection

import (
	"context"
	"math"
	"time"

	"operon/internal/geom"
	"operon/internal/obs"
	"operon/internal/parallel"
)

// LROptions tunes the Lagrangian-relaxation solver of §3.4.
type LROptions struct {
	// Ctx, when non-nil, bounds the solve: it is polled at each iteration
	// boundary (never inside the parallel pricing loop, which keeps partial
	// iterations — and with them nondeterminism — impossible). On
	// cancellation the iteration stops early, LRResult.Stopped is set, and
	// the current choice is still evaluated and repaired to legality, so
	// callers always receive a feasible selection. Nil means
	// context.Background().
	Ctx context.Context
	// MaxIters bounds the multiplier-update iterations; the paper stops at
	// 10. Defaults to 10 when zero.
	MaxIters int
	// ConvergeRatio stops the iteration when both the power decrease and
	// the violation decrease fall below this relative ratio. Defaults to
	// 0.01 when zero.
	ConvergeRatio float64
	// StepScale scales the sub-gradient step. Defaults to 1 when zero.
	StepScale float64
	// Workers bounds the per-net parallelism of the pricing and
	// multiplier-update steps (0 = NumCPU). Given fixed multipliers and the
	// previous iteration's selection, nets are independent, so the result
	// is bit-identical for every worker count.
	Workers int
	// Obs, when non-nil, receives a selection/lr span and one lr/iterate
	// event per iteration carrying power, violations, the dual lower bound,
	// the multiplier norm, and the sub-gradient step size.
	Obs *obs.Tracer
}

// LRResult is the outcome of SolveLR.
type LRResult struct {
	Selection
	// Iters counts the multiplier-update iterations actually run.
	Iters int
	// Elapsed is the wall-clock time of the solve, repair included.
	Elapsed time.Duration
	// Stopped reports that LROptions.Ctx was cancelled before the iteration
	// converged or reached MaxIters; the Selection is the repaired best
	// effort at that point (always feasible).
	Stopped bool
	// History records (power, violations) after each iteration.
	History []LRIterate
}

// LRIterate is one iteration's snapshot.
type LRIterate struct {
	// PowerMW is the total power of the iteration's (unrepaired) selection.
	PowerMW float64
	// Violations counts detection-constraint violations in that selection.
	Violations int
	// LowerBoundMW is the linearised Lagrangian dual bound at this
	// iteration's multipliers: the sum of the per-net best pricing weights
	// minus MaxLossDB times the multiplier mass. It is a diagnostic on dual
	// progress — under the Eq. (5) linearisation it lower-bounds the
	// relaxed objective, not the repaired integer optimum.
	LowerBoundMW float64
	// MultiplierNorm is the L2 norm of the full multiplier vector λ at
	// pricing time.
	MultiplierNorm float64
	// Step is the sub-gradient step size used by this iteration's update.
	Step float64
}

// SolveLR runs Algorithm 1 of the paper: Lagrangian multipliers λ_p per
// optical path are initialised proportionally to each net's electrical
// power p_e; every iteration selects, per hyper net, the candidate with the
// best weight — its own power plus λ-weighted propagation/splitting loss
// plus the linearised crossing terms of Eq. (5) computed against the
// previous iteration's selection — then updates the multipliers by a
// sub-gradient step on the detection violations. The final selection is
// repaired to legality (violating nets drop to electrical wires).
func SolveLR(inst *Instance, opt LROptions) (LRResult, error) {
	start := time.Now()
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	maxIters := opt.MaxIters
	if maxIters == 0 {
		maxIters = 10
	}
	ratio := opt.ConvergeRatio
	if ratio == 0 {
		ratio = 0.01
	}
	stepScale := opt.StepScale
	if stepScale == 0 {
		stepScale = 1
	}

	// Multipliers, one per (net, cand, path); initialised proportional to
	// the net's electrical power (Algorithm 1, line 1) normalised by the
	// loss budget so that λ·loss is commensurate with power. The vector is
	// flat — one allocation — addressed through the instance's precomputed
	// (net, cand) path offsets.
	lambda := make([]float64, inst.numPaths)
	for i, n := range inst.Nets {
		ei := n.ElectricalIndex()
		pe := n.Cands[ei].PowerMW
		for j, c := range n.Cands {
			off := inst.pathOff[i][j]
			for p := range c.Paths {
				lambda[off+p] = 0.1 * pe / inst.Lib.MaxLossDB
			}
		}
	}

	// Previous selection a'_ij for the Eq. (5) linearisation; start from
	// the independent greedy choice.
	prev := make([]int, len(inst.Nets))
	for i, n := range inst.Nets {
		best, bestP := 0, n.Cands[0].PowerMW
		for j, c := range n.Cands {
			if c.PowerMW < bestP {
				best, bestP = j, c.PowerMW
			}
		}
		prev[i] = best
	}

	sp := opt.Obs.Span("selection/lr", obs.LaneFlow, obs.I("nets", len(inst.Nets)))
	res := LRResult{}
	prevPower, prevViol := -1.0, -1
	choice := append([]int(nil), prev...)

	// Per-net partial sums for the dual diagnostics, written per index in
	// the parallel pricing loop and reduced sequentially in net order so the
	// reported bound and norm are bit-identical for every worker count.
	bestWArr := make([]float64, len(inst.Nets))
	lamSum := make([]float64, len(inst.Nets))
	lamSq := make([]float64, len(inst.Nets))

	for iter := 0; iter < maxIters; iter++ {
		// Cancellation is observed only here, between iterations: a finished
		// iteration is never partially applied, so a run that completes
		// before its deadline is bit-identical to an unbounded one.
		if ctx.Err() != nil {
			res.Stopped = true
			break
		}
		res.Iters = iter + 1
		// Pricing step: per net, the candidate with the best weight. Nets
		// are independent given the fixed multipliers and the previous
		// iteration's selection, so they are priced in parallel; each
		// worker only writes choice[i] and its own diagnostic slots.
		_ = parallel.ForEach(len(inst.Nets), opt.Workers, func(i int) error {
			n := inst.Nets[i]
			inter := inst.InteractingNets(i)
			var ls, lq float64
			for j, c := range n.Cands {
				off := inst.pathOff[i][j]
				for p := range c.Paths {
					l := lambda[off+p]
					ls += l
					lq += l * l
				}
			}
			lamSum[i], lamSq[i] = ls, lq
			bestJ, bestW := -1, 0.0
			for j, c := range n.Cands {
				w := c.PowerMW
				off := inst.pathOff[i][j]
				// Own paths: λ_p × (propagation + splitting + crossing from
				// the previous selection).
				for p, path := range c.Paths {
					loss := path.FixedLossDB
					for _, m := range inter {
						loss += inst.CrossLossDB(i, j, m, prev[m])[p]
					}
					w += lambda[off+p] * loss
				}
				// Symmetric linearised term: crossing loss this candidate
				// inflicts on the previously selected candidates' paths.
				for _, m := range inter {
					mj := prev[m]
					lx := inst.CrossLossDB(m, mj, i, j)
					moff := inst.pathOff[m][mj]
					for p := range lx {
						w += lambda[moff+p] * lx[p]
					}
				}
				if bestJ < 0 || w < bestW-geom.Eps {
					bestJ, bestW = j, w
				}
			}
			choice[i] = bestJ
			bestWArr[i] = bestW
			return nil
		})
		var sumBestW, sumLam, sumLamSq float64
		for i := range inst.Nets {
			sumBestW += bestWArr[i]
			sumLam += lamSum[i]
			sumLamSq += lamSq[i]
		}
		lowerBound := sumBestW - inst.Lib.MaxLossDB*sumLam
		multNorm := math.Sqrt(sumLamSq)

		// Violation measurement and sub-gradient multiplier update.
		sel, err := inst.Evaluate(choice)
		if err != nil {
			return LRResult{}, err
		}
		step := stepScale / float64(iter+1)
		// The sub-gradient update is likewise independent per net: worker i
		// writes only lambda[i] and reads the now-fixed choice vector.
		_ = parallel.ForEach(len(inst.Nets), opt.Workers, func(i int) error {
			n := inst.Nets[i]
			inter := inst.InteractingNets(i)
			for j, c := range n.Cands {
				selected := choice[i] == j
				off := inst.pathOff[i][j]
				for p, path := range c.Paths {
					var g float64
					if selected {
						loss := path.FixedLossDB
						for _, m := range inter {
							loss += inst.CrossLossDB(i, j, m, choice[m])[p]
						}
						g = loss - inst.Lib.MaxLossDB
					} else {
						// Constraint (3c) reads 0 <= l_m when a_ij = 0.
						g = -inst.Lib.MaxLossDB
					}
					lambda[off+p] += step * g * 0.01 * n.Cands[n.ElectricalIndex()].PowerMW /
						inst.Lib.MaxLossDB
					if lambda[off+p] < 0 {
						lambda[off+p] = 0
					}
				}
			}
			return nil
		})

		res.History = append(res.History, LRIterate{
			PowerMW:        sel.PowerMW,
			Violations:     sel.Violations,
			LowerBoundMW:   lowerBound,
			MultiplierNorm: multNorm,
			Step:           step,
		})
		if opt.Obs != nil {
			opt.Obs.Event("lr/iterate", obs.LaneFlow,
				obs.I("iter", iter+1),
				obs.F("power_mw", sel.PowerMW),
				obs.I("violations", sel.Violations),
				obs.F("lower_bound_mw", lowerBound),
				obs.F("multiplier_norm", multNorm),
				obs.F("step", step))
		}
		copy(prev, choice)

		// Convergence: both power and violations stopped improving.
		if prevPower >= 0 {
			powerImproves := sel.PowerMW < prevPower*(1-ratio)
			violImproves := sel.Violations < prevViol
			if !powerImproves && !violImproves && sel.Violations == 0 {
				break
			}
			if !powerImproves && !violImproves && iter >= 2 {
				break
			}
		}
		prevPower, prevViol = sel.PowerMW, sel.Violations
	}

	sel, err := inst.Evaluate(choice)
	if err != nil {
		return LRResult{}, err
	}
	sel, err = inst.Repair(sel)
	if err != nil {
		return LRResult{}, err
	}
	res.Selection = sel
	res.Elapsed = time.Since(start)
	sp.End(obs.I("iters", res.Iters), obs.I("violations", sel.Violations))
	return res, nil
}
