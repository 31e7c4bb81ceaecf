package selection

import (
	"context"
	"fmt"
	"math"
	"time"

	"operon/internal/geom"
	"operon/internal/ilp"
	"operon/internal/lp"
	"operon/internal/obs"
	"operon/internal/parallel"
)

// ILPOptions tunes the exact solver.
type ILPOptions struct {
	// Ctx, when non-nil, bounds the solve: the branch-and-bound node loop
	// and the LP relaxations underneath observe it, and on cancellation or
	// deadline SolveILP returns the best incumbent (or a repaired greedy
	// selection) with TimedOut set instead of erroring. Nil means
	// context.Background().
	Ctx context.Context
	// MaxNodes bounds branch-and-bound nodes; zero = library default.
	MaxNodes int
	// MaxTableauBytes caps the LP tableau memory (zero = library default).
	MaxTableauBytes int64
	// Workers sets the parallelism of the branch-and-bound search (zero =
	// one per CPU, 1 = serial). The search is deterministic at any value —
	// see package ilp for the contract.
	Workers int
	// Arena, when non-nil, supplies per-worker solver scratch reused across
	// solves; it must not be shared by concurrent SolveILP calls.
	Arena *parallel.Arena
	// Obs, when non-nil, receives a selection/ilp span plus the branch-and-
	// bound node events and LP counters of the underlying solvers.
	Obs *obs.Tracer
}

// ILPResult is the outcome of SolveILP.
type ILPResult struct {
	Selection
	// Status is the branch-and-bound outcome (Optimal, Feasible, Limit).
	Status ilp.Status
	// TimedOut reports that a budget (context deadline or MaxNodes)
	// stopped the search before optimality.
	TimedOut bool
	// Elapsed is the wall-clock time of the solve, repair included.
	Elapsed time.Duration
	// Nodes counts branch-and-bound nodes explored.
	Nodes int
	// LPSolves counts LP relaxations solved across the branch-and-bound
	// tree (warm-started after the root).
	LPSolves int
	// LPTime is the wall clock spent inside the LP engine.
	LPTime time.Duration
	// NumVars and NumRows describe the built programme (after the
	// bounding-box speed-up of §3.3).
	NumVars, NumRows int
}

// SolveILP builds the mathematical programme of Formula (3) — one binary
// per candidate, an assignment equality per net, a detection constraint per
// optical path — with the quadratic crossing terms linearised exactly
// (y >= a_ij + a_mn − 1), and solves it by branch and bound. Crossing
// variables between hyper nets with non-overlapping bounding boxes are
// omitted, the paper's §3.3 speed-up.
//
// On timeout without a provably optimal solution, the best incumbent (or a
// repaired greedy selection when none exists) is returned with TimedOut set.
func SolveILP(inst *Instance, opt ILPOptions) (ILPResult, error) {
	start := time.Now()
	prob, varOf := buildProgram(inst)
	res := ILPResult{NumVars: prob.LP.NumVars, NumRows: len(prob.LP.Rows)}

	sp := opt.Obs.Span("selection/ilp", obs.LaneFlow,
		obs.I("vars", res.NumVars), obs.I("rows", res.NumRows))
	ir, err := ilp.Solve(prob, ilp.Options{
		Ctx:             opt.Ctx,
		MaxNodes:        opt.MaxNodes,
		MaxTableauBytes: opt.MaxTableauBytes,
		Workers:         opt.Workers,
		Arena:           opt.Arena,
		Obs:             opt.Obs,
	})
	sp.End(obs.I("nodes", ir.Nodes), obs.S("status", ir.Status.String()))
	if err != nil {
		return ILPResult{}, err
	}
	res.Status = ir.Status
	res.TimedOut = ir.TimedOut
	res.Nodes = ir.Nodes
	res.LPSolves = ir.LPSolves
	res.LPTime = ir.LPTime

	switch ir.Status {
	case ilp.Optimal, ilp.Feasible:
		choice := make([]int, len(inst.Nets))
		for i, n := range inst.Nets {
			best, bestV := n.ElectricalIndex(), 0.0
			for j := range n.Cands {
				if v := ir.X[varOf[i][j]]; v > bestV {
					best, bestV = j, v
				}
			}
			choice[i] = best
		}
		sel, err := inst.Evaluate(choice)
		if err != nil {
			return ILPResult{}, err
		}
		sel, err = inst.Repair(sel)
		if err != nil {
			return ILPResult{}, err
		}
		res.Selection = sel
	case ilp.Infeasible:
		return ILPResult{}, fmt.Errorf("selection: ILP infeasible despite electrical fallbacks")
	default:
		// No incumbent before the limit: fall back to a repaired greedy
		// selection so callers always get a legal design.
		sel, err := inst.GreedyIndependent()
		if err != nil {
			return ILPResult{}, err
		}
		res.Selection = sel
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// buildProgram constructs the linearised 0-1 programme of Formula (3) for
// the instance, returning it with the (net, candidate) → variable map.
func buildProgram(inst *Instance) (ilp.Problem, [][]int) {
	// Variable layout: one binary per (net, candidate), then one continuous
	// y per interacting candidate pair with non-zero crossing loss.
	varOf := make([][]int, len(inst.Nets))
	nv := 0
	for i, n := range inst.Nets {
		varOf[i] = make([]int, len(n.Cands))
		for j := range n.Cands {
			varOf[i][j] = nv
			nv++
		}
	}
	var obj []float64
	for _, n := range inst.Nets {
		for _, c := range n.Cands {
			obj = append(obj, c.PowerMW)
		}
	}
	var rows []lp.Row
	binary := make([]int, 0, nv)
	for i, n := range inst.Nets {
		row := lp.Row{Sense: lp.EQ, RHS: 1}
		for j := range n.Cands {
			row.Terms = append(row.Terms, lp.Term{Var: varOf[i][j], Coeff: 1})
			binary = append(binary, varOf[i][j])
		}
		rows = append(rows, row)
	}

	// Pair variables y_{ij,mn}, created on demand.
	pairVar := map[pairKey]int{}
	getPair := func(i, j, m, n int) int {
		// Canonical orientation: y is shared by both directions of the pair.
		k := pairKey{i, j, m, n}
		if i > m {
			k = pairKey{m, n, i, j}
		}
		if v, ok := pairVar[k]; ok {
			return v
		}
		v := len(obj)
		obj = append(obj, 0)
		pairVar[k] = v
		// y >= a_ij + a_mn − 1  ⇔  y − a_ij − a_mn >= −1.
		rows = append(rows, lp.Row{
			Terms: []lp.Term{
				{Var: v, Coeff: 1},
				{Var: varOf[k.i][k.j], Coeff: -1},
				{Var: varOf[k.m][k.n], Coeff: -1},
			},
			Sense: lp.GE, RHS: -1,
		})
		return v
	}

	// Detection constraint per optical path of every candidate.
	for i, n := range inst.Nets {
		inter := inst.InteractingNets(i)
		for j, c := range n.Cands {
			for p, path := range c.Paths {
				row := lp.Row{Sense: lp.LE, RHS: inst.Lib.MaxLossDB}
				row.Terms = append(row.Terms, lp.Term{
					Var: varOf[i][j], Coeff: path.FixedLossDB,
				})
				for _, m := range inter {
					for nn := range inst.Nets[m].Cands {
						lx := inst.CrossLossDB(i, j, m, nn)[p]
						if lx <= geom.Eps {
							continue
						}
						row.Terms = append(row.Terms, lp.Term{
							Var: getPair(i, j, m, nn), Coeff: lx,
						})
					}
				}
				if len(row.Terms) == 1 && path.FixedLossDB <= inst.Lib.MaxLossDB {
					continue // trivially satisfied, skip the row
				}
				rows = append(rows, row)
			}
		}
	}

	// Binary bounds ride natively on the variables (0 <= a <= 1) so the
	// revised simplex handles them in the ratio test; no x <= 1 rows are
	// ever materialised, here or per branch-and-bound node.
	upper := make([]float64, len(obj))
	for i := range upper {
		upper[i] = math.Inf(1)
	}
	for _, v := range binary {
		upper[v] = 1
	}
	return ilp.Problem{
		LP:     lp.Problem{NumVars: len(obj), Objective: obj, Rows: rows, Upper: upper},
		Binary: binary,
	}, varOf
}
