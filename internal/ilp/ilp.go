// Package ilp solves mixed 0-1 integer linear programmes with best-first
// branch and bound over the revised-simplex relaxation in internal/lp. It
// is the stand-in for the commercial ILP solver of the paper's §3.3; like
// the paper's experiments it supports a wall-clock time limit and reports
// whether the limit was hit (the paper's ">3000 s" entries).
//
// Branching never touches the constraint rows: a node tightens one binary
// variable's bounds (x fixed to 0 or 1), stored as a persistent diff chain
// back to the root, and each child re-solves from its parent's optimal
// basis via the solver's dual-simplex warm start. The row set is therefore
// invariant across the whole tree — a property the tests assert.
//
// The search is serial and deterministic: one decision loop expands nodes
// in strict (bound, node-id) order and solves every relaxation inline.
// Node ids are assigned at creation, so the explored tree, the Result and
// every counter and event are a function of the problem alone. The first
// popped node whose bound cannot beat the incumbent proves optimality and
// ends the search; Result.Nodes counts only solved relaxations, so it
// equals the ilp.nodes counter and the number of ilp/node events.
package ilp

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"operon/internal/lp"
	"operon/internal/obs"
)

// Problem is a linear programme plus a set of variables restricted to {0,1}.
type Problem struct {
	// LP is the underlying relaxation; its Upper bounds must already cap the
	// binary variables at 1 (buildProgram does).
	LP lp.Problem
	// Binary lists variable indices constrained to {0,1}. Variables not
	// listed remain continuous and non-negative.
	Binary []int
}

// Validate checks structural consistency.
func (p Problem) Validate() error {
	if err := p.LP.Validate(); err != nil {
		return err
	}
	seen := map[int]bool{}
	for _, v := range p.Binary {
		if v < 0 || v >= p.LP.NumVars {
			return fmt.Errorf("ilp: binary variable %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("ilp: binary variable %d listed twice", v)
		}
		seen[v] = true
	}
	return nil
}

// Options tunes the search.
type Options struct {
	// MaxNodes bounds the number of branch-and-bound nodes solved, root
	// included; zero means 200000.
	MaxNodes int
	// MaxTableauBytes caps the LP solver workspace (zero = lp default). An
	// oversized relaxation ends the solve before any LP is solved, with
	// status Limit and TimedOut set.
	MaxTableauBytes int64
	// Obs, when non-nil, receives an ilp/node event per branch-and-bound
	// node (depth, bound, warm-start pivot count), an ilp/incumbent event
	// per incumbent improvement, the ilp.nodes / ilp.incumbents counters,
	// the ilp.basis_reuse pool diagnostic, and the lp.* counters of the
	// relaxation engine underneath.
	Obs *obs.Tracer
}

// Status describes the outcome.
type Status int

const (
	// Optimal means the incumbent is proven optimal.
	Optimal Status = iota
	// Feasible means a feasible integer solution was found but optimality
	// was not proven before a limit was reached.
	Feasible
	// Infeasible means no integer solution exists.
	Infeasible
	// Limit means a limit was reached with no incumbent.
	Limit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	default:
		return "limit"
	}
}

// Result is the outcome of Solve.
type Result struct {
	// Status classifies the solve: Optimal, Feasible (incumbent under a
	// limit), Infeasible, or Limit (no incumbent before a budget ran out).
	Status Status
	// X is the best integral assignment found (length LP.NumVars); only
	// meaningful for Optimal and Feasible.
	X []float64
	// Objective is the objective value of X.
	Objective float64
	// Nodes counts branch-and-bound nodes whose relaxation was solved, root
	// included. It equals the ilp.nodes counter and the number of ilp/node
	// events, and never exceeds MaxNodes.
	Nodes int
	// Elapsed is the wall-clock time of the solve.
	Elapsed time.Duration
	// TimedOut reports that a budget — the context deadline or MaxNodes —
	// stopped the search before optimality.
	TimedOut bool
	// LPSolves counts LP relaxations solved (root, nodes, rounding
	// heuristics, and the cold retry after a numerical failure).
	LPSolves int
	// LPTime is the part of Elapsed spent inside the LP solver.
	LPTime time.Duration
}

const intTol = 1e-6

// nodeDepth counts the bound tightenings between nd and the root — the
// node's depth in the branch-and-bound tree.
func nodeDepth(nd *bnode) int {
	d := 0
	for c := nd; c != nil; c = c.parent {
		if c.v >= 0 {
			d++
		}
	}
	return d
}

// bnode is one branch-and-bound node: a single bound tightening relative
// to its parent (a persistent diff chain back to the root) plus the
// parent's optimal basis for the dual-simplex warm start.
type bnode struct {
	id     uint64  // creation order; ties in bound break toward lower id
	bound  float64 // parent relaxation objective: lower bound for the subtree
	v      int     // variable whose bounds this node tightens
	lo, up float64
	parent *bnode
	basis  *basisRef // parent's optimal basis (shared by both children)
}

// basisRef wraps a basis snapshot with a reference count so the search can
// recycle the snapshot's slices once every holder (the creating node plus
// its two children) has consumed it. Steady-state branch and bound then
// keeps a small free pool of bases instead of allocating one per node.
type basisRef struct {
	b    lp.Basis
	refs int
}

// nodeQueue orders nodes by (bound, id): best lower bound first, creation
// order on ties. The id tiebreak makes extraction — and therefore the
// whole explored tree — independent of heap internals.
type nodeQueue []*bnode

func (q nodeQueue) Len() int { return len(q) }
func (q nodeQueue) Less(i, j int) bool {
	if q[i].bound != q[j].bound {
		return q[i].bound < q[j].bound
	}
	return q[i].id < q[j].id
}
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*bnode)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// search carries the state of one branch-and-bound run.
type search struct {
	p        Problem
	opt      Options
	ctx      context.Context
	deadline time.Time
	maxNodes int

	solver *lp.BoundedSolver
	res    Result

	rootUp            []float64 // root lower bounds are all 0
	lo, up            []float64 // bound scratch of the node being solved
	savedLo, savedUp  []float64
	nodeSol, roundSol *lp.Solution
	roundBasis        lp.Basis
	incumbent         []float64

	cNodes, cIncumbents, cBasisReuse *obs.Counter

	pq        nodeQueue // frontier
	nextID    uint64
	basisFree []*basisRef
}

// Solve runs serial best-first branch and bound on p under ctx: the node
// loop polls it once per branch-and-bound node and the LP relaxations
// underneath poll it every few pivots. Cancellation or an expired deadline
// ends the solve with TimedOut set, returning the best incumbent found so
// far (the paper's ">3000 s" semantics). A nil ctx means context.Background().
func Solve(ctx context.Context, p Problem, opt Options) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	maxNodes := opt.MaxNodes
	if maxNodes == 0 {
		maxNodes = 200000
	}
	// One time-budget mechanism: the context. The node loop and every LP
	// relaxation underneath observe the same deadline.
	ctx, deadline := lp.ResolveBudget(ctx)

	// Root bounds: binaries capped at 1, continuous variables keep the
	// problem bounds.
	n := p.LP.NumVars
	fullUp := make([]float64, n)
	for i := range fullUp {
		if p.LP.Upper != nil {
			fullUp[i] = p.LP.Upper[i]
		} else {
			fullUp[i] = math.Inf(1)
		}
	}
	for _, v := range p.Binary {
		if fullUp[v] > 1 {
			fullUp[v] = 1
		}
	}
	solver, err := lp.NewBoundedSolver(p.LP,
		lp.Options{MaxTableauBytes: opt.MaxTableauBytes, Obs: opt.Obs})
	if errors.Is(err, lp.ErrTooLarge) {
		// The relaxation alone exceeds the memory budget; report a limit so
		// callers fall back, mirroring the paper's ">3000 s" outcomes.
		return Result{Status: Limit, Objective: math.Inf(1), TimedOut: true,
			Elapsed: time.Since(start)}, nil
	}
	if err != nil {
		return Result{}, err
	}

	s := &search{
		p:        p,
		opt:      opt,
		ctx:      ctx,
		deadline: deadline,
		maxNodes: maxNodes,
		solver:   solver,
		res:      Result{Status: Limit, Objective: math.Inf(1)},
		rootUp:   fullUp,
		lo:       make([]float64, n),
		up:       make([]float64, n),
		savedLo:  make([]float64, n),
		savedUp:  make([]float64, n),
		nodeSol:  &lp.Solution{},
		roundSol: &lp.Solution{},

		cNodes:      opt.Obs.Counter("ilp.nodes"),
		cIncumbents: opt.Obs.Counter("ilp.incumbents"),
		cBasisReuse: opt.Obs.Counter("ilp.basis_reuse"),
	}

	if err := s.run(); err != nil {
		return Result{}, err
	}
	res := s.res
	if s.incumbent != nil {
		res.X = append([]float64(nil), s.incumbent...)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// materialize rebuilds the bound scratch for nd from the diff chain. Diffs
// along a root path touch distinct variables (a fixed binary is never
// branched again), so application order is irrelevant.
func (s *search) materialize(nd *bnode) {
	clear(s.lo)
	copy(s.up, s.rootUp)
	for c := nd; c != nil; c = c.parent {
		if c.v >= 0 {
			s.lo[c.v], s.up[c.v] = c.lo, c.up
		}
	}
}

// relax solves the current bound scratch, retrying cold once when a warm
// basis is numerically hopeless.
func (s *search) relax(warm *lp.Basis, sol *lp.Solution, out *lp.Basis) error {
	t0 := time.Now()
	err := s.solver.SolveBounds(s.ctx, s.lo, s.up, warm, sol, out)
	s.res.LPSolves++
	if warm != nil && errors.Is(err, lp.ErrNumerical) {
		err = s.solver.SolveBounds(s.ctx, s.lo, s.up, nil, sol, out)
		s.res.LPSolves++
	}
	s.res.LPTime += time.Since(t0)
	return err
}

// Basis snapshots are pooled: a node's snapshot is held by the node itself
// plus its two children, and returns to the free pool once all three
// release it.
func (s *search) newBasisRef() *basisRef {
	if n := len(s.basisFree); n > 0 {
		br := s.basisFree[n-1]
		s.basisFree = s.basisFree[:n-1]
		br.refs = 1
		s.cBasisReuse.Inc()
		return br
	}
	return &basisRef{refs: 1}
}

func (s *search) release(br *basisRef) {
	if br.refs--; br.refs == 0 {
		s.basisFree = append(s.basisFree, br)
	}
}

// record installs a new incumbent when obj improves on the current one.
func (s *search) record(x []float64, obj float64) {
	if obj >= s.res.Objective-1e-9 {
		return
	}
	s.incumbent = append(s.incumbent[:0], x...)
	s.res.Objective = obj
	s.cIncumbents.Inc()
	if s.opt.Obs != nil {
		s.opt.Obs.Event("ilp/incumbent", obs.LaneFlow,
			obs.I("node", s.res.Nodes), obs.F("objective", obj))
	}
}

// fractionalVar returns the most fractional unfixed binary under the
// current bound scratch, or -1 when x is integral on all binaries.
func (s *search) fractionalVar(x []float64) int {
	branchVar, frac := -1, 0.0
	for _, v := range s.p.Binary {
		if s.lo[v] == s.up[v] {
			continue
		}
		f := math.Abs(x[v] - math.Round(x[v]))
		if f > intTol && f > frac {
			frac = f
			branchVar = v
		}
	}
	return branchVar
}

// tryRound fixes every binary to its rounded relaxation value and
// re-solves (warm-started); a feasible result seeds or improves the
// incumbent. The current lo/up scratch is saved and restored.
func (s *search) tryRound(x []float64, warm *lp.Basis) error {
	copy(s.savedLo, s.lo)
	copy(s.savedUp, s.up)
	for _, v := range s.p.Binary {
		if x[v] >= 0.5 {
			s.lo[v], s.up[v] = 1, 1
		} else {
			s.lo[v], s.up[v] = 0, 0
		}
	}
	err := s.relax(warm, s.roundSol, &s.roundBasis)
	copy(s.lo, s.savedLo)
	copy(s.up, s.savedUp)
	if err == nil && s.roundSol.Status == lp.Optimal {
		s.record(s.roundSol.X, s.roundSol.Objective)
	}
	return err
}

// countNode accounts for one solved relaxation: the Nodes total, the
// ilp.nodes counter and the ilp/node event move together.
func (s *search) countNode(depth int, sol *lp.Solution, bound float64) {
	s.res.Nodes++
	s.cNodes.Inc()
	if s.opt.Obs == nil {
		return
	}
	s.opt.Obs.Event("ilp/node", obs.LaneFlow,
		obs.I("node", s.res.Nodes), obs.I("depth", depth),
		obs.F("bound", bound), obs.I("pivots", sol.Iterations),
		obs.S("status", sol.Status.String()))
}

// pushChildren creates both children of a branching, assigns their node
// ids, and pushes them onto the frontier.
func (s *search) pushChildren(parent *bnode, sol *lp.Solution, br *basisRef, branchVar int) {
	r := math.Round(sol.X[branchVar])
	br.refs += 2
	for _, val := range []float64{r, 1 - r} {
		s.nextID++
		heap.Push(&s.pq, &bnode{
			id:     s.nextID,
			bound:  sol.Objective,
			v:      branchVar,
			lo:     val,
			up:     val,
			parent: parent,
			basis:  br,
		})
	}
}

// processNode solves one popped node warm-started from its parent's basis
// and expands it. It returns stop=true when a resource limit ends the
// whole search.
func (s *search) processNode(nd *bnode) (stop bool, err error) {
	s.materialize(nd)
	childRef := s.newBasisRef()
	defer s.release(childRef)
	err = s.relax(&nd.basis.b, s.nodeSol, &childRef.b)
	s.release(nd.basis) // warm start consumed
	if err != nil {
		return false, err
	}
	sol := s.nodeSol
	bound := nd.bound
	if sol.Status == lp.Optimal {
		bound = sol.Objective
	}
	s.countNode(nodeDepth(nd), sol, bound)
	switch {
	case sol.Status == lp.IterLimit:
		// The budget expired inside the relaxation: the subtree is
		// unexplored, so optimality is no longer provable.
		s.res.TimedOut = true
		return true, nil
	case sol.Status != lp.Optimal, sol.Objective >= s.res.Objective-1e-9:
		return false, nil // infeasible or pruned subtree
	}
	branchVar := s.fractionalVar(sol.X)
	if branchVar < 0 {
		s.record(sol.X, sol.Objective) // integral: incumbent
		return false, nil
	}
	if s.incumbent == nil {
		if err := s.tryRound(sol.X, &childRef.b); err != nil {
			return false, err
		}
	}
	s.pushChildren(nd, sol, childRef, branchVar)
	return false, nil
}

// run solves the root relaxation and then runs the decision loop, which
// expands nodes in (bound, id) order until the frontier is empty, its best
// bound cannot beat the incumbent, or a budget runs out.
func (s *search) run() error {
	clear(s.lo)
	copy(s.up, s.rootUp)
	rootRef := s.newBasisRef()
	if err := s.relax(nil, s.nodeSol, &rootRef.b); err != nil {
		return err
	}
	s.countNode(0, s.nodeSol, s.nodeSol.Objective)
	switch s.nodeSol.Status {
	case lp.Infeasible:
		s.res.Status = Infeasible
		return nil
	case lp.Unbounded:
		return errors.New("ilp: relaxation unbounded")
	case lp.IterLimit:
		s.res.TimedOut = true
		return nil
	}

	rootBranch := s.fractionalVar(s.nodeSol.X)
	if rootBranch < 0 {
		// Integral root: proven optimal without branching.
		s.record(s.nodeSol.X, s.nodeSol.Objective)
		s.res.Status = Optimal
		return nil
	}
	// Round the root relaxation immediately so even a solve that hits its
	// limit before the first branch completes reports an incumbent when
	// one is that easy to find (affects how ">limit" rows are reported).
	if err := s.tryRound(s.nodeSol.X, &rootRef.b); err != nil {
		return err
	}

	s.pushChildren(nil, s.nodeSol, rootRef, rootBranch)
	s.release(rootRef)

	// Best-first order: once the best frontier bound cannot beat the
	// incumbent, no remaining node can, and the incumbent is optimal.
	for s.pq.Len() > 0 && s.pq[0].bound < s.res.Objective-1e-9 {
		if s.res.Nodes >= s.maxNodes || lp.BudgetExpired(s.ctx, s.deadline) {
			s.res.TimedOut = true
			break
		}
		stop, err := s.processNode(heap.Pop(&s.pq).(*bnode))
		if err != nil {
			return err
		}
		if stop {
			break
		}
	}

	switch {
	case s.incumbent != nil && s.res.TimedOut:
		s.res.Status = Feasible
	case s.incumbent != nil:
		s.res.Status = Optimal
	case !s.res.TimedOut:
		s.res.Status = Infeasible
	} // otherwise Limit: a budget ran out before any integral solution
	return nil
}
