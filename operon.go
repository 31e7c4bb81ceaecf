// Package operon is a from-scratch reproduction of OPERON (Liu et al.,
// DAC 2018): optical-electrical power-efficient route synthesis for on-chip
// signals.
//
// The flow follows the paper's Fig. 2: signal processing clusters raw
// signal groups into hyper nets with hyper pins (§3.1); optical-electrical
// co-design derives candidate routes per hyper net over BI1S baseline
// topologies (§3.2); a selection stage picks one candidate per net under
// the detection constraints, either exactly by ILP (§3.3) or quickly by
// Lagrangian relaxation (§3.4); finally the optical connections are placed
// on and assigned to shared WDM waveguides by a min-cost max-flow (§4).
//
// Quick start:
//
//	design, _ := benchgen.Generate(spec)      // or build a signal.Design
//	res, err := operon.Run(design, operon.DefaultConfig())
//	fmt.Println(res.PowerMW, res.WDMStats)
//
// The two published baselines are available as RunElectrical (Streak-style
// all-electrical RSMT routing) and RunOptical (GLOW-style all-optical
// routing with electrical fallback on loss violations).
package operon

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"operon/internal/codesign"
	"operon/internal/geom"
	"operon/internal/obs"
	"operon/internal/optics"
	"operon/internal/parallel"
	"operon/internal/power"
	"operon/internal/selection"
	"operon/internal/signal"
	"operon/internal/steiner"
	"operon/internal/wdm"
)

// Mode selects the solution-determination algorithm.
type Mode int

const (
	// ModeLR uses the Lagrangian-relaxation algorithm of §3.4 (fast).
	ModeLR Mode = iota
	// ModeILP uses the exact branch-and-bound ILP of §3.3 (slow, optimal
	// within the time limit).
	ModeILP
	// ModeGreedy selects each net's cheapest candidate independently and
	// repairs violations; a cheap lower baseline used in ablations.
	ModeGreedy
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeILP:
		return "ilp"
	case ModeGreedy:
		return "greedy"
	default:
		return "lr"
	}
}

// Config collects every tunable of the flow. Obtain defaults from
// DefaultConfig and override as needed.
type Config struct {
	// Lib is the optical device and loss library.
	Lib optics.Library
	// Elec is the electrical wire power model.
	Elec power.ElectricalModel
	// PinMergeThresholdCM is the hyper-pin agglomeration distance (§3.1.2).
	PinMergeThresholdCM float64
	// MaxBaselines bounds the baseline topologies per hyper net (§3.2).
	MaxBaselines int
	// SubdivideCM splits baseline edges longer than this before co-design
	// labelling, enabling partial-optical routes and optical relays along
	// long connections (0 disables subdivision).
	SubdivideCM float64
	// MaxCandidates caps the co-design DP option lists.
	MaxCandidates int
	// MaxCandidatesPerNet caps the merged candidate set handed to the
	// selection stage (the electrical fallback always survives). Small
	// caps keep the ILP tractable, as the paper's per-net candidate lists
	// are short (Fig. 5(c) shows four).
	MaxCandidatesPerNet int
	// Mode picks the selection algorithm.
	Mode Mode
	// ILPTimeLimit bounds the ILP solve (the paper used 3000 s) as a
	// context timeout around the exact solver alone; the LR fallback then
	// runs under the caller's context (0 = no limit beyond the context).
	ILPTimeLimit time.Duration
	// ILPMaxNodes bounds branch-and-bound nodes (0 = library default).
	ILPMaxNodes int
	// LR tunes the Lagrangian solver when Mode is ModeLR.
	LR selection.LROptions
	// Seed drives the deterministic clustering.
	Seed int64
	// SkipWDM disables the WDM placement/assignment stage.
	SkipWDM bool
	// Workers bounds the worker pool shared by every parallel stage of the
	// flow — per-group signal processing, baseline construction, candidate
	// generation, Lagrangian pricing, and WDM arc costing (0 = NumCPU).
	// Results are bit-identical regardless of the worker count.
	Workers int
	// Obs, when non-nil, receives the flow's spans, events, and counters:
	// stage spans ("stage/process", ...), per-hyper-net candidate spans on
	// worker lanes, LR iterate events, ILP node events, and the LP/ILP/MCMF/
	// WDM behaviour counters. Nil (the default) compiles the whole
	// instrumentation path down to nil checks — see BenchmarkObsOverhead.
	Obs *obs.Tracer
}

// DefaultConfig returns the paper's experimental setup.
func DefaultConfig() Config {
	return Config{
		Lib:                 optics.DefaultLibrary(),
		Elec:                power.DefaultElectricalModel(),
		PinMergeThresholdCM: 0.1,
		MaxBaselines:        3,
		SubdivideCM:         0.35,
		MaxCandidates:       24,
		MaxCandidatesPerNet: 6,
		Mode:                ModeLR,
		ILPTimeLimit:        60 * time.Second,
	}
}

// StageTimes records per-stage wall-clock durations.
type StageTimes struct {
	// Process is the signal-processing stage (§3.1).
	Process time.Duration
	// Candidates is the co-design candidate generation stage (§3.2).
	Candidates time.Duration
	// Selection is the solution-determination stage (§3.3/§3.4).
	Selection time.Duration
	// WDM is the waveguide placement/assignment stage (§4).
	WDM time.Duration
}

// Total returns the summed stage time.
func (s StageTimes) Total() time.Duration {
	return s.Process + s.Candidates + s.Selection + s.WDM
}

// startStage opens one "stage/..." span on the flow lane and returns its
// stop function. Stopping stores the span's own duration into slot, which
// keeps StageTimes an exact derived view of the recorded spans, and records
// the same duration into the tracer's per-stage latency histogram (so a
// long-lived tracer — a serving process — accumulates stage latency
// distributions across runs, not just the last run's means). With no tracer
// attached it degrades to a plain wall-clock measurement.
func startStage(t *obs.Tracer, name string, slot *time.Duration) func(attrs ...obs.Attr) {
	if t == nil {
		start := time.Now()
		return func(...obs.Attr) { *slot = time.Since(start) }
	}
	sp := t.Span(name, obs.LaneFlow)
	h := t.Histogram(name)
	return func(attrs ...obs.Attr) {
		d := sp.End(attrs...)
		*slot = d
		h.RecordDuration(d)
	}
}

// Result is the outcome of one flow run.
type Result struct {
	// Design echoes the input design's name.
	Design string
	// Flow names the pipeline that produced the result: "operon-lr",
	// "operon-ilp", "electrical", "optical", ...
	Flow string
	// HyperNets is the signal-processing output (§3.1).
	HyperNets []signal.HyperNet
	// Nets holds the candidate lists handed to the selection stage.
	Nets []selection.Net
	// Selection is the chosen candidate per net with its evaluation.
	Selection selection.Selection
	// PowerMW is the total power of the selected routes.
	PowerMW float64
	// ILP carries exact-solver diagnostics when ModeILP ran.
	ILP *selection.ILPResult
	// LR carries Lagrangian diagnostics when ModeLR ran (or when the ILP
	// degraded onto the LR fallback).
	LR *selection.LRResult
	// Connections is the optical connection set extracted from the
	// selection (empty when SkipWDM or no optical connections).
	Connections []wdm.Connection
	// Placement is the §4.2 waveguide placement of Connections.
	Placement wdm.Placement
	// Assignment is the §4.3 wavelength assignment of Connections.
	Assignment wdm.Assignment
	// WDMStats summarises the WDM pipeline (including its Degraded flag).
	WDMStats wdm.Stats
	// Degraded reports that the run hit a time budget (context deadline,
	// cancellation, or ILPTimeLimit) and took a fallback rung
	// of the degradation ladder — LR incumbent instead of a finished ILP,
	// electrical-only routing instead of co-design candidates, or a
	// placement-derived WDM assignment instead of the min-cost flow. The
	// Selection is feasible either way; Degraded only flags that it may be
	// weaker than an unbounded run's.
	Degraded bool
	// StopReason says why a degraded run stopped early: StopDeadline or
	// StopCanceled. StopNone for complete runs.
	StopReason StopReason
	// Times is a derived view of the stage spans: each entry is exactly the
	// duration of the corresponding "stage/..." span recorded on Obs (or a
	// plain wall-clock measurement when no tracer is attached), so
	// Times.Total() equals the sum of the recorded stage spans.
	Times StageTimes
	// Obs echoes Config.Obs so callers holding only the Result can read the
	// counter snapshot of the run; nil when the run was uninstrumented.
	Obs *obs.Tracer
}

// Stats returns the hyper-net statistics of the run (Table 1's #HNet and
// #HPin columns).
func (r *Result) Stats() signal.Stats { return signal.Summarize(r.HyperNets) }

// Run executes the full OPERON flow on a design. It is RunContext with
// context.Background(): no deadline, no cancellation, no degradation.
func Run(d signal.Design, cfg Config) (*Result, error) {
	return RunContext(context.Background(), d, cfg)
}

// RunContext executes the full OPERON flow on a design under a context.
//
// Cancelling ctx (or letting its deadline expire) never errors the run out:
// the flow degrades along a fixed ladder and still returns a feasible
// routing, with Result.Degraded and Result.StopReason recording what
// happened. The rungs, from best to worst:
//
//  1. ILP cut short → the best branch-and-bound incumbent, cross-checked
//     against a Lagrangian-relaxation solve (the cheaper feasible selection
//     wins) — the paper's own ">3000 s" fallback.
//  2. LR cut short → the repaired selection of the last finished iteration.
//  3. Candidate generation cut short → all-electrical RSMT routing for every
//     hyper net (the floor; always feasible, runs even under an expired ctx).
//
// The WDM stage degrades independently: cancelled mid-assignment it falls
// back to the placement-derived wavelength assignment (wdm.Stats.Degraded).
//
// Cancellation is polled only at deterministic points (iteration and node
// boundaries, every few simplex pivots), so a run that completes before its
// deadline is bit-identical to Run on the same inputs. Each degradation
// emits a flow/degraded event and bumps the flow.degraded counter on
// Config.Obs. A nil ctx means context.Background().
func RunContext(ctx context.Context, d signal.Design, cfg Config) (*Result, error) {
	return RunContextWith(ctx, d, cfg, nil)
}

// RunContextWith is RunContext with a caller-held Workspace: the per-worker
// solver scratch survives across runs, so a caller solving many designs (or
// a serving queue slot) amortises candidate-generation allocation to near
// zero. A nil ws uses a run-local workspace (scratch still reused across
// nets within the run). The workspace never affects results — only
// allocation behaviour — and must not be shared by concurrent runs.
func RunContextWith(ctx context.Context, d signal.Design, cfg Config, ws *Workspace) (*Result, error) {
	var st ResolveStats
	res, _, err := solve(ctx, d, cfg, ws, nil, &st)
	return res, err
}

// sessionState holds the stage outputs of one complete solve — everything a
// later solve of an edited design may reuse.
type sessionState struct {
	design     signal.Design
	cfg        Config
	groupHNets [][]signal.HyperNet
	groupStart []int // first net index of each group in the flat net order
	hnets      []signal.HyperNet
	trees      [][]steiner.Tree
	contribs   [][]int // per net, ascending env-contributor net indices
	nets       []selection.Net
	inst       *selection.Instance
	res        *Result
}

// solve is the flow of Fig. 2: validation and signal processing, baseline
// trees and co-design candidates, selection, WDM, and the degradation
// ladder of RunContext. prev is the state of an earlier complete solve, or
// nil for a cold one. Every stage output of prev whose inputs provably did
// not change is carried over instead of recomputed (the reuse matrix of
// DESIGN.md §12); reuse never changes the result, so a solve with prev is
// bit-identical to a cold solve of the same design and config. st counts
// what was reused and what was rebuilt. The returned state is nil when the
// run dropped to the electrical floor.
func solve(ctx context.Context, d signal.Design, cfg Config, ws *Workspace, prev *sessionState, st *ResolveStats) (*Result, *sessionState, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	var delta cfgDelta
	if prev == nil {
		st.Cold = true
	} else {
		delta = diffConfig(prev.cfg, cfg)
	}
	res := &Result{Design: d.Name, Flow: "operon-" + cfg.Mode.String(), Obs: cfg.Obs}

	// Group gi is clean iff prev had an equal group at the same index (the
	// clustering seed is Seed+index, so position matters as much as content).
	stop := startStage(cfg.Obs, "stage/process", &res.Times.Process)
	groupClean := make([]bool, len(d.Groups))
	var prevGroups [][]signal.HyperNet
	if prev != nil && !delta.proc {
		prevGroups = prev.groupHNets
		for gi := range d.Groups {
			groupClean[gi] = gi < len(prev.design.Groups) && groupsEqual(d.Groups[gi], prev.design.Groups[gi])
		}
	}
	groupHNets, hnets, err := process(d, cfg, prevGroups, groupClean)
	if err != nil {
		return nil, nil, err
	}
	res.HyperNets = hnets
	stop(obs.I("hyper_nets", len(hnets)))
	for _, clean := range groupClean {
		if clean {
			st.GroupsReused++
		} else {
			st.GroupsRebuilt++
		}
	}

	next := &sessionState{design: d, cfg: cfg, groupHNets: groupHNets, hnets: hnets}
	var candMap []int
	floored, err := res.candidateStage(ctx, cfg, ws, func() ([]selection.Net, error) {
		var err error
		candMap, err = next.candidates(ctx, cfg, ws, prev, delta, groupClean, st)
		return next.nets, err
	})
	if err != nil {
		return nil, nil, err
	}
	if floored {
		return res, nil, nil
	}

	// The instance is rebuilt (its index bookkeeping is cheap) but seeded
	// with every crossing-loss memo entry whose two nets both carried their
	// candidates over — a pure memo, so seeding cannot change results.
	inst, err := selection.NewInstance(next.nets, cfg.Lib)
	if err != nil {
		return nil, nil, err
	}
	next.inst = inst
	if prev != nil {
		st.CrossCacheSeeded = inst.SeedCrossCache(prev.inst, candMap)
	}
	stop = startStage(cfg.Obs, "stage/selection", &res.Times.Selection)
	if err := runSelection(ctx, cfg, ws, inst, res); err != nil {
		return nil, nil, err
	}
	stop(obs.S("mode", cfg.Mode.String()))
	res.PowerMW = res.Selection.PowerMW

	// WDM is reusable only when its exact inputs recur: the identical net
	// list (every net carried over in place) and the identical choice.
	var wdmFrom *Result
	if prev != nil && !delta.wdm && !prev.cfg.SkipWDM && len(prev.nets) == len(next.nets) &&
		identityMap(candMap) && intsEqual(res.Selection.Choice, prev.res.Selection.Choice) {
		wdmFrom = prev.res
		st.WDMReused = true
	}
	if err := res.wdmStage(ctx, cfg, wdmFrom); err != nil {
		return nil, nil, err
	}
	next.res = res
	return res, next, nil
}

// candidates runs the candidate stage into next: baseline trees, crossing
// environments and co-design candidate sets per hyper net, each carried
// over from prev when its inputs are unchanged. A net's trees carry over
// when its group is clean and no tree knob changed; its candidates carry
// over when, in addition, no candidate knob changed and its crossing
// environment is byte-identical (contribsMatch). The returned candMap holds
// the previous index of every net whose candidates carried over, -1 for the
// rest. The only possible error besides a generation failure is ctx's.
func (next *sessionState) candidates(ctx context.Context, cfg Config, ws *Workspace, prev *sessionState, delta cfgDelta, groupClean []bool, st *ResolveStats) ([]int, error) {
	nN := len(next.hnets)
	// netPrev maps a net of a clean group to its previous index: clean groups
	// sit at the same group index and ProcessGroup is deterministic, so the
	// within-group net order carries over verbatim.
	netPrev := make([]int, nN)
	next.groupStart = make([]int, len(next.groupHNets))
	next.trees = make([][]steiner.Tree, nN)
	i := 0
	for gi, g := range next.groupHNets {
		next.groupStart[gi] = i
		for k := range g {
			netPrev[i] = -1
			if groupClean[gi] {
				netPrev[i] = prev.groupStart[gi] + k
				if !delta.trees {
					next.trees[i] = prev.trees[netPrev[i]]
					st.TreesReused++
				}
			}
			i++
		}
	}
	st.TreesRebuilt = nN - st.TreesReused
	blStart := time.Now()
	if err := baselineTrees(ctx, next.hnets, next.trees, cfg, ws.arenaOf()); err != nil {
		return nil, err
	}
	// The baseline-topology sweep is the first half of the candidates stage;
	// its own histogram separates Steiner construction from the co-design DP
	// in the serving-side latency breakdown.
	cfg.Obs.Histogram("stage/baselines").RecordDuration(time.Since(blStart))

	envs, contribs := buildEnvsContrib(next.hnets, next.trees)
	next.contribs = contribs
	next.nets = make([]selection.Net, nN)
	candMap := make([]int, nN)
	for i := range candMap {
		candMap[i] = -1
		if !delta.trees && !delta.cands && contribsMatch(i, netPrev, contribs, prev) {
			candMap[i] = netPrev[i]
			next.nets[i] = prev.nets[netPrev[i]]
			st.CandsReused++
		}
	}
	st.CandsRebuilt = nN - st.CandsReused
	if err := coDesignNets(ctx, next.hnets, next.trees, envs, next.nets, cfg, ws.arenaOf()); err != nil {
		return nil, err
	}
	return candMap, nil
}

// contribsMatch reports whether net i's environment contributors map
// index-for-index onto its previous incarnation's — the condition for the
// concatenated environment to be identical, given that every mapped net
// carried its trees over.
func contribsMatch(i int, netPrev []int, contribs [][]int, prev *sessionState) bool {
	pi := netPrev[i]
	if pi < 0 {
		return false
	}
	pc := prev.contribs[pi]
	if len(contribs[i]) != len(pc) {
		return false
	}
	for k, c := range contribs[i] {
		if netPrev[c] != pc[k] {
			return false
		}
	}
	return true
}

// runSelection runs the configured solution-determination algorithm on inst
// and fills res.Selection (plus the ILP/LR diagnostics), marking res degraded
// when a solver hit its budget. Config.ILPTimeLimit bounds only the ILP: the
// LR fallback of rung 1 still runs under the caller's ctx.
func runSelection(ctx context.Context, cfg Config, ws *Workspace, inst *selection.Instance, res *Result) error {
	// Config.LR with the flow's context (unless the caller pinned one),
	// worker count and tracer as defaults.
	lrOpt := cfg.LR
	if lrOpt.Ctx == nil {
		lrOpt.Ctx = ctx
	}
	if lrOpt.Workers == 0 {
		lrOpt.Workers = cfg.Workers
	}
	if lrOpt.Obs == nil {
		lrOpt.Obs = cfg.Obs
	}
	switch cfg.Mode {
	case ModeILP:
		ilpCtx := ctx
		if cfg.ILPTimeLimit > 0 {
			var cancel context.CancelFunc
			ilpCtx, cancel = context.WithTimeout(ctx, cfg.ILPTimeLimit)
			defer cancel()
		}
		ir, err := selection.SolveILP(inst, selection.ILPOptions{
			Ctx: ilpCtx, MaxNodes: cfg.ILPMaxNodes,
			Workers: cfg.Workers, Arena: ws.arenaOf(), Obs: cfg.Obs,
		})
		if err != nil {
			return err
		}
		res.ILP = &ir
		res.Selection = ir.Selection
		if ir.TimedOut {
			// Rung 1 of the ladder: the paper falls back to the Lagrangian
			// relaxation when the ILP exceeds its budget. Both selections are
			// feasible; keep the cheaper one (ties go to the incumbent).
			lr, err := selection.SolveLR(inst, lrOpt)
			if err != nil {
				return err
			}
			res.LR = &lr
			if lr.Selection.PowerMW < ir.Selection.PowerMW {
				res.Selection = lr.Selection
			}
			res.markDegraded(ctx, cfg, "selection")
		}
	case ModeGreedy:
		sel, err := inst.GreedyIndependent()
		if err != nil {
			return err
		}
		res.Selection = sel
	default:
		lr, err := selection.SolveLR(inst, lrOpt)
		if err != nil {
			return err
		}
		res.LR = &lr
		res.Selection = lr.Selection
		if lr.Stopped {
			res.markDegraded(ctx, cfg, "selection")
		}
	}
	return nil
}

// RunElectrical is the Streak-style baseline [14]: every hyper net is
// routed with an electrical rectilinear Steiner tree; power follows Eq. (6).
func RunElectrical(d signal.Design, cfg Config) (*Result, error) {
	return RunElectricalContext(context.Background(), d, cfg)
}

// RunElectricalContext is RunElectrical under a context — offered for API
// symmetry with RunContext. The electrical baseline is itself the flow's
// degradation floor, so it always runs to completion regardless of ctx and
// never sets Result.Degraded: aborting it could only return an error where
// a cheap feasible routing was available. A nil ctx means
// context.Background().
func RunElectricalContext(ctx context.Context, d signal.Design, cfg Config) (*Result, error) {
	_ = ctx // the floor ignores cancellation by design; see doc comment
	res := &Result{Design: d.Name, Flow: "electrical", Obs: cfg.Obs}
	stop := startStage(cfg.Obs, "stage/process", &res.Times.Process)
	_, hnets, err := process(d, cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	res.HyperNets = hnets
	stop(obs.I("hyper_nets", len(hnets)))

	stop = startStage(cfg.Obs, "stage/candidates", &res.Times.Candidates)
	nets, err := electricalNets(hnets, cfg, nil, "net/electrical")
	if err != nil {
		return nil, err
	}
	res.Nets = nets
	stop(obs.I("nets", len(nets)))

	inst, err := selection.NewInstance(nets, cfg.Lib)
	if err != nil {
		return nil, err
	}
	sel, err := inst.AllElectrical()
	if err != nil {
		return nil, err
	}
	res.Selection = sel
	res.PowerMW = sel.PowerMW
	return res, nil
}

// RunOptical is the GLOW-style baseline [4]: every hyper net is routed
// fully optically on its Steiner baseline; nets that cannot meet the loss
// budget fall back to electrical wires. No optical-electrical mixing.
func RunOptical(d signal.Design, cfg Config) (*Result, error) {
	return RunOpticalContext(context.Background(), d, cfg)
}

// RunOpticalContext is RunOptical under a context, with the same
// degradation ladder as RunContext: candidate generation cut short drops to
// the all-electrical floor, and a WDM assignment cut short falls back to
// the placement-derived one. The selection step itself (evaluate + repair)
// is cheap and always completes. A nil ctx means context.Background().
func RunOpticalContext(ctx context.Context, d signal.Design, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res := &Result{Design: d.Name, Flow: "optical", Obs: cfg.Obs}
	stop := startStage(cfg.Obs, "stage/process", &res.Times.Process)
	_, hnets, err := process(d, cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	res.HyperNets = hnets
	stop(obs.I("hyper_nets", len(hnets)))

	ws := NewWorkspace()
	floored, err := res.candidateStage(ctx, cfg, ws, func() ([]selection.Net, error) {
		return opticalNets(ctx, hnets, cfg, ws.arenaOf())
	})
	if err != nil {
		return nil, err
	}
	if floored {
		return res, nil
	}

	nets := res.Nets
	inst, err := selection.NewInstance(nets, cfg.Lib)
	if err != nil {
		return nil, err
	}
	stop = startStage(cfg.Obs, "stage/selection", &res.Times.Selection)
	// GLOW semantics: optical wherever feasible (candidate 0), electrical
	// only on loss violation (Repair demotes the violators).
	choice := make([]int, len(nets))
	sel, err := inst.Evaluate(choice)
	if err != nil {
		return nil, err
	}
	sel, err = inst.Repair(sel)
	if err != nil {
		return nil, err
	}
	res.Selection = sel
	res.PowerMW = sel.PowerMW
	stop(obs.I("violations", sel.Violations))

	if err := res.wdmStage(ctx, cfg, nil); err != nil {
		return nil, err
	}
	return res, nil
}

// opticalNets gives every hyper net GLOW's candidates: the all-optical route
// on its primary baseline tree when it is feasible, then the electrical
// fallback. The only possible error besides a generation failure is ctx's.
func opticalNets(ctx context.Context, hnets []signal.HyperNet, cfg Config, arena *parallel.Arena) ([]selection.Net, error) {
	trees := make([][]steiner.Tree, len(hnets))
	if err := baselineTrees(ctx, hnets, trees, cfg, arena); err != nil {
		return nil, err
	}
	envs, _ := buildEnvsContrib(hnets, trees)
	nets := make([]selection.Net, len(hnets))
	err := parallel.ForEachScratchContext(ctx, arena, len(hnets), cfg.Workers, func(w int, s *parallel.Scratch, i int) error {
		var sp obs.Span
		if cfg.Obs != nil {
			sp = cfg.Obs.Span("net/optical", obs.WorkerLane(w), obs.I("net", i))
		}
		scr := grabScratch(s, cfg.Obs)
		in := codesign.Input{
			Tree: trees[i][0],
			Bits: hnets[i].BitCount(),
			Lib:  cfg.Lib,
			Elec: cfg.Elec,
			Env:  envs[i],
		}
		allO := scr.fillLabels(len(trees[i][0].Edges), codesign.Optical)
		var cands []codesign.Candidate
		if cand, feasible := codesign.EvaluateWS(in, allO, scr.codesign); feasible {
			cands = append(cands, cand)
		}
		fallback, err := electricalCandidate(hnets[i], cfg, scr)
		if err != nil {
			return err
		}
		cands = append(cands, fallback)
		nets[i] = selection.Net{Bits: hnets[i].BitCount(), Cands: cands}
		if cfg.Obs != nil {
			sp.End(obs.I("cands", len(cands)))
		}
		return nil
	})
	return nets, err
}

// process validates the inputs and runs signal processing (§3.1) group by
// group; it is the caller-timed "stage/process". A group gi with clean[gi]
// set takes its hyper nets from prev[gi] unchanged (ProcessGroup depends only
// on the group and its index); a nil clean processes every group. It returns
// the per-group hyper nets and their concatenation in group order, which is
// exactly signal.Process's output.
func process(d signal.Design, cfg Config, prev [][]signal.HyperNet, clean []bool) ([][]signal.HyperNet, []signal.HyperNet, error) {
	if err := cfg.Lib.Validate(); err != nil {
		return nil, nil, err
	}
	if err := cfg.Elec.Validate(); err != nil {
		return nil, nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	procCfg := signal.ProcessConfig{
		WDMCapacity:         cfg.Lib.WDMCapacity,
		PinMergeThresholdCM: cfg.PinMergeThresholdCM,
		Seed:                cfg.Seed,
	}
	groups := make([][]signal.HyperNet, len(d.Groups))
	err := parallel.ForEach(len(d.Groups), cfg.Workers, func(gi int) error {
		if clean != nil && clean[gi] {
			groups[gi] = prev[gi]
			return nil
		}
		hns, err := signal.ProcessGroup(d.Groups[gi], gi, procCfg)
		groups[gi] = hns
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var hnets []signal.HyperNet
	for _, g := range groups {
		hnets = append(hnets, g...)
	}
	if len(hnets) == 0 {
		return nil, nil, fmt.Errorf("operon: design %q produced no hyper nets", d.Name)
	}
	return groups, hnets, nil
}

// baselineTrees fills every nil entry trees[i] with hyper net i's optical
// baseline topologies, built on the per-worker Steiner workspaces of arena
// (the trees own their memory — workspace scratch never escapes). The only
// possible error is ctx's: cancellation stops dispatch and surfaces
// ctx.Err(), on which callers degrade to the electrical floor.
func baselineTrees(ctx context.Context, hnets []signal.HyperNet, trees [][]steiner.Tree, cfg Config, arena *parallel.Arena) error {
	max := cfg.MaxBaselines
	if max <= 0 {
		max = 3
	}
	todo := missing(len(trees), func(i int) bool { return trees[i] == nil })
	return parallel.ForEachScratchContext(ctx, arena, len(todo), cfg.Workers, func(w int, s *parallel.Scratch, k int) error {
		i := todo[k]
		trees[i] = steiner.BaselinesWS(hnets[i].Terminals(), steiner.Euclidean, max, grabScratch(s, cfg.Obs).steiner)
		return nil
	})
}

// buildEnvsContrib collects, for every hyper net, the primary-baseline
// optical segments of the other hyper nets whose bounding boxes overlap — the
// crossing-estimation environment for the co-design DP — and, alongside, the
// ascending list of net indices that contributed them. A net's environment
// is exactly the concatenation of its contributors' primary-tree
// segments in index order, so two solves whose contributor lists map to each
// other net-for-net (with identical trees) see byte-identical environments —
// the invariant incremental re-synthesis uses to decide candidate reuse.
func buildEnvsContrib(hnets []signal.HyperNet, trees [][]steiner.Tree) ([][]geom.Segment, [][]int) {
	type netGeom struct {
		segs []geom.Segment
		box  geom.Rect
	}
	geoms := make([]netGeom, len(hnets))
	for i := range hnets {
		segs := trees[i][0].Segments()
		g := netGeom{segs: segs}
		if len(segs) > 0 {
			g.box = segs[0].BBox()
			for _, s := range segs[1:] {
				g.box = g.box.Union(s.BBox())
			}
		}
		geoms[i] = g
	}
	envs := make([][]geom.Segment, len(hnets))
	contribs := make([][]int, len(hnets))
	for i := range hnets {
		for j := range hnets {
			if i == j || len(geoms[j].segs) == 0 || len(geoms[i].segs) == 0 {
				continue
			}
			if geoms[i].box.Overlaps(geoms[j].box) {
				envs[i] = append(envs[i], geoms[j].segs...)
				contribs[i] = append(contribs[i], j)
			}
		}
	}
	return envs, contribs
}

// coDesignNets generates the full OPERON candidate set of every net of nets
// that has none yet. Cancelling ctx stops dispatch of further nets (in-flight
// ones finish — the pool's deterministic drain) and returns ctx.Err(); the
// caller then degrades to the electrical floor.
func coDesignNets(ctx context.Context, hnets []signal.HyperNet, trees [][]steiner.Tree, envs [][]geom.Segment, nets []selection.Net, cfg Config, arena *parallel.Arena) error {
	todo := missing(len(nets), func(i int) bool { return nets[i].Cands == nil })
	netHist := cfg.Obs.Histogram("net/candidates")
	// Candidate generation is the widest fan-out of the flow; each net is
	// tagged with the worker lane that produced it so the trace shows the
	// pool's parallel tracks. The lane feeds telemetry only — results stay
	// bit-identical across worker counts, with or without arena reuse.
	return parallel.ForEachScratchContext(ctx, arena, len(todo), cfg.Workers, func(w int, s *parallel.Scratch, k int) error {
		i := todo[k]
		var sp obs.Span
		if cfg.Obs != nil {
			sp = cfg.Obs.Span("net/candidates", obs.WorkerLane(w), obs.I("net", i))
		}
		net, err := generateNetCandidates(i, hnets[i], trees[i], envs[i], cfg, grabScratch(s, cfg.Obs))
		if err != nil {
			return err
		}
		nets[i] = net
		if cfg.Obs != nil {
			netHist.RecordDuration(sp.End(obs.I("cands", len(net.Cands))))
		}
		return nil
	})
}

// missing lists, ascending, the indices in [0,n) for which absent holds.
func missing(n int, absent func(int) bool) []int {
	var todo []int
	for i := 0; i < n; i++ {
		if absent(i) {
			todo = append(todo, i)
		}
	}
	return todo
}

// electricalNets routes every hyper net with its all-electrical RSMT fallback
// as its only candidate, one span named span per net. It ignores
// cancellation by design — the electrical routing is the degradation floor —
// so the pool runs under context.Background(). A nil arena means throwaway
// scratch.
func electricalNets(hnets []signal.HyperNet, cfg Config, arena *parallel.Arena, span string) ([]selection.Net, error) {
	nets := make([]selection.Net, len(hnets))
	err := parallel.ForEachScratchContext(context.Background(), arena, len(hnets), cfg.Workers, func(w int, s *parallel.Scratch, i int) error {
		var sp obs.Span
		if cfg.Obs != nil {
			sp = cfg.Obs.Span(span, obs.WorkerLane(w), obs.I("net", i))
		}
		cand, err := electricalCandidate(hnets[i], cfg, grabScratch(s, cfg.Obs))
		if err != nil {
			return err
		}
		nets[i] = selection.Net{Bits: hnets[i].BitCount(), Cands: []codesign.Candidate{cand}}
		if cfg.Obs != nil {
			sp.End()
		}
		return nil
	})
	return nets, err
}

// generateNetCandidates builds hyper net i's merged candidate list from its
// baseline topologies and crossing environment: the co-design DP per tree
// (subdividing loss-pressed ones), dominated-candidate thinning, and the
// RSMT electrical fallback. Pure in everything but scratch — the same
// (hn, trees, env, cfg) always yields the same candidates, which is what
// lets incremental re-synthesis skip it for untouched nets.
func generateNetCandidates(i int, hn signal.HyperNet, trees []steiner.Tree, env []geom.Segment, cfg Config, scr *workerScratch) (selection.Net, error) {
	bits := hn.BitCount()
	var cands []codesign.Candidate
	for _, tr := range trees {
		// Subdivide only loss-pressed topologies: relays and partial-
		// optical routes pay off when the detection budget binds, and
		// unconditional subdivision inflates every net's candidate set
		// (and with it the ILP).
		if cfg.SubdivideCM > 0 && lossPressed(tr, env, cfg.Lib, len(hn.Pins)-1) {
			tr = steiner.Subdivide(tr, cfg.SubdivideCM)
		}
		cs, err := codesign.GenerateWS(codesign.Input{
			Tree:       tr,
			Bits:       bits,
			Lib:        cfg.Lib,
			Elec:       cfg.Elec,
			Env:        env,
			MaxOptions: cfg.MaxCandidates,
		}, scr.codesign)
		if err != nil {
			return selection.Net{}, fmt.Errorf("operon: net %d: %w", i, err)
		}
		cands = append(cands, cs...)
	}
	// Replace the per-tree electrical fallbacks with a single RSMT-based
	// one (proper rectilinear Steiner tree, not the Euclidean baseline
	// re-measured in the Manhattan metric).
	kept := cands[:0]
	for _, c := range cands {
		if !c.AllElectrical {
			kept = append(kept, c)
		}
	}
	fallback, err := electricalCandidate(hn, cfg, scr)
	if err != nil {
		return selection.Net{}, err
	}
	kept = thinCandidates(kept, cfg.MaxCandidatesPerNet-1)
	return selection.Net{Bits: bits, Cands: append(kept, fallback)}, nil
}

// lossPressed estimates whether an all-optical implementation of the tree
// would approach the detection budget: propagation over the whole tree,
// crossing loss against the environment, and a single splitting stage per
// sink. Nets above 70%% of l_m get subdivided topologies.
func lossPressed(tr steiner.Tree, env []geom.Segment, lib optics.Library, sinks int) bool {
	loss := lib.PropagationLossDB(tr.EuclideanLength())
	for _, s := range tr.Segments() {
		loss += lib.CrossingLossDB(geom.CrossingsWithSegment(s, env))
	}
	loss += optics.SplittingLossDB(sinks)
	return loss > 0.7*lib.MaxLossDB
}

// thinCandidates reduces a merged candidate list to at most max entries:
// dominated candidates (in power and worst fixed loss) are dropped first,
// then the Pareto front is subsampled evenly along its power ordering so
// loss diversity survives. max <= 0 keeps everything.
func thinCandidates(cands []codesign.Candidate, max int) []codesign.Candidate {
	if max <= 0 || len(cands) <= max {
		return cands
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].PowerMW < cands[j].PowerMW })
	var front []codesign.Candidate
	bestLoss := math.Inf(1)
	for _, c := range cands {
		// Power-ascending scan: keep only candidates that strictly improve
		// the best loss seen so far (the Pareto front).
		if c.MaxFixedLossDB < bestLoss-1e-12 || len(front) == 0 {
			front = append(front, c)
			if c.MaxFixedLossDB < bestLoss {
				bestLoss = c.MaxFixedLossDB
			}
		}
	}
	if len(front) <= max {
		return front
	}
	if max == 1 {
		return front[:1] // the minimum-power candidate
	}
	out := make([]codesign.Candidate, 0, max)
	for k := 0; k < max; k++ {
		idx := k * (len(front) - 1) / (max - 1)
		out = append(out, front[idx])
	}
	return out
}

// electricalCandidate builds the a_ie fallback: an all-electrical RSMT
// route evaluated under Eq. (6), on the calling worker's scratch.
func electricalCandidate(hn signal.HyperNet, cfg Config, scr *workerScratch) (codesign.Candidate, error) {
	tree := steiner.BI1SWS(hn.Terminals(), steiner.Rectilinear, steiner.BI1SConfig{}, scr.steiner)
	in := codesign.Input{Tree: tree, Bits: hn.BitCount(), Lib: cfg.Lib, Elec: cfg.Elec}
	cand, _ := codesign.EvaluateWS(in, scr.fillLabels(len(tree.Edges), codesign.Electrical), scr.codesign)
	if !cand.AllElectrical {
		return codesign.Candidate{}, fmt.Errorf("operon: electrical fallback is not all-electrical")
	}
	return cand, nil
}

// extractConnections turns a selection into the optical connection set the
// WDM stage places: per chosen candidate, consecutive collinear optical
// chunks (from edge subdivision) merge into one physical waveguide. Pure, so
// two solves with identical nets and choices extract identical connections.
func extractConnections(nets []selection.Net, choice []int) []wdm.Connection {
	var conns []wdm.Connection
	for i, j := range choice {
		for _, seg := range geom.MergeCollinear(nets[i].Cands[j].OpticalSegs) {
			conns = append(conns, wdm.Connection{Seg: seg, Bits: nets[i].Bits, Net: i})
		}
	}
	return conns
}

// wdmStage runs the timed "stage/wdm" unless cfg.SkipWDM. With a non-nil
// from — a result whose nets and choice are identical to r's — it takes
// from's placement and assignment verbatim; otherwise it runs the §4
// pipeline. A WDM assignment cut short marks the run degraded.
func (r *Result) wdmStage(ctx context.Context, cfg Config, from *Result) error {
	if cfg.SkipWDM {
		return nil
	}
	stop := startStage(cfg.Obs, "stage/wdm", &r.Times.WDM)
	if from != nil {
		r.Connections = from.Connections
		r.Placement = from.Placement
		r.Assignment = from.Assignment
		r.WDMStats = from.WDMStats
	} else if err := r.assignWDMs(ctx, cfg); err != nil {
		return err
	}
	if r.WDMStats.Degraded {
		r.markDegraded(ctx, cfg, "wdm")
	}
	stop(obs.I("wdms_used", r.WDMStats.FinalWDMs))
	return nil
}

// assignWDMs extracts the optical connections of the selection and runs
// the §4 WDM pipeline under ctx. Cancellation never errors: wdm.RunContext
// falls back to the placement-derived assignment and flags it in
// Stats.Degraded, which the caller folds into Result.Degraded.
func (r *Result) assignWDMs(ctx context.Context, cfg Config) error {
	r.Connections = extractConnections(r.Nets, r.Selection.Choice)
	pl, as, st, err := wdm.RunContext(ctx, r.Connections, wdm.Config{
		Capacity:        cfg.Lib.WDMCapacity,
		MinSpacingCM:    cfg.Lib.CrosstalkMinDistCM,
		MaxAssignDistCM: cfg.Lib.AssignMaxDistCM,
		Workers:         cfg.Workers,
		Obs:             cfg.Obs,
	})
	if err != nil {
		return err
	}
	r.Placement = pl
	r.Assignment = as
	r.WDMStats = st
	return nil
}
