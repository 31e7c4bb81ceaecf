package operon

import (
	"context"

	"operon/internal/obs"
	"operon/internal/selection"
)

// StopReason explains why a flow run stopped before completing its full
// pipeline. It is set on Result alongside Degraded and maps the paper's
// ">3000 s" timeout rows onto machine-readable values (see EXPERIMENTS.md).
type StopReason string

const (
	// StopNone means the run completed its full pipeline (Degraded=false).
	StopNone StopReason = ""
	// StopDeadline means a time budget expired: the context deadline,
	// Config.ILPTimeLimit, or the branch-and-bound node budget.
	StopDeadline StopReason = "deadline"
	// StopCanceled means the context was cancelled outright (shutdown or
	// caller abort rather than a deadline).
	StopCanceled StopReason = "canceled"
)

// stopReasonFor derives the StopReason for a degradation observed under
// ctx: explicit cancellation wins; everything else (ctx deadline, the ILP
// time limit, the node budget) is a deadline.
func stopReasonFor(ctx context.Context) StopReason {
	if ctx.Err() == context.Canceled {
		return StopCanceled
	}
	return StopDeadline
}

// markDegraded records that stage degraded the run and why, emitting the
// flow/degraded event and the flow.degraded counter. Only the first
// degradation sets the StopReason (later stages degrade for the same root
// cause); the event is emitted per degrading stage so traces show the full
// ladder.
func (r *Result) markDegraded(ctx context.Context, cfg Config, stage string) {
	reason := stopReasonFor(ctx)
	if !r.Degraded {
		r.Degraded = true
		r.StopReason = reason
	}
	cfg.Obs.Counter("flow.degraded").Inc()
	if cfg.Obs != nil {
		cfg.Obs.Event("flow/degraded", obs.LaneFlow,
			obs.S("stage", stage), obs.S("reason", string(reason)))
	}
}

// candidateStage runs build as the timed "stage/candidates" and stores its
// nets in r.Nets, unless ctx is already done. When the budget runs out before
// build completes, the run drops to the bottom rung of the ladder — the
// electrical floor — and candidateStage reports floored. build's only
// non-budget failures are returned as errors.
func (r *Result) candidateStage(ctx context.Context, cfg Config, ws *Workspace, build func() ([]selection.Net, error)) (floored bool, err error) {
	if ctx.Err() == nil {
		stop := startStage(cfg.Obs, "stage/candidates", &r.Times.Candidates)
		nets, err := build()
		if err == nil {
			r.Nets = nets
			stop(obs.I("nets", len(nets)))
			return false, nil
		}
		if ctx.Err() == nil {
			return false, err
		}
		stop(obs.I("nets", 0), obs.S("aborted", "context"))
	}
	return true, r.degradeToElectricalFloor(ctx, cfg, ws)
}

// degradeToElectricalFloor is the bottom rung of the degradation ladder: it
// routes every hyper net of res (which must already carry HyperNets) with
// its all-electrical RSMT fallback and selects that candidate everywhere.
// The result is always feasible — electrical wires have no detection
// constraint — and cheap enough to compute that the floor deliberately
// ignores the (already cancelled) context; an expired deadline still yields
// a legal routing instead of an error. The WDM stage is skipped: an
// all-electrical selection has no optical connections. Candidate and
// selection stage spans are re-recorded for the floor work, so StageTimes
// reflects the path actually taken. The floor reuses the run's workspace (a
// nil ws means throwaway scratch).
func (r *Result) degradeToElectricalFloor(ctx context.Context, cfg Config, ws *Workspace) error {
	r.markDegraded(ctx, cfg, "candidates")

	stop := startStage(cfg.Obs, "stage/candidates", &r.Times.Candidates)
	nets, err := electricalNets(r.HyperNets, cfg, ws.arenaOf(), "net/electrical-floor")
	if err != nil {
		return err
	}
	r.Nets = nets
	stop(obs.I("nets", len(nets)), obs.S("degraded", "electrical-floor"))

	inst, err := selection.NewInstance(nets, cfg.Lib)
	if err != nil {
		return err
	}
	stop = startStage(cfg.Obs, "stage/selection", &r.Times.Selection)
	sel, err := inst.AllElectrical()
	if err != nil {
		return err
	}
	r.Selection = sel
	r.PowerMW = sel.PowerMW
	stop(obs.S("mode", "electrical-floor"))
	return nil
}
