package operon

import (
	"context"

	"operon/internal/codesign"
	"operon/internal/geom"
	"operon/internal/obs"
	"operon/internal/parallel"
	"operon/internal/steiner"
)

// Workspace owns the reusable per-worker solver scratch of the flow: the
// co-design DP buffers, the incremental-Steiner buffers, and the label
// scratch each pool worker uses during candidate generation. A Workspace
// held across runs (RunContextWith) lets steady-state solves approach zero
// amortised allocation; each worker slot keeps its own scratch, so any
// Config.Workers count composes without locks. Results are bit-identical
// with and without a Workspace — scratch reuse only changes allocation
// behaviour.
//
// A Workspace must not be shared by concurrently executing runs: the pool
// hands slot w to worker w, so two overlapping runs would alias scratch.
// Serving layers keep one Workspace per queue slot instead
// (internal/serve), and it serves every job of that slot: cold solves and
// Session resolves alike, since a Session owns no scratch of its own.
type Workspace struct {
	workers []*workerScratch // slot w belongs to pool worker w
}

// NewWorkspace returns an empty workspace; per-worker scratch is created on
// first use and reused afterwards.
func NewWorkspace() *Workspace { return &Workspace{} }

// workerScratch bundles the per-worker package workspaces used by the
// candidate-generation stages.
type workerScratch struct {
	codesign *codesign.Workspace
	steiner  *steiner.Workspace
	labels   []codesign.Label
	env      []geom.Segment // the crossing environment of the worker's current net
}

// forEach runs fn over [0,n) on parallel.ForEachWorker and hands worker w
// the workspace's slot w, so the scratch persists across pool runs. A nil
// Workspace gets throwaway slots, reused only within this one run. A slot's
// scratch is created on its worker's first item; creations and reuses are
// counted on t (ws.worker.create / ws.worker.reuse), so an instrumented run
// can report its reuse rate as reuse / (create + reuse).
func (w *Workspace) forEach(ctx context.Context, n, workers int, t *obs.Tracer, fn func(worker int, scr *workerScratch, i int) error) error {
	if w == nil {
		w = NewWorkspace()
	}
	for len(w.workers) < parallel.Workers(workers, n) {
		w.workers = append(w.workers, nil)
	}
	slots := w.workers
	return parallel.ForEachWorker(ctx, n, workers, func(wk, i int) error {
		scr := slots[wk]
		if scr == nil {
			scr = &workerScratch{codesign: codesign.NewWorkspace(), steiner: steiner.NewWorkspace()}
			slots[wk] = scr
			t.Counter("ws.worker.create").Inc()
		} else {
			t.Counter("ws.worker.reuse").Inc()
		}
		return fn(wk, scr, i)
	})
}

// fillLabels returns a scratch label slice of length n with every entry set
// to v. The slice is only valid until the worker's next fillLabels call;
// codesign copies input labels into any candidate it returns, so handing it
// to Evaluate/Generate is safe.
func (ws *workerScratch) fillLabels(n int, v codesign.Label) []codesign.Label {
	if cap(ws.labels) < n {
		ws.labels = make([]codesign.Label, n)
	}
	ws.labels = ws.labels[:n]
	for i := range ws.labels {
		ws.labels[i] = v
	}
	return ws.labels
}
