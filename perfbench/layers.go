package main

import (
	"context"
	"time"

	operon "operon"
	"operon/internal/obs"
	"operon/internal/signal"
)

// solve runs one cold library solve, traced through Config.Obs when
// layers is non-nil, and returns its result and wall time. A traced solve
// gets a fresh tracer, so every span and counter it reports is its own.
func solve(ctx context.Context, d signal.Design, cfg operon.Config, ws *operon.Workspace, layers *solveLayers) (*operon.Result, time.Duration, error) {
	var col *obs.Collector
	if layers != nil {
		col = &obs.Collector{}
		cfg.Obs = obs.New(col)
	}
	start := time.Now()
	res, err := operon.RunContextWith(ctx, d, cfg, ws)
	wall := time.Since(start)
	if err == nil && layers != nil {
		layers.add(res, wall, col, cfg.Obs.Snapshot())
	}
	return res, wall, err
}

// checkSolve counts a solve as failed if it errored, degraded, fails
// operon.Verify, or differs in power from an earlier solve of the same
// design (want holds the first power seen per key).
func (b *bench) checkSolve(key string, res *operon.Result, err error, cfg operon.Config, want map[string]float64) {
	switch {
	case err != nil:
		b.fail("%s: %v", key, err)
	case res.Degraded:
		b.fail("%s: degraded (%s)", key, res.StopReason)
	default:
		if issues := operon.Verify(res, cfg); len(issues) > 0 {
			b.fail("%s: %d verify issues, first: %v", key, len(issues), issues[0])
			return
		}
		if p, ok := want[key]; !ok {
			want[key] = res.PowerMW
		} else if p != res.PowerMW {
			b.fail("%s: power %v, earlier solve gave %v", key, res.PowerMW, p)
		}
	}
}

// solveLayers accumulates the per-layer picture of traced library solves:
// exact stage spans, solver counters, and candidate-set shape. All solve
// metrics are per-solve means, so the four stages plus stage.other_ms add
// up to stage.wall_ms.
type solveLayers struct {
	solves                         int
	wall, process, cands, sel, wdm time.Duration
	lrIters, candsPerNet           float64
	netCand                        time.Duration
	netCandSpans                   int
	place, assign                  time.Duration
	counters                       map[string]int64
}

// add folds in one traced solve.
func (l *solveLayers) add(res *operon.Result, wall time.Duration, col *obs.Collector, counters []obs.CounterValue) {
	l.solves++
	l.wall += wall
	l.process += res.Times.Process
	l.cands += res.Times.Candidates
	l.sel += res.Times.Selection
	l.wdm += res.Times.WDM
	if res.LR != nil {
		l.lrIters += float64(res.LR.Iters)
	}
	if len(res.Nets) > 0 {
		n := 0
		for _, net := range res.Nets {
			n += len(net.Cands)
		}
		l.candsPerNet += float64(n) / float64(len(res.Nets))
	}
	for _, sp := range col.SpansNamed("net/candidates") {
		l.netCand += sp.Dur
		l.netCandSpans++
	}
	l.place += col.TotalDur("wdm/place")
	l.assign += col.TotalDur("wdm/assign")
	if l.counters == nil {
		l.counters = map[string]int64{}
	}
	for _, c := range counters {
		l.counters[c.Name] += c.Value
	}
}

// put records the solve-layer metrics; with no traced solves every value
// is 0 (the layer did no work).
func (l *solveLayers) put(b *bench) {
	n := float64(max(l.solves, 1))
	mean := func(d time.Duration) float64 { return ms(d) / n }
	per := func(name string) float64 { return float64(l.counters[name]) / n }
	c := func(name string) float64 { return float64(l.counters[name]) }

	b.put("stage.wall_ms", "ms", mean(l.wall))
	b.put("stage.process_ms", "ms", mean(l.process))
	b.put("stage.candidates_ms", "ms", mean(l.cands))
	b.put("stage.selection_ms", "ms", mean(l.sel))
	b.put("stage.wdm_ms", "ms", mean(l.wdm))
	b.put("stage.other_ms", "ms", mean(l.wall-l.process-l.cands-l.sel-l.wdm))
	b.put("lr.iters", "count", l.lrIters/n)
	b.put("cands.per_net", "count", l.candsPerNet/n)
	b.put("net.candidates_ms", "ms", ratio(ms(l.netCand), float64(l.netCandSpans), 0))
	lookups := c("bpm.cache_hits") + c("bpm.cache_misses")
	b.put("bpm.lookups", "count", lookups/n)
	// No lookups means no misses: the flow did not wait on BPM at all.
	b.put("bpm.hit_ratio", "ratio", ratio(c("bpm.cache_hits"), lookups, 1))
	b.put("lp.pivots", "count", per("lp.pivots"))
	b.put("lp.refactors", "count", per("lp.refactors"))
	b.put("lp.bound_flips", "count", per("lp.bound_flips"))
	b.put("lp.presolve_rows", "count", per("lp.presolve_rows"))
	b.put("ilp.nodes", "count", per("ilp.nodes"))
	// No speculative solves means none were wasted.
	b.put("ilp.spec_useful_ratio", "ratio", 1-ratio(c("ilp.spec_wasted"), c("ilp.spec_solves"), 0))
	b.put("wdm.place_ms", "ms", mean(l.place))
	b.put("wdm.assign_ms", "ms", mean(l.assign))
	b.put("mcmf.augmentations", "count", per("mcmf.augmentations"))
	b.put("wdm.arcs", "count", per("wdm.arcs"))
	b.put("ws.worker.reuse_ratio", "ratio",
		ratio(c("ws.worker.reuse"), c("ws.worker.reuse")+c("ws.worker.create"), 0))
}
