package bpm

import (
	"context"
	"sync"
)

// The FD-BPM solve is by far the most expensive leaf computation in the
// repo (hundreds of complex tridiagonal solves per call), and callers —
// the Fig. 3(b) harness, the splitting-loss validation, examples — keep
// asking for the same handful of (Config, stages) pairs. Each pair is
// therefore propagated once per process and served from this cache
// afterwards.

// simKey identifies one simulation: Config is a flat struct of scalars, so
// it is directly usable as a map key.
type simKey struct {
	cfg    Config
	stages int
}

var (
	simMu    sync.Mutex
	simCache = map[simKey]Result{}
)

// simCached returns the memoised result for (cfg, stages), running
// SimulateUncachedContext on the first request. Concurrent first requests
// for the same key may both propagate; the computation is deterministic, so
// either result is the same. A cancelled propagation is never cached. The
// Result's slices are shared with the cache entry — a hit is allocation-free
// — so callers must treat ArmPowers and PerArmLossDB as immutable (every
// in-repo caller only reads them).
func simCached(ctx context.Context, cfg Config, stages int) (Result, error) {
	key := simKey{cfg: cfg, stages: stages}
	simMu.Lock()
	res, ok := simCache[key]
	simMu.Unlock()
	if ok {
		return res, nil
	}
	res, err := SimulateUncachedContext(ctx, cfg, stages)
	if err != nil {
		return Result{}, err
	}
	simMu.Lock()
	simCache[key] = res
	simMu.Unlock()
	return res, nil
}

// ResetSimulationCache drops every memoised simulation (used by tests and
// benchmarks that need to measure the uncached path).
func ResetSimulationCache() {
	simMu.Lock()
	simCache = map[simKey]Result{}
	simMu.Unlock()
}
