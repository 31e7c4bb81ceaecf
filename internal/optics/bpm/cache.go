package bpm

import "sync"

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

// Simulate returns the cascade simulation result for (cfg, stages),
// propagating at most once per process: results are memoised keyed by the
// full numerical configuration and the stage count, and the first request
// runs SimulateUncached. Concurrent first requests for the same key may
// both propagate; the computation is deterministic, so either result is the
// same. A failed simulation is never cached. The Result's slices are shared
// with the cache entry — a hit is allocation-free — so callers must treat
// ArmPowers and PerArmLossDB as immutable (every in-repo caller only reads
// them).
func Simulate(cfg Config, stages int) (Result, error) {
	key := simKey{cfg: cfg, stages: stages}
	simMu.Lock()
	res, ok := simCache[key]
	simMu.Unlock()
	if ok {
		return res, nil
	}
	res, err := SimulateUncached(cfg, stages)
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
