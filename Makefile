GO ?= go

# Packages with parallel stages or shared caches; `make check` runs these
# under the race detector in addition to the normal test sweep. internal/ilp
# is here for the speculative branch-and-bound workers (the determinism
# tests assert bit-identical trees at Workers=1,2,4,8 under -race).
RACE_PKGS = ./internal/parallel ./internal/selection ./internal/signal \
            ./internal/wdm ./internal/optics/bpm ./internal/obs \
            ./internal/serve ./internal/ilp .

.PHONY: check test race vet docs-lint serve-smoke trace-smoke bench-scale bench-speedup bench-eco load-smoke load-compare eco-smoke dup-smoke loc

check: vet docs-lint test race

vet:
	$(GO) vet ./...

# Enforce 100% doc-comment coverage on the public surface of the flow
# package and the solver substrate (see cmd/docscheck for the audited set).
docs-lint:
	$(GO) vet ./...
	$(GO) run ./cmd/docscheck

# Boot operond in-process, solve one benchmark over real HTTP under a 1 ms
# budget, and assert the response is degraded but valid (the ladder's
# electrical floor observed end to end).
serve-smoke:
	$(GO) run ./cmd/operond -smoke

test:
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# Produce a Chrome trace of a small benchgen case and validate it against
# the trace-event schema. -min-lanes is 1, not the worker count: lanes
# reflect actual goroutine scheduling, and a single-CPU runner funnels the
# whole pool through one lane.
trace-smoke:
	$(GO) run ./cmd/operon -bench I1 -workers 4 -trace /tmp/operon-trace-smoke.json >/dev/null
	$(GO) run ./cmd/tracecheck -stages -min-lanes 1 /tmp/operon-trace-smoke.json

# The wall-clock gates of bench_test.go's workload table. They are
# benchmarks, so `go test ./...` never runs them; each fails below a fixed
# bound. (Counters and allocation profiles are golden tests inside `make
# test`; perfbench/ owns the end-to-end performance claims.)
#
# Scale-frontier smoke: the I6 mega case (~20k nets, 6 cm die) end to end,
# then the exact ILP on its first 300 nets under a 256-node budget, so the
# 10^5-column path stays exercised on every push.
bench-scale:
	$(GO) test -run '^$$' -bench '^BenchmarkScaleI6$$' -benchtime 1x .

# Parallel-speedup gate for multicore runners: the flow, LR pricing and the
# deterministic parallel branch and bound must each beat their Workers=1
# twin by 1.05x, over three alternating runs. With GOMAXPROCS=1 the gate
# skips with a notice: the pair would measure pool overhead, not
# parallelism.
bench-speedup:
	$(GO) test -run '^$$' -bench '^BenchmarkParallelSpeedup$$' -benchtime 3x . ./internal/ilp

# Incremental re-synthesis gate: a session re-solve after a one-pin edit
# must beat the cold I3 solve by 10x.
bench-eco:
	$(GO) test -run '^$$' -bench '^BenchmarkECOSpeedup$$' -benchtime 3x .

# SLO gate: replay a deterministic request mix (hot-key skew, bursts, mixed
# budgets) against the in-process serving stack and fail when client-observed
# p50/p95/p99 latency or the error rate regress beyond generous thresholds
# against the newest committed LOAD_*.json baseline. The *.tmp report path is
# gitignored, so CI never dirties the tree.
load-smoke:
	$(GO) run ./cmd/loadgen -requests 40 -check -out LOAD_smoke.json.tmp

# Fuller local run against the committed baseline: same gate, more requests,
# report left beside the baseline for inspection (still gitignored). The dup
# leg replays the duplicate-heavy mix against its own baseline and addition-
# ally gates the absolute dedup win: >= 5x fewer solves than items at the
# mix's 10:1 duplicate ratio, with bit-identical deduplicated payloads.
load-compare:
	$(GO) run ./cmd/loadgen -requests 120 -check -out LOAD_compare.json.tmp
	$(GO) run ./cmd/loadgen -mix dup -requests 120 -check -min-reduction 5 -min-cache-hits 1 -out LOAD_compare-dup.json.tmp

# Incremental re-synthesis smoke: a tiny concurrent edit-loop (sticky
# sessions, one-pin moves, full-reuse probes) against the in-process server.
# Any request error fails the gate; the session path must stay clean under
# concurrency.
eco-smoke:
	$(GO) run ./cmd/loadgen -mix eco -requests 24 -sessions 3 -max-errors 0 -no-write

# Dedup smoke: replay the duplicate-heavy mix (singles + /solve/batch,
# hot-key skew over six distinct instances) and gate the content-addressed
# serving win — at least 5x fewer solves executed than items issued, at
# least one result-cache hit, zero errors, zero payload mismatches (replayDup
# fails the run itself on any differential mismatch).
dup-smoke:
	$(GO) run ./cmd/loadgen -mix dup -requests 40 -min-reduction 5 -min-cache-hits 1 -max-errors 0 -no-write

# Code-size gauge: non-test Go lines outside the perfbench module. Deleting
# code while bench and load stay unchanged counts as progress, so this is the
# number to watch.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' | xargs cat | wc -l
