// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure (run with `go test -bench=. -benchmem`):
//
//   - BenchmarkTable1/* time the four Table-1 flows (Electrical [14],
//     Optical [4], OPERON-LR per case, OPERON-ILP on a reduced case);
//   - BenchmarkFig3b times the FD-BPM Y-branch cascade simulation (the
//     uncached solver; BenchmarkFig3bCached measures the memoized path);
//   - BenchmarkFig8 times the WDM placement + min-cost-flow assignment;
//   - BenchmarkFig9 times the hotspot-map computation;
//   - BenchmarkLRPricing times the Lagrangian selection stage alone;
//   - BenchmarkILP times the exact selection solve (branch and bound with
//     warm-started revised-simplex relaxations) root-to-proven-optimal;
//   - BenchmarkBI1S times the incremental Batched Iterated 1-Steiner.
//
// cmd/bench runs the same workloads programmatically and emits a
// machine-readable BENCH_<date>.json for the perf trajectory.
package operon_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	operon "operon"
	"operon/internal/benchgen"
	"operon/internal/geom"
	"operon/internal/ilp"
	"operon/internal/obs"
	"operon/internal/optics/bpm"
	"operon/internal/selection"
	"operon/internal/signal"
	"operon/internal/steiner"
	"operon/internal/wdm"
)

// design loads a Table-1 benchmark, failing the benchmark on error.
func design(b *testing.B, name string) signal.Design {
	b.Helper()
	spec, err := benchgen.SpecByName(name)
	if err != nil {
		b.Fatal(err)
	}
	d, err := benchgen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// ilpDesign is a reduced I3-style case on which the branch-and-bound ILP
// finishes quickly enough to benchmark.
func ilpDesign(b *testing.B) signal.Design {
	b.Helper()
	d, err := benchgen.Generate(benchgen.Spec{
		Name: "I3s", DieCM: 4, Groups: 24, BitsPerGroup: 30, BitsJitter: 1,
		MinSinkClusters: 1, MaxSinkClusters: 1, LocalFraction: 0.15,
		LocalSpanCM: 0.15, GlobalSpanCM: 1.9, RegionSpreadCM: 0.02,
		LanePitchCM: 0.2, Seed: 103,
	})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkTable1(b *testing.B) {
	b.Run("Electrical/I2", func(b *testing.B) {
		d := design(b, "I2")
		cfg := operon.DefaultConfig()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := operon.RunElectrical(d, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Optical/I2", func(b *testing.B) {
		d := design(b, "I2")
		cfg := operon.DefaultConfig()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := operon.RunOptical(d, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, name := range []string{"I1", "I2", "I3", "I4", "I5"} {
		b.Run("OperonLR/"+name, func(b *testing.B) {
			d := design(b, name)
			cfg := operon.DefaultConfig()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := operon.Run(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("OperonILP/I3small", func(b *testing.B) {
		d := ilpDesign(b)
		cfg := operon.DefaultConfig()
		cfg.Mode = operon.ModeILP
		cfg.ILPTimeLimit = 30 * time.Second
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := operon.Run(d, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.ILP.TimedOut {
				b.Fatal("ILP benchmark case timed out; shrink the case")
			}
		}
	})
}

// BenchmarkILP isolates the exact selection solve (branch and bound from
// the root relaxation to proven optimality) on the reduced I3-style case,
// excluding candidate generation. This is the workload the warm-started
// revised simplex is built for.
func BenchmarkILP(b *testing.B) {
	d := ilpDesign(b)
	cfg := operon.DefaultConfig()
	cfg.SkipWDM = true
	res, err := operon.Run(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := selection.NewInstance(res.Nets, cfg.Lib)
	if err != nil {
		b.Fatal(err)
	}
	// One throwaway solve warms the cross-loss caches.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := selection.SolveILP(inst, selection.ILPOptions{Ctx: ctx}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		ir, err := selection.SolveILP(inst, selection.ILPOptions{Ctx: ctx})
		cancel()
		if err != nil {
			b.Fatal(err)
		}
		if ir.TimedOut || ir.Status != ilp.Optimal {
			b.Fatalf("ILP did not prove optimality (status %v, timedOut %v)", ir.Status, ir.TimedOut)
		}
	}
}

// BenchmarkObsOverhead measures the cost of the observability layer on the
// end-to-end flow: Nil is the production default (Config.Obs == nil, the
// whole instrumentation path reduces to nil checks), Telemetry is the
// operond serving configuration (counters and per-stage latency histograms
// recorded, spans discarded — obs.New(nil)), Nop pays span/event recording
// into a discarding sink, Collector additionally retains everything in
// memory. Nil vs the committed BENCH numbers is the < 2% regression budget;
// Nil vs Telemetry bounds what the serving metrics cost; Nil vs Nop bounds
// what turning tracing on costs.
func BenchmarkObsOverhead(b *testing.B) {
	d := design(b, "I1")
	for _, tc := range []struct {
		name   string
		tracer func() *obs.Tracer // nil = run uninstrumented
	}{
		{"Nil", nil},
		{"Telemetry", func() *obs.Tracer { return obs.New(nil) }},
		{"Nop", func() *obs.Tracer { return obs.New(obs.Nop{}) }},
		{"Collector", func() *obs.Tracer { return obs.New(&obs.Collector{}) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := operon.DefaultConfig()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.tracer != nil {
					cfg.Obs = tc.tracer()
				}
				if _, err := operon.Run(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig3b(b *testing.B) {
	cfg := bpm.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bpm.SimulateUncached(cfg, 2)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.ArmPowers) != 4 {
			b.Fatal("unexpected arm count")
		}
	}
}

func BenchmarkFig3bCached(b *testing.B) {
	// The memoized path most callers hit: one propagation per process, then
	// cache hits (a deep copy of the small Result).
	cfg := bpm.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bpm.Simulate(cfg, 2)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.ArmPowers) != 4 {
			b.Fatal("unexpected arm count")
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	// Time the §4 WDM pipeline (placement sweep + min-cost max-flow
	// assignment) on the optical connections of an OPERON run on I4, the
	// case with the richest consolidation structure.
	d := design(b, "I4")
	cfg := operon.DefaultConfig()
	cfg.SkipWDM = true
	res, err := operon.Run(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var conns []wdm.Connection
	for i, j := range res.Selection.Choice {
		for _, seg := range res.Nets[i].Cands[j].OpticalSegs {
			conns = append(conns, wdm.Connection{Seg: seg, Bits: res.Nets[i].Bits, Net: i})
		}
	}
	wcfg := wdm.Config{
		Capacity:        cfg.Lib.WDMCapacity,
		MinSpacingCM:    cfg.Lib.CrosstalkMinDistCM,
		MaxAssignDistCM: cfg.Lib.AssignMaxDistCM,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := wdm.Run(conns, wcfg); err != nil {
			b.Fatal(err)
		}
	}
}

// lrInstance builds a selection instance from the I2 candidate sets so the
// pricing stage can be benchmarked in isolation.
func lrInstance(b *testing.B) *selection.Instance {
	b.Helper()
	d := design(b, "I2")
	cfg := operon.DefaultConfig()
	cfg.SkipWDM = true
	res, err := operon.Run(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := selection.NewInstance(res.Nets, cfg.Lib)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the cross-loss cache so worker-count variants compare fairly.
	if _, err := selection.SolveLR(inst, selection.LROptions{}); err != nil {
		b.Fatal(err)
	}
	return inst
}

func BenchmarkLRPricing(b *testing.B) {
	inst := lrInstance(b)
	for _, bench := range []struct {
		name    string
		workers int
	}{{"Workers1", 1}, {"WorkersN", 0}} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lr, err := selection.SolveLR(inst, selection.LROptions{Workers: bench.workers})
				if err != nil {
					b.Fatal(err)
				}
				if lr.Selection.Violations != 0 {
					b.Fatal("unrepaired violations")
				}
			}
		})
	}
}

func BenchmarkBI1S(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	terms := make([]geom.Point, 24)
	for i := range terms {
		terms[i] = geom.Point{X: rng.Float64() * 4, Y: rng.Float64() * 4}
	}
	for _, metric := range []steiner.Metric{steiner.Rectilinear, steiner.Euclidean} {
		b.Run(metric.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := steiner.BI1S(terms, metric, steiner.BI1SConfig{})
				if err := tr.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig9(b *testing.B) {
	// Time the hotspot-map binning for both layers on the I2 result.
	d := design(b, "I2")
	cfg := operon.DefaultConfig()
	res, err := operon.Run(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := operon.Hotspots(res, d.Die, 24, 48, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
