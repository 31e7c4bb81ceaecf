package operon

import (
	"context"
	"reflect"
	"testing"
	"time"

	"operon/internal/benchgen"
	"operon/internal/signal"
)

// determinismCases are two structurally different benchgen cases: a mixed
// local/global bus design and a many-small-groups design with multiple sink
// clusters per bit.
func determinismCases(t *testing.T) []signal.Design {
	t.Helper()
	specs := []benchgen.Spec{
		{
			Name: "det-a", DieCM: 4, Groups: 24, BitsPerGroup: 8, BitsJitter: 2,
			MinSinkClusters: 1, MaxSinkClusters: 3, LocalFraction: 0.3,
			LocalSpanCM: 0.3, GlobalSpanCM: 2.0, RegionSpreadCM: 0.02, Seed: 7,
		},
		{
			Name: "det-b", DieCM: 5, Groups: 40, BitsPerGroup: 5, BitsJitter: 1,
			MinSinkClusters: 2, MaxSinkClusters: 4, LocalFraction: 0.15,
			LocalSpanCM: 0.2, GlobalSpanCM: 2.5, RegionSpreadCM: 0.03,
			LanePitchCM: 0.25, Seed: 42,
		},
	}
	out := make([]signal.Design, len(specs))
	for i, s := range specs {
		d, err := benchgen.Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d
	}
	return out
}

// TestRunDeterministicAcrossWorkerCounts is the output-equivalence guarantee
// of the worker pool: every parallel stage (signal processing, baseline
// construction, candidate generation, crossing-loss table, LR pricing) must
// produce byte-identical results at Workers: 1 and Workers: 8.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, d := range determinismCases(t) {
		cfg := DefaultConfig()
		cfg.Workers = 1
		seq, err := Run(d, cfg)
		if err != nil {
			t.Fatalf("%s workers=1: %v", d.Name, err)
		}
		cfg.Workers = 8
		par, err := Run(d, cfg)
		if err != nil {
			t.Fatalf("%s workers=8: %v", d.Name, err)
		}
		if seq.PowerMW != par.PowerMW {
			t.Errorf("%s: PowerMW %v (workers=1) != %v (workers=8)",
				d.Name, seq.PowerMW, par.PowerMW)
		}
		if !reflect.DeepEqual(seq.Selection, par.Selection) {
			t.Errorf("%s: Selection differs across worker counts:\n1: %+v\n8: %+v",
				d.Name, seq.Selection, par.Selection)
		}
		if seq.WDMStats != par.WDMStats {
			t.Errorf("%s: WDMStats %+v (workers=1) != %+v (workers=8)",
				d.Name, seq.WDMStats, par.WDMStats)
		}
		if !reflect.DeepEqual(seq.Connections, par.Connections) {
			t.Errorf("%s: optical connections differ across worker counts", d.Name)
		}
		if !reflect.DeepEqual(seq.Assignment, par.Assignment) {
			t.Errorf("%s: WDM assignment differs across worker counts", d.Name)
		}
	}
}

// TestRunContextMatchesRun is the determinism guarantee of the cancellation
// machinery: with a deadline generous enough to never fire, RunContext must
// produce results bit-identical to Run — the ctx checks may cost time but
// must never alter control flow before the deadline.
func TestRunContextMatchesRun(t *testing.T) {
	for _, d := range determinismCases(t) {
		for _, mode := range []Mode{ModeLR, ModeILP} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			plain, err := Run(d, cfg)
			if err != nil {
				t.Fatalf("%s/%s: Run: %v", d.Name, mode, err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
			bounded, err := RunContext(ctx, d, cfg)
			cancel()
			if err != nil {
				t.Fatalf("%s/%s: RunContext: %v", d.Name, mode, err)
			}
			if bounded.Degraded || bounded.StopReason != StopNone {
				t.Fatalf("%s/%s: unbounded-in-practice run degraded: %q",
					d.Name, mode, bounded.StopReason)
			}
			if plain.PowerMW != bounded.PowerMW {
				t.Errorf("%s/%s: PowerMW %v (Run) != %v (RunContext)",
					d.Name, mode, plain.PowerMW, bounded.PowerMW)
			}
			if !reflect.DeepEqual(plain.Selection, bounded.Selection) {
				t.Errorf("%s/%s: Selection differs between Run and RunContext", d.Name, mode)
			}
			if !reflect.DeepEqual(plain.Connections, bounded.Connections) {
				t.Errorf("%s/%s: optical connections differ", d.Name, mode)
			}
			if !reflect.DeepEqual(plain.Assignment, bounded.Assignment) {
				t.Errorf("%s/%s: WDM assignment differs", d.Name, mode)
			}
			if plain.WDMStats != bounded.WDMStats {
				t.Errorf("%s/%s: WDMStats %+v (Run) != %+v (RunContext)",
					d.Name, mode, plain.WDMStats, bounded.WDMStats)
			}
		}
	}
}
