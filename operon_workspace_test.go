package operon

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"operon/internal/obs"
)

// TestWorkspaceReuseBitIdentical is the correctness contract of the
// workspace layer: repeated RunContextWith solves sharing one Workspace —
// across different designs and worker counts — must stay bit-identical to
// fresh-workspace runs. Any cross-worker scratch aliasing or state leaking
// from one run into the next shows up either here (as a result diff) or
// under the race detector, which this test is built to run beneath (the
// root package is part of `make race`).
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	designs := determinismCases(t)
	before := runtime.NumGoroutine()

	// Reference results: fresh workspace, one worker.
	refs := make([]*Result, len(designs))
	for i, d := range designs {
		cfg := DefaultConfig()
		cfg.Workers = 1
		res, err := RunContextWith(context.Background(), d, cfg, nil)
		if err != nil {
			t.Fatalf("%s reference: %v", d.Name, err)
		}
		refs[i] = res
	}

	// One shared workspace serves every subsequent run, interleaving
	// designs and worker counts so slot scratch is reused across both.
	ws := NewWorkspace()
	for round := 0; round < 3; round++ {
		for _, workers := range []int{1, 4, 8} {
			for i, d := range designs {
				cfg := DefaultConfig()
				cfg.Workers = workers
				res, err := RunContextWith(context.Background(), d, cfg, ws)
				if err != nil {
					t.Fatalf("%s round=%d workers=%d: %v", d.Name, round, workers, err)
				}
				ref := refs[i]
				if res.PowerMW != ref.PowerMW {
					t.Errorf("%s round=%d workers=%d: PowerMW %v, want %v",
						d.Name, round, workers, res.PowerMW, ref.PowerMW)
				}
				if !reflect.DeepEqual(res.Selection, ref.Selection) {
					t.Errorf("%s round=%d workers=%d: Selection differs from fresh-workspace run",
						d.Name, round, workers)
				}
				if !reflect.DeepEqual(res.Connections, ref.Connections) {
					t.Errorf("%s round=%d workers=%d: optical connections differ",
						d.Name, round, workers)
				}
				if !reflect.DeepEqual(res.Assignment, ref.Assignment) {
					t.Errorf("%s round=%d workers=%d: WDM assignment differs",
						d.Name, round, workers)
				}
				if res.WDMStats != ref.WDMStats {
					t.Errorf("%s round=%d workers=%d: WDMStats %+v, want %+v",
						d.Name, round, workers, res.WDMStats, ref.WDMStats)
				}
			}
		}
	}
	checkNoGoroutineLeak(t, before)
}

// TestWorkspaceReuseCounters pins the observability contract of a shared
// workspace: across repeated runs the pool never creates more worker
// scratches than it has workers, and every run after the first reuses
// scratch. The pool hands out items work-stealing style, so one run need not
// touch every worker slot, and a later run may create a slot's scratch for
// the first time; only the total is bounded.
func TestWorkspaceReuseCounters(t *testing.T) {
	d := determinismCases(t)[0]
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Obs = obs.New(nil)

	ws := NewWorkspace()
	var reused int64
	for run := 0; run < 3; run++ {
		if _, err := RunContextWith(context.Background(), d, cfg, ws); err != nil {
			t.Fatal(err)
		}
		r := counterValue(t, cfg.Obs, "ws.worker.reuse")
		if run > 0 && r <= reused {
			t.Errorf("run %d on the same workspace reported no scratch reuse", run)
		}
		reused = r
	}
	created := counterValue(t, cfg.Obs, "ws.worker.create")
	if created == 0 {
		t.Fatal("no worker scratch created — Workspace.forEach is not wired in")
	}
	if created > int64(cfg.Workers) {
		t.Errorf("three runs on one workspace created %d worker scratches, want at most %d", created, cfg.Workers)
	}
}

// counterValue reads one counter from a tracer snapshot (0 when absent).
func counterValue(t *testing.T, tr *obs.Tracer, name string) int64 {
	t.Helper()
	for _, c := range tr.Snapshot() {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}
