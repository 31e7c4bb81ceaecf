package selection

import (
	"context"
	"testing"

	"operon/internal/obs"
	"operon/internal/optics"
)

func TestCrossLossCacheConsistency(t *testing.T) {
	lib := optics.DefaultLibrary()
	nets := []Net{
		twoCandNet(0.5, 0, 2, 1.0, 5, 4.0),
		crossingNet(1.0, 0, 1, 1.0, 5, 4.0),
	}
	inst, err := NewInstance(nets, lib, InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := inst.CrossLossDB(0, 0, 1, 0)
	b := inst.CrossLossDB(0, 0, 1, 0)
	if &a[0] != &b[0] {
		t.Error("repeated lookups do not read the same table entry")
	}
	// Self-interaction and electrical candidates produce zero loss.
	if got := inst.CrossLossDB(0, 0, 0, 0); got[0] != 0 {
		t.Errorf("self interaction loss = %v", got)
	}
	if got := inst.CrossLossDB(0, 1, 1, 0); len(got) != 0 {
		t.Errorf("electrical candidate has %d paths", len(got))
	}
	if got := inst.CrossLossDB(0, 0, 1, 1); got[0] != 0 {
		t.Errorf("loss against electrical candidate = %v", got)
	}
}

func TestLRHistoryRecorded(t *testing.T) {
	lib := optics.DefaultLibrary()
	nets := []Net{
		twoCandNet(0.5, 0, 2, 1.0, lib.MaxLossDB-0.3, 3.0),
		crossingNet(1.0, 0, 2, 0.8, lib.MaxLossDB-0.3, 2.5),
		twoCandNet(1.5, 0, 2, 1.2, lib.MaxLossDB-0.3, 3.5),
	}
	inst, err := NewInstance(nets, lib, InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	col := &obs.Collector{}
	lr, err := SolveLR(context.Background(), inst, LROptions{MaxIters: 6, Obs: obs.New(col)})
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.History) != lr.Iters {
		t.Fatalf("history %d entries for %d iterations", len(lr.History), lr.Iters)
	}
	for i, h := range lr.History {
		if h.PowerMW <= 0 {
			t.Errorf("iteration %d: power %v", i, h.PowerMW)
		}
		if h.Violations < 0 {
			t.Errorf("iteration %d: negative violations", i)
		}
		// The multipliers start strictly positive (proportional to p_e), so
		// their norm is positive; the step follows the 1/(iter+1) schedule.
		if h.MultiplierNorm <= 0 {
			t.Errorf("iteration %d: multiplier norm %v", i, h.MultiplierNorm)
		}
		if want := 1.0 / float64(i+1); h.Step != want {
			t.Errorf("iteration %d: step %v, want %v", i, h.Step, want)
		}
		// The linearised dual bound must not exceed the primal power of the
		// same multipliers' pricing by more than the relaxation slack allows;
		// at minimum it is finite and recorded.
		if h.LowerBoundMW != h.LowerBoundMW { // NaN guard
			t.Errorf("iteration %d: NaN lower bound", i)
		}
	}
	// The history is mirrored as lr/iterate obs events, one per iteration.
	if evs := col.EventsNamed("lr/iterate"); len(evs) != lr.Iters {
		t.Errorf("%d lr/iterate events for %d iterations", len(evs), lr.Iters)
	}
	if sp := col.SpansNamed("selection/lr"); len(sp) != 1 {
		t.Errorf("%d selection/lr spans, want 1", len(sp))
	}
	// The final (repaired) solution never has violations.
	if lr.Violations != 0 {
		t.Error("final LR selection illegal")
	}
}

func TestLROptionsRespected(t *testing.T) {
	lib := optics.DefaultLibrary()
	nets := []Net{twoCandNet(0.5, 0, 2, 1.0, 5, 3.0)}
	inst, _ := NewInstance(nets, lib, InstanceOptions{})
	lr, err := SolveLR(context.Background(), inst, LROptions{MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lr.Iters != 1 {
		t.Fatalf("iters = %d, want 1", lr.Iters)
	}
}

func TestRepairIdempotentOnLegal(t *testing.T) {
	lib := optics.DefaultLibrary()
	nets := []Net{
		twoCandNet(0.5, 0, 2, 1.0, 5, 3.0),
		twoCandNet(1.5, 0, 2, 1.0, 5, 3.0),
	}
	inst, _ := NewInstance(nets, lib, InstanceOptions{})
	sel, err := inst.Evaluate([]int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Violations != 0 {
		t.Fatal("setup: selection should be legal")
	}
	repaired, err := inst.Repair(sel)
	if err != nil {
		t.Fatal(err)
	}
	for i := range repaired.Choice {
		if repaired.Choice[i] != sel.Choice[i] {
			t.Fatal("repair modified a legal selection")
		}
	}
}

func BenchmarkSolveLR(b *testing.B) {
	lib := optics.DefaultLibrary()
	var nets []Net
	for i := 0; i < 60; i++ {
		y := float64(i) * 0.05
		nets = append(nets, twoCandNet(y, 0, 2, 1.0, lib.MaxLossDB-2, 3.0))
		nets = append(nets, crossingNet(0.5+float64(i)*0.02, 0, 2, 1.0, lib.MaxLossDB-2, 3.0))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := NewInstance(nets, lib, InstanceOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := SolveLR(context.Background(), inst, LROptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
