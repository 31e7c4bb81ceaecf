package operon

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"operon/internal/benchgen"
	"operon/internal/geom"
	"operon/internal/signal"
)

// ecoDesign generates a small multi-group design for session tests.
func ecoDesign(t *testing.T, groups, bitsPerGroup int, seed int64) signal.Design {
	t.Helper()
	d, err := benchgen.Generate(benchgen.Spec{
		Name:  fmt.Sprintf("eco-%d-%d-%d", groups, bitsPerGroup, seed),
		DieCM: 2.0, Groups: groups, BitsPerGroup: float64(bitsPerGroup),
		BitsJitter: 1, MinSinkClusters: 1, MaxSinkClusters: 2,
		LocalFraction: 0.2, LocalSpanCM: 0.15, GlobalSpanCM: 1.2,
		RegionSpreadCM: 0.02, LanePitchCM: 0.2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// normalizeResult zeroes the wall-clock and tracer fields of a Result so
// two runs compare on solver output alone. Everything else — selections,
// candidates, placements, diagnostics — must match bit-for-bit.
func normalizeResult(r *Result) *Result {
	out := *r
	out.Times = StageTimes{}
	out.Obs = nil
	if r.LR != nil {
		lr := *r.LR
		lr.Elapsed = 0
		out.LR = &lr
	}
	if r.ILP != nil {
		ir := *r.ILP
		ir.Elapsed = 0
		ir.LPTime = 0
		out.ILP = &ir
	}
	return &out
}

// requireIdentical fails unless the session result matches the cold result
// bit-for-bit after normalization.
func requireIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	g, w := normalizeResult(got), normalizeResult(want)
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: session result differs from cold solve\n  session: power=%.6f viol=%d choice=%v degraded=%v\n  cold:    power=%.6f viol=%d choice=%v degraded=%v",
			label, g.PowerMW, g.Selection.Violations, g.Selection.Choice, g.Degraded,
			w.PowerMW, w.Selection.Violations, w.Selection.Choice, w.Degraded)
	}
}

// TestSessionDifferentialRandomEdits is the bit-identity oracle: across
// randomized edit scripts (mixed kinds, several seeds, Workers 0 and >1),
// every Session.Resolve must equal a cold RunContext on the session's
// pending design and config.
func TestSessionDifferentialRandomEdits(t *testing.T) {
	for _, workers := range []int{0, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			workers, seed := workers, seed
			t.Run(fmt.Sprintf("w%d_seed%d", workers, seed), func(t *testing.T) {
				t.Parallel()
				d := ecoDesign(t, 4, 12, 400+seed)
				cfg := DefaultConfig()
				cfg.Workers = workers
				s := NewSession(d, cfg)
				for round := 0; round < 4; round++ {
					if round > 0 {
						ops := benchgen.EditScript(s.Design(), 3, seed*100+int64(round))
						edits, err := EditsFromOps(ops)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := s.Apply(edits...); err != nil {
							t.Fatal(err)
						}
					}
					got, st, err := s.Resolve(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					want, err := RunContext(context.Background(), s.Design(), s.Config())
					if err != nil {
						t.Fatal(err)
					}
					requireIdentical(t, fmt.Sprintf("round %d (stats %+v)", round, st), got, want)
					if round == 0 && !st.Cold {
						t.Fatalf("first resolve should be cold, got %+v", st)
					}
				}
			})
		}
	}
}

// TestSessionEmptyEditScript checks the 100%-reuse path: resolving twice
// with no edits in between must skip every stage and still match cold.
func TestSessionEmptyEditScript(t *testing.T) {
	d := ecoDesign(t, 3, 10, 7)
	cfg := DefaultConfig()
	s := NewSession(d, cfg)
	first, _, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, st, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullReuse {
		t.Fatalf("no-edit resolve should be a full reuse, got %+v", st)
	}
	requireIdentical(t, "full reuse vs first", second, first)
	cold, err := Run(s.Design(), s.Config())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "full reuse vs cold", second, cold)
}

// TestSessionMoveBackIsFullReuse checks that dirtiness is content-derived,
// not edit-derived: moving a terminal and moving it back must fully reuse.
func TestSessionMoveBackIsFullReuse(t *testing.T) {
	d := ecoDesign(t, 3, 10, 11)
	s := NewSession(d, DefaultConfig())
	if _, _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	orig := d.Groups[1].Bits[2].Driver
	moved := geom.Point{X: orig.X + 0.1, Y: orig.Y}
	if _, err := s.Apply(MoveTerminal(1, 2, -1, moved), MoveTerminal(1, 2, -1, orig)); err != nil {
		t.Fatal(err)
	}
	_, st, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullReuse {
		t.Fatalf("move-then-move-back should fully reuse, got %+v", st)
	}
}

// TestSessionSmallEditReuses checks that a single terminal move re-clusters
// only the touched group and reuses the untouched groups' trees and (where
// environments allow) candidate sets.
func TestSessionSmallEditReuses(t *testing.T) {
	d := ecoDesign(t, 4, 12, 21)
	s := NewSession(d, DefaultConfig())
	if _, _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	p := d.Groups[2].Bits[0].Sinks[0]
	if _, err := s.Apply(MoveTerminal(2, 0, 0, geom.Point{X: p.X + 0.02, Y: p.Y})); err != nil {
		t.Fatal(err)
	}
	got, st, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.GroupsRebuilt != 1 || st.GroupsReused != 3 {
		t.Fatalf("expected exactly one dirty group, got %+v", st)
	}
	if st.TreesReused == 0 {
		t.Fatalf("expected tree reuse on clean groups, got %+v", st)
	}
	want, err := Run(s.Design(), s.Config())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "small edit", got, want)
}

// TestSessionEditEveryGroup checks the degenerate case: an edit script
// touching every group rebuilds everything and still matches cold.
func TestSessionEditEveryGroup(t *testing.T) {
	d := ecoDesign(t, 3, 8, 31)
	s := NewSession(d, DefaultConfig())
	if _, _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	var edits []Edit
	for gi := range d.Groups {
		p := d.Groups[gi].Bits[0].Driver
		edits = append(edits, MoveTerminal(gi, 0, -1, geom.Point{X: p.X + 0.05, Y: p.Y + 0.05}))
	}
	if _, err := s.Apply(edits...); err != nil {
		t.Fatal(err)
	}
	got, st, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.GroupsReused != 0 || st.GroupsRebuilt != len(d.Groups) {
		t.Fatalf("expected every group dirty, got %+v", st)
	}
	want, err := Run(s.Design(), s.Config())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "all-groups edit", got, want)
}

// TestSessionBudgetEdit checks a config-only edit: changing the loss budget
// invalidates candidates but reuses clustering and trees, and matches cold.
func TestSessionBudgetEdit(t *testing.T) {
	d := ecoDesign(t, 3, 10, 41)
	s := NewSession(d, DefaultConfig())
	if _, _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(SetMaxLossDB(DefaultConfig().Lib.MaxLossDB * 0.8)); err != nil {
		t.Fatal(err)
	}
	got, st, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.GroupsRebuilt != 0 {
		t.Fatalf("budget edit should not re-cluster, got %+v", st)
	}
	if st.CandsReused != 0 {
		t.Fatalf("budget edit must invalidate every candidate set, got %+v", st)
	}
	want, err := Run(s.Design(), s.Config())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "budget edit", got, want)
}

// TestSessionGroupAddRemove checks structural edits end to end against cold.
func TestSessionGroupAddRemove(t *testing.T) {
	d := ecoDesign(t, 3, 8, 51)
	s := NewSession(d, DefaultConfig())
	if _, _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	extra := ecoDesign(t, 1, 6, 99).Groups[0]
	extra.Name = "eco_added"
	if _, err := s.Apply(AddGroup(extra)); err != nil {
		t.Fatal(err)
	}
	got, st, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.GroupsReused != 3 || st.GroupsRebuilt != 1 {
		t.Fatalf("append should dirty only the new group, got %+v", st)
	}
	want, err := Run(s.Design(), s.Config())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "add group", got, want)

	if _, err := s.Apply(RemoveGroup(0)); err != nil {
		t.Fatal(err)
	}
	got, _, err = s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err = Run(s.Design(), s.Config())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "remove group", got, want)
}

// TestSessionModeILPDifferential runs the oracle under ModeILP: warm cross-
// cache seeding must not perturb the branch-and-bound trajectory.
func TestSessionModeILPDifferential(t *testing.T) {
	d := ecoDesign(t, 3, 8, 61)
	cfg := DefaultConfig()
	cfg.Mode = ModeILP
	cfg.ILPTimeLimit = 30 * time.Second
	s := NewSession(d, cfg)
	if _, _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	p := d.Groups[0].Bits[1].Driver
	if _, err := s.Apply(MoveTerminal(0, 1, -1, geom.Point{X: p.X + 0.03, Y: p.Y})); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(s.Design(), s.Config())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "ilp edit", got, want)
}

// TestSessionConcurrentResolve runs distinct sessions concurrently (each
// owns its workspace) — primarily a race-detector target for `make race`.
func TestSessionConcurrentResolve(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			d := ecoDesign(t, 3, 8, 70+int64(k))
			cfg := DefaultConfig()
			cfg.Workers = 2
			s := NewSession(d, cfg)
			for round := 0; round < 3; round++ {
				if round > 0 {
					ops := benchgen.MoveScript(s.Design(), 2, int64(k*10+round))
					edits, err := EditsFromOps(ops)
					if err != nil {
						errs <- err
						return
					}
					if _, err := s.Apply(edits...); err != nil {
						errs <- err
						return
					}
				}
				got, _, err := s.Resolve(context.Background())
				if err != nil {
					errs <- err
					return
				}
				want, err := RunContext(context.Background(), s.Design(), s.Config())
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(normalizeResult(got), normalizeResult(want)) {
					errs <- fmt.Errorf("session %d round %d: result mismatch", k, round)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSessionDegradedNotCommitted checks the poisoning guard: a resolve
// degraded by an expired context is returned but not committed, and the
// next resolve still diffs against the last good state and matches cold.
func TestSessionDegradedNotCommitted(t *testing.T) {
	d := ecoDesign(t, 3, 10, 81)
	s := NewSession(d, DefaultConfig())
	if _, _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	p := d.Groups[1].Bits[0].Driver
	if _, err := s.Apply(MoveTerminal(1, 0, -1, geom.Point{X: p.X + 0.03, Y: p.Y})); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := s.Resolve(expired)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatalf("resolve under an expired ctx should degrade, got %+v", res.StopReason)
	}
	// The degraded result must not have been committed: a full resolve now
	// still rebuilds the dirty group and matches cold.
	got, st, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded {
		t.Fatal("second resolve should complete")
	}
	if st.GroupsRebuilt != 1 {
		t.Fatalf("degraded resolve must not commit; expected 1 dirty group, got %+v", st)
	}
	want, err := Run(s.Design(), s.Config())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "after degraded resolve", got, want)
}

// TestSessionApplyAtomic checks that a script failing mid-way applies none
// of its edits.
func TestSessionApplyAtomic(t *testing.T) {
	d := ecoDesign(t, 2, 6, 95)
	s := NewSession(d, DefaultConfig())
	before := s.Design()
	_, err := s.Apply(
		MoveTerminal(0, 0, -1, geom.Point{X: 1, Y: 1}),
		MoveTerminal(99, 0, -1, geom.Point{X: 1, Y: 1}), // out of range
	)
	if err == nil {
		t.Fatal("expected an error for the out-of-range edit")
	}
	after := s.Design()
	if !reflect.DeepEqual(before, after) {
		t.Fatal("failed Apply must leave the pending design untouched")
	}
}
