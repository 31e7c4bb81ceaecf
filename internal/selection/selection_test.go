package selection

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"operon/internal/codesign"
	"operon/internal/geom"
	"operon/internal/ilp"
	"operon/internal/optics"
	"operon/internal/power"
	"operon/internal/steiner"
)

// twoCandNet builds a net with one optical candidate (a single horizontal
// waveguide at height y from x0 to x1, with the given power and fixed loss)
// and one electrical fallback.
func twoCandNet(y, x0, x1, optPower, fixedLoss, elecPower float64) Net {
	seg := geom.Segment{A: geom.Point{X: x0, Y: y}, B: geom.Point{X: x1, Y: y}}
	opt := codesign.Candidate{
		Labels:  []codesign.Label{codesign.Optical},
		PowerMW: optPower,
		Paths: []codesign.Path{{
			Segs:        []geom.Segment{seg},
			FixedLossDB: fixedLoss,
		}},
		OpticalSegs:    []geom.Segment{seg},
		NumMod:         1,
		NumDet:         1,
		MaxFixedLossDB: fixedLoss,
	}
	elec := codesign.Candidate{
		Labels:        []codesign.Label{codesign.Electrical},
		PowerMW:       elecPower,
		AllElectrical: true,
	}
	return Net{Bits: 16, Cands: []codesign.Candidate{opt, elec}}
}

// crossingNet builds a net whose waveguide is vertical, crossing horizontal
// nets in its x range.
func crossingNet(x, y0, y1, optPower, fixedLoss, elecPower float64) Net {
	seg := geom.Segment{A: geom.Point{X: x, Y: y0}, B: geom.Point{X: x, Y: y1}}
	n := twoCandNet(0, 0, 0, optPower, fixedLoss, elecPower)
	n.Cands[0].Paths[0].Segs = []geom.Segment{seg}
	n.Cands[0].OpticalSegs = []geom.Segment{seg}
	return n
}

func TestNewInstanceValidation(t *testing.T) {
	lib := optics.DefaultLibrary()
	if _, err := NewInstance(nil, lib, InstanceOptions{}); err == nil {
		t.Error("empty instance accepted")
	}
	noFallback := Net{Bits: 1, Cands: []codesign.Candidate{{PowerMW: 1}}}
	if _, err := NewInstance([]Net{noFallback}, lib, InstanceOptions{}); err == nil {
		t.Error("net without electrical fallback accepted")
	}
	bad := lib
	bad.MaxLossDB = -1
	if _, err := NewInstance([]Net{twoCandNet(0, 0, 1, 1, 1, 2)}, bad, InstanceOptions{}); err == nil {
		t.Error("invalid library accepted")
	}
}

func TestEvaluatePowerAndLegal(t *testing.T) {
	lib := optics.DefaultLibrary()
	nets := []Net{
		twoCandNet(0, 0, 2, 1.0, 3.0, 4.0),
		twoCandNet(1, 0, 2, 1.5, 3.0, 5.0),
	}
	inst, err := NewInstance(nets, lib, InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := inst.Evaluate([]int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sel.PowerMW-2.5) > 1e-12 {
		t.Errorf("power %v, want 2.5", sel.PowerMW)
	}
	if sel.Violations != 0 {
		t.Errorf("parallel guides should not violate: %+v", sel)
	}
	sel, err = inst.Evaluate([]int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sel.PowerMW-9) > 1e-12 {
		t.Errorf("electrical power %v, want 9", sel.PowerMW)
	}
}

func TestEvaluateRejectsBadChoice(t *testing.T) {
	lib := optics.DefaultLibrary()
	inst, _ := NewInstance([]Net{twoCandNet(0, 0, 1, 1, 1, 2)}, lib, InstanceOptions{})
	if _, err := inst.Evaluate([]int{5}); err == nil {
		t.Error("out-of-range choice accepted")
	}
	if _, err := inst.Evaluate([]int{0, 0}); err == nil {
		t.Error("wrong-length choice accepted")
	}
}

func TestCrossingLossDetected(t *testing.T) {
	lib := optics.DefaultLibrary()
	// Horizontal net near the budget; a vertical net crosses it.
	nets := []Net{
		twoCandNet(0.5, 0, 2, 1.0, lib.MaxLossDB-0.1, 4.0),
		crossingNet(1.0, 0, 1, 1.0, 1.0, 4.0),
	}
	inst, err := NewInstance(nets, lib, InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lx := inst.CrossLossDB(0, 0, 1, 0)
	if math.Abs(lx[0]-lib.BetaDBPerCrossing) > 1e-12 {
		t.Fatalf("cross loss %v, want β=%v", lx[0], lib.BetaDBPerCrossing)
	}
	sel, err := inst.Evaluate([]int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Violations != 1 {
		t.Fatalf("want 1 violation from the crossing, got %d", sel.Violations)
	}
	// Selecting the vertical net's electrical candidate removes the
	// violation.
	sel, err = inst.Evaluate([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Violations != 0 {
		t.Fatalf("violation persists without the crossing: %+v", sel)
	}
}

func TestRepairProducesLegalSelection(t *testing.T) {
	lib := optics.DefaultLibrary()
	nets := []Net{
		twoCandNet(0.5, 0, 2, 1.0, lib.MaxLossDB-0.1, 4.0),
		crossingNet(1.0, 0, 1, 1.0, lib.MaxLossDB-0.1, 4.0),
	}
	inst, _ := NewInstance(nets, lib, InstanceOptions{})
	sel, _ := inst.Evaluate([]int{0, 0})
	if sel.Violations == 0 {
		t.Fatal("test setup: expected initial violations")
	}
	repaired, err := inst.Repair(sel)
	if err != nil {
		t.Fatal(err)
	}
	if repaired.Violations != 0 {
		t.Fatalf("repair left %d violations", repaired.Violations)
	}
	// Exactly one of the two nets should have been demoted.
	demoted := 0
	for i, j := range repaired.Choice {
		if j == nets[i].ElectricalIndex() {
			demoted++
		}
	}
	if demoted != 1 {
		t.Errorf("%d nets demoted, want 1", demoted)
	}
}

func TestInteractingNetsBBoxPrune(t *testing.T) {
	lib := optics.DefaultLibrary()
	nets := []Net{
		twoCandNet(0, 0, 1, 1, 1, 2),
		crossingNet(0.5, -0.5, 0.5, 1, 1, 2), // crosses net 0's span
		twoCandNet(50, 50, 51, 1, 1, 2),      // far away
	}
	inst, _ := NewInstance(nets, lib, InstanceOptions{})
	inter := inst.InteractingNets(0)
	if len(inter) != 1 || inter[0] != 1 {
		t.Fatalf("InteractingNets(0) = %v, want [1]", inter)
	}
	if got := inst.InteractingNets(2); len(got) != 0 {
		t.Fatalf("InteractingNets(2) = %v, want empty", got)
	}
}

// bruteForceBest enumerates all choice vectors and returns the minimum
// legal power.
func bruteForceBest(t *testing.T, inst *Instance) float64 {
	t.Helper()
	best := math.Inf(1)
	var rec func(i int, choice []int)
	rec = func(i int, choice []int) {
		if i == len(inst.Nets) {
			sel, err := inst.Evaluate(choice)
			if err != nil {
				t.Fatal(err)
			}
			if sel.Violations == 0 && sel.PowerMW < best {
				best = sel.PowerMW
			}
			return
		}
		for j := range inst.Nets[i].Cands {
			choice[i] = j
			rec(i+1, choice)
		}
	}
	rec(0, make([]int, len(inst.Nets)))
	return best
}

func TestILPMatchesBruteForce(t *testing.T) {
	lib := optics.DefaultLibrary()
	// Three nets; the middle one crosses both others; budgets are tight so
	// at most one crossing is tolerable per path.
	nets := []Net{
		twoCandNet(0.5, 0, 2, 1.0, lib.MaxLossDB-0.6, 3.0),
		twoCandNet(1.5, 0, 2, 1.2, lib.MaxLossDB-0.6, 3.5),
		crossingNet(1.0, 0, 2, 0.8, lib.MaxLossDB-0.6, 2.5),
	}
	inst, err := NewInstance(nets, lib, InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveILP(context.Background(), inst, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("ILP selection illegal: %+v", res.Selection)
	}
	want := bruteForceBest(t, inst)
	if math.Abs(res.PowerMW-want) > 1e-6 {
		t.Errorf("ILP power %v, want brute-force %v", res.PowerMW, want)
	}
}

func TestILPRandomInstancesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lib := optics.DefaultLibrary()
	for trial := 0; trial < 8; trial++ {
		var nets []Net
		n := 3 + rng.Intn(2)
		for i := 0; i < n; i++ {
			loss := lib.MaxLossDB - 1.5 + rng.Float64()*1.4
			if i%2 == 0 {
				nets = append(nets, twoCandNet(float64(i)*0.4, 0, 2,
					0.5+rng.Float64(), loss, 2+rng.Float64()*2))
			} else {
				nets = append(nets, crossingNet(0.5+float64(i)*0.3, -1, 2,
					0.5+rng.Float64(), loss, 2+rng.Float64()*2))
			}
		}
		inst, err := NewInstance(nets, lib, InstanceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveILP(context.Background(), inst, ILPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceBest(t, inst)
		if res.Violations != 0 {
			t.Fatalf("trial %d: illegal ILP selection", trial)
		}
		if res.PowerMW > want+1e-6 {
			t.Errorf("trial %d: ILP power %v worse than brute force %v",
				trial, res.PowerMW, want)
		}
	}
}

func TestLRLegalAndReasonable(t *testing.T) {
	lib := optics.DefaultLibrary()
	nets := []Net{
		twoCandNet(0.5, 0, 2, 1.0, lib.MaxLossDB-0.6, 3.0),
		twoCandNet(1.5, 0, 2, 1.2, lib.MaxLossDB-0.6, 3.5),
		crossingNet(1.0, 0, 2, 0.8, lib.MaxLossDB-0.6, 2.5),
	}
	inst, err := NewInstance(nets, lib, InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := SolveLR(context.Background(), inst, LROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lr.Violations != 0 {
		t.Fatalf("LR selection illegal: %+v", lr.Selection)
	}
	if lr.Iters < 1 || lr.Iters > 10 {
		t.Errorf("LR iters = %d, want 1..10", lr.Iters)
	}
	allE, _ := inst.AllElectrical()
	if lr.PowerMW > allE.PowerMW+1e-9 {
		t.Errorf("LR power %v worse than all-electrical %v", lr.PowerMW, allE.PowerMW)
	}
	want := bruteForceBest(t, inst)
	// LR is a heuristic: allow slack but it must be in the ballpark.
	if lr.PowerMW > want*1.5+1e-9 {
		t.Errorf("LR power %v far from optimum %v", lr.PowerMW, want)
	}
}

func TestGreedyIndependentLegal(t *testing.T) {
	lib := optics.DefaultLibrary()
	nets := []Net{
		twoCandNet(0.5, 0, 2, 1.0, lib.MaxLossDB-0.1, 3.0),
		crossingNet(1.0, 0, 1, 1.0, lib.MaxLossDB-0.1, 3.0),
	}
	inst, _ := NewInstance(nets, lib, InstanceOptions{})
	sel, err := inst.GreedyIndependent()
	if err != nil {
		t.Fatal(err)
	}
	if sel.Violations != 0 {
		t.Fatalf("greedy selection illegal: %+v", sel)
	}
}

func TestILPTimeoutFallsBackLegally(t *testing.T) {
	lib := optics.DefaultLibrary()
	rng := rand.New(rand.NewSource(9))
	var nets []Net
	for i := 0; i < 12; i++ {
		y := rng.Float64() * 2
		nets = append(nets, twoCandNet(y, 0, 2, 0.5+rng.Float64(),
			lib.MaxLossDB-1+rng.Float64(), 2+rng.Float64()))
		nets = append(nets, crossingNet(rng.Float64()*2, 0, 2, 0.5+rng.Float64(),
			lib.MaxLossDB-1+rng.Float64(), 2+rng.Float64()))
	}
	inst, err := NewInstance(nets, lib, InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := SolveILP(ctx, inst, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("timed-out ILP returned illegal selection")
	}
	if len(res.Choice) != len(nets) {
		t.Fatalf("selection incomplete")
	}
}

func TestEndToEndWithCodesignCandidates(t *testing.T) {
	// Full integration: generate candidates with the real DP and select.
	lib := optics.DefaultLibrary()
	elec := power.DefaultElectricalModel()
	rng := rand.New(rand.NewSource(31))
	var nets []Net
	for i := 0; i < 6; i++ {
		var terms []geom.Point
		for k := 0; k < 3; k++ {
			terms = append(terms, geom.Point{X: rng.Float64() * 3, Y: rng.Float64() * 3})
		}
		tr := steiner.BI1S(terms, steiner.Euclidean, nil)
		cands, err := codesign.Generate(codesign.Input{
			Tree: tr, Bits: 16, Lib: lib, Elec: elec,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, Net{Bits: 16, Cands: cands})
	}
	inst, err := NewInstance(nets, lib, InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	ires, err := SolveILP(ctx, inst, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lres, err := SolveLR(context.Background(), inst, LROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ires.Violations != 0 || lres.Violations != 0 {
		t.Fatal("illegal selections")
	}
	allE, _ := inst.AllElectrical()
	if ires.PowerMW > allE.PowerMW+1e-9 {
		t.Errorf("ILP %v worse than all-electrical %v", ires.PowerMW, allE.PowerMW)
	}
	if ires.Status == ilp.Optimal && lres.PowerMW < ires.PowerMW-1e-6 {
		t.Errorf("LR %v beats optimal ILP %v", lres.PowerMW, ires.PowerMW)
	}
}
