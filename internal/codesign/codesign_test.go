package codesign

import (
	"math"
	"math/rand"
	"testing"

	"operon/internal/geom"
	"operon/internal/optics"
	"operon/internal/power"
	"operon/internal/steiner"
)

func testInput(terminals []geom.Point, bits int) Input {
	return Input{
		Tree: steiner.BI1S(terminals, steiner.Euclidean, nil),
		Bits: bits,
		Lib:  optics.DefaultLibrary(),
		Elec: power.DefaultElectricalModel(),
	}
}

func randTerminals(n int, seed int64, spread float64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * spread, Y: rng.Float64() * spread}
	}
	return pts
}

func TestGenerateValidation(t *testing.T) {
	in := testInput(randTerminals(3, 1, 2), 8)
	in.Bits = 0
	if _, err := Generate(in, nil); err == nil {
		t.Error("bits 0 accepted")
	}
	in = testInput(randTerminals(3, 1, 2), 8)
	in.Lib.MaxLossDB = 0
	if _, err := Generate(in, nil); err == nil {
		t.Error("invalid library accepted")
	}
}

func TestGenerateAlwaysIncludesElectricalFallback(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		in := testInput(randTerminals(4, seed, 3), 16)
		cands, err := Generate(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) == 0 {
			t.Fatal("no candidates")
		}
		last := cands[len(cands)-1]
		if !last.AllElectrical {
			t.Fatal("last candidate is not the electrical fallback")
		}
		if last.NumMod != 0 || last.NumDet != 0 || len(last.OpticalSegs) != 0 {
			t.Fatalf("electrical fallback has optical content: %+v", last)
		}
		count := 0
		for _, c := range cands {
			if c.AllElectrical {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("%d electrical fallbacks, want 1", count)
		}
	}
}

func TestTwoPinCandidates(t *testing.T) {
	// A long 2-pin connection: candidates must include the fully optical
	// route (1 modulator, 1 detector) and the electrical fallback.
	in := testInput([]geom.Point{{X: 0, Y: 0}, {X: 3, Y: 0}}, 16)
	cands, err := Generate(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	var optical *Candidate
	for i := range cands {
		if !cands[i].AllElectrical {
			optical = &cands[i]
		}
	}
	if optical == nil {
		t.Fatal("no optical candidate for a long 2-pin net")
	}
	if optical.NumMod != 1 || optical.NumDet != 1 {
		t.Errorf("optical 2-pin: mod=%d det=%d, want 1/1", optical.NumMod, optical.NumDet)
	}
	if len(optical.Paths) != 1 {
		t.Fatalf("optical 2-pin paths = %d, want 1", len(optical.Paths))
	}
	wantLoss := 1.5 * 3 // α · 3 cm, no splits, no crossings
	if math.Abs(optical.Paths[0].FixedLossDB-wantLoss) > 1e-9 {
		t.Errorf("path loss = %v, want %v", optical.Paths[0].FixedLossDB, wantLoss)
	}
	// Optical should beat electrical on power for this distance at 16 bits.
	elec := cands[len(cands)-1]
	if optical.PowerMW >= elec.PowerMW {
		t.Errorf("optical %v mW not cheaper than electrical %v mW",
			optical.PowerMW, elec.PowerMW)
	}
}

func TestShortNetPrefersElectrical(t *testing.T) {
	// A very short connection: EO/OE conversion overhead dominates, so the
	// cheapest candidate should be the electrical one.
	in := testInput([]geom.Point{{X: 0, Y: 0}, {X: 0.05, Y: 0}}, 4)
	cands, err := Generate(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	best := cands[0]
	for _, c := range cands {
		if c.PowerMW < best.PowerMW {
			best = c
		}
	}
	if !best.AllElectrical {
		t.Errorf("short net best candidate uses optics: %+v", best)
	}
}

func TestSplittingLossAccounted(t *testing.T) {
	// A symmetric 1-source 2-sink star: the fully-optical solution splits
	// at the source or at a Steiner point; either way each path must carry
	// ≈3.01 dB splitting loss.
	in := testInput([]geom.Point{
		{X: 0, Y: 0}, {X: 2, Y: 1}, {X: 2, Y: -1},
	}, 16)
	cands, err := Generate(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	var full *Candidate
	for i := range cands {
		c := &cands[i]
		if c.NumDet == 2 && c.NumMod == 1 {
			full = c
			break
		}
	}
	if full == nil {
		t.Skip("no fully-optical candidate survived (budget)")
	}
	for _, p := range full.Paths {
		if p.FixedLossDB < optics.SplittingLossDB(2)-1e-9 {
			t.Errorf("path loss %v lacks splitting loss", p.FixedLossDB)
		}
	}
}

func TestLossBudgetFiltersCandidates(t *testing.T) {
	// With a tiny budget nothing optical survives.
	in := testInput(randTerminals(5, 3, 4), 8)
	in.Lib.MaxLossDB = 0.01
	cands, err := Generate(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if !c.AllElectrical {
			t.Fatalf("candidate with optics survived a 0.01 dB budget: %+v", c)
		}
	}
}

func TestEvaluateMatchesGenerate(t *testing.T) {
	// Every candidate's recorded power must equal an independent
	// re-evaluation of its labeling.
	for seed := int64(0); seed < 15; seed++ {
		in := testInput(randTerminals(4, seed, 3), 8)
		cands, err := Generate(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cands {
			re, feasible := Evaluate(in, c.Labels, nil)
			if !feasible {
				t.Errorf("seed %d cand %d: infeasible on re-evaluation", seed, i)
			}
			if math.Abs(re.PowerMW-c.PowerMW) > 1e-9 {
				t.Errorf("seed %d cand %d: power %v vs re-eval %v",
					seed, i, c.PowerMW, re.PowerMW)
			}
			if re.NumMod != c.NumMod || re.NumDet != c.NumDet {
				t.Errorf("seed %d cand %d: conversions differ", seed, i)
			}
		}
	}
}

// enumerateBest exhaustively labels all edges and returns the minimum
// feasible power — the brute-force oracle for the DP.
func enumerateBest(in Input) float64 {
	nE := len(in.Tree.Edges)
	best := math.Inf(1)
	for mask := 0; mask < 1<<nE; mask++ {
		labels := make([]Label, nE)
		for i := 0; i < nE; i++ {
			if mask&(1<<i) != 0 {
				labels[i] = Optical
			}
		}
		c, feasible := Evaluate(in, labels, nil)
		if feasible && c.PowerMW < best {
			best = c.PowerMW
		}
	}
	return best
}

func TestDPMatchesExhaustiveEnumeration(t *testing.T) {
	// Property: the DP's cheapest candidate equals the cheapest feasible
	// labeling found by brute force (over small trees).
	for seed := int64(0); seed < 25; seed++ {
		n := 3 + int(seed%3)
		in := testInput(randTerminals(n, seed*7+1, 3), 8)
		if len(in.Tree.Edges) > 12 {
			continue
		}
		cands, err := Generate(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		dpBest := math.Inf(1)
		for _, c := range cands {
			if c.PowerMW < dpBest {
				dpBest = c.PowerMW
			}
		}
		oracle := enumerateBest(in)
		if math.Abs(dpBest-oracle) > 1e-6 {
			t.Errorf("seed %d: DP best %.6f vs oracle %.6f", seed, dpBest, oracle)
		}
	}
}

func TestCrossingEnvironmentRaisesLoss(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 0}}
	base := testInput(pts, 8)
	noEnv, err := Generate(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Add many crossing waveguides over the route.
	withEnv := base
	for i := 0; i < 5; i++ {
		x := 0.5 + float64(i)*0.5
		withEnv.Env = append(withEnv.Env, geom.Segment{
			A: geom.Point{X: x, Y: -1}, B: geom.Point{X: x, Y: 1},
		})
	}
	envCands, err := Generate(withEnv, nil)
	if err != nil {
		t.Fatal(err)
	}
	lossOf := func(cands []Candidate) float64 {
		for _, c := range cands {
			if !c.AllElectrical && len(c.Paths) > 0 {
				return c.Paths[0].TotalEstLossDB()
			}
		}
		return -1
	}
	l0, l1 := lossOf(noEnv), lossOf(envCands)
	if l0 < 0 || l1 < 0 {
		t.Skip("no optical candidates to compare")
	}
	want := 5 * 0.52
	if math.Abs((l1-l0)-want) > 1e-9 {
		t.Errorf("crossing env raised loss by %v, want %v", l1-l0, want)
	}
}

func TestCandidatesParetoOverPowerAndLoss(t *testing.T) {
	// Among non-electrical candidates, no candidate should be strictly
	// dominated in (power, max fixed loss) by another.
	for seed := int64(0); seed < 10; seed++ {
		in := testInput(randTerminals(5, seed+100, 4), 16)
		cands, err := Generate(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		var opt []Candidate
		for _, c := range cands {
			if !c.AllElectrical {
				opt = append(opt, c)
			}
		}
		for i := range opt {
			for j := range opt {
				if i == j {
					continue
				}
				if opt[j].PowerMW < opt[i].PowerMW-1e-9 &&
					opt[j].MaxFixedLossDB < opt[i].MaxFixedLossDB-1e-9 {
					t.Errorf("seed %d: candidate %d strictly dominated by %d", seed, i, j)
				}
			}
		}
	}
}

func TestFig5CandidateShapes(t *testing.T) {
	// Mirror of the paper's Fig. 5: a 4-pin hyper net with a two-level
	// topology produces a candidate list with mixed O/E configurations,
	// including at least one mixed candidate that saves conversion
	// overheads on a short bottom branch.
	pts := []geom.Point{
		{X: 0, Y: 0},      // 1: source
		{X: 1.5, Y: 0},    // 2
		{X: 2.0, Y: 0.6},  // 3
		{X: 2.0, Y: -0.6}, // 4
	}
	in := testInput(pts, 16)
	cands, err := Generate(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	var pureO, mixed, pureE bool
	for _, c := range cands {
		switch {
		case c.AllElectrical:
			pureE = true
		case c.ElecWirelenCM == 0:
			pureO = true
		default:
			mixed = true
		}
	}
	if !pureE {
		t.Error("missing pure electrical candidate")
	}
	if !pureO && !mixed {
		t.Error("missing any optical candidate")
	}
	if len(cands) < 2 {
		t.Errorf("only %d candidates; Fig. 5 produces several", len(cands))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	in := testInput(randTerminals(5, 77, 4), 8)
	a, err := Generate(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("nondeterministic candidate count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i].PowerMW-b[i].PowerMW) > 1e-12 {
			t.Fatalf("candidate %d power differs", i)
		}
	}
}

func TestLabelString(t *testing.T) {
	if Electrical.String() != "E" || Optical.String() != "O" {
		t.Error("label names wrong")
	}
}
