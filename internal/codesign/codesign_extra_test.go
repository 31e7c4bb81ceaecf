package codesign

import (
	"math"
	"testing"

	"operon/internal/geom"
	"operon/internal/optics"
	"operon/internal/power"
	"operon/internal/steiner"
)

// chainInput builds a subdivided 2-pin net so the DP can switch O/E along
// the route.
func chainInput(lengthCM float64, chunks int, bits int) Input {
	tr := steiner.MST([]geom.Point{{X: 0, Y: 0}, {X: lengthCM, Y: 0}}, steiner.Euclidean, nil)
	tr = steiner.Subdivide(tr, lengthCM/float64(chunks)+1e-9)
	return Input{
		Tree: tr,
		Bits: bits,
		Lib:  optics.DefaultLibrary(),
		Elec: power.DefaultElectricalModel(),
	}
}

func TestRelayDecodesToTwoConversionsPerDomain(t *testing.T) {
	// Hand-label an O,E,O chain: two optical domains, each with one
	// modulator and one detector. The evaluator must decode exactly that.
	in := chainInput(3, 3, 8)
	if len(in.Tree.Edges) != 3 {
		t.Fatalf("chunks = %d, want 3", len(in.Tree.Edges))
	}
	// Edge order after Subdivide follows the original edge direction from
	// terminal 0 to terminal 1.
	labels := []Label{Optical, Electrical, Optical}
	c, feasible := Evaluate(in, labels, nil)
	if !feasible {
		t.Fatal("relay labeling infeasible")
	}
	if c.NumMod != 2 || c.NumDet != 2 {
		t.Fatalf("relay conversions: mod=%d det=%d, want 2/2", c.NumMod, c.NumDet)
	}
	if len(c.Paths) != 2 {
		t.Fatalf("relay paths = %d, want 2 (one per domain)", len(c.Paths))
	}
	// Each domain's propagation loss is for 1 cm only.
	for _, p := range c.Paths {
		if math.Abs(p.FixedLossDB-1.5) > 1e-9 {
			t.Errorf("domain loss = %v, want 1.5 (α·1cm)", p.FixedLossDB)
		}
	}
	if math.Abs(c.ElecWirelenCM-1) > 1e-9 {
		t.Errorf("electrical chunk length = %v, want 1", c.ElecWirelenCM)
	}
	if len(c.ModSites) != 2 || len(c.DetSites) != 2 {
		t.Fatalf("conversion sites: %d mods, %d dets", len(c.ModSites), len(c.DetSites))
	}
}

func TestRelayRescuesOverBudgetNet(t *testing.T) {
	// A run too long for a single optical domain: α·len > l_m. With a
	// relay, each half fits the budget and the DP should find an optical
	// solution cheaper than full electrical.
	lib := optics.DefaultLibrary()
	length := lib.MaxLossDB/lib.AlphaDBPerCM + 2 // ~15.3 cm, over budget
	// Fine chunks keep the relay's electrical hop short (a coarse grid
	// would make the copper gap costlier than a partial-optical tail).
	in := chainInput(length, 16, 16)
	cands, err := Generate(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	var best Candidate
	bestP := math.Inf(1)
	for _, c := range cands {
		if c.PowerMW < bestP {
			best, bestP = c, c.PowerMW
		}
	}
	if best.AllElectrical {
		t.Fatal("DP found no relay solution for the over-budget run")
	}
	if best.NumMod < 2 {
		t.Errorf("expected a relay (>=2 modulators), got %d", best.NumMod)
	}
	for _, p := range best.Paths {
		if !in.Lib.Detectable(p.TotalEstLossDB()) {
			t.Errorf("relay domain over budget: %v dB", p.TotalEstLossDB())
		}
	}
	// And it must beat the electrical fallback.
	elec := cands[len(cands)-1]
	if !elec.AllElectrical {
		t.Fatal("fallback missing")
	}
	if best.PowerMW >= elec.PowerMW {
		t.Errorf("relay %v mW not cheaper than electrical %v mW", best.PowerMW, elec.PowerMW)
	}
}

func TestPartialOpticalTail(t *testing.T) {
	// O,O,E: one optical domain ending in a detector, then wire to the
	// sink. One modulator, one detector, 1 cm of copper.
	in := chainInput(3, 3, 8)
	labels := []Label{Optical, Optical, Electrical}
	c, feasible := Evaluate(in, labels, nil)
	if !feasible {
		t.Fatal("partial labeling infeasible")
	}
	if c.NumMod != 1 || c.NumDet != 1 {
		t.Fatalf("partial conversions: mod=%d det=%d, want 1/1", c.NumMod, c.NumDet)
	}
	if math.Abs(c.Paths[0].FixedLossDB-3.0) > 1e-9 {
		t.Errorf("optical run loss = %v, want 3.0 (α·2cm)", c.Paths[0].FixedLossDB)
	}
}

func TestConversionSitesMatchCounts(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		in := Input{
			Tree: steiner.BI1S(randTerminals(4, seed, 3), steiner.Euclidean, nil),
			Bits: 8,
			Lib:  optics.DefaultLibrary(),
			Elec: power.DefaultElectricalModel(),
		}
		cands, err := Generate(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cands {
			if len(c.ModSites) != c.NumMod {
				t.Errorf("seed %d cand %d: %d mod sites for %d mods",
					seed, i, len(c.ModSites), c.NumMod)
			}
			if len(c.DetSites) != c.NumDet {
				t.Errorf("seed %d cand %d: %d det sites for %d dets",
					seed, i, len(c.DetSites), c.NumDet)
			}
			// Paths and detectors correspond one-to-one.
			if len(c.Paths) != c.NumDet {
				t.Errorf("seed %d cand %d: %d paths for %d detectors",
					seed, i, len(c.Paths), c.NumDet)
			}
		}
	}
}

func TestPowerDecomposition(t *testing.T) {
	// PowerMW must equal electrical wire power plus conversion power.
	for seed := int64(0); seed < 8; seed++ {
		in := Input{
			Tree: steiner.BI1S(randTerminals(5, seed+50, 3), steiner.Euclidean, nil),
			Bits: 12,
			Lib:  optics.DefaultLibrary(),
			Elec: power.DefaultElectricalModel(),
		}
		cands, err := Generate(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cands {
			want := in.Elec.BusPowerMW(c.ElecWirelenCM, in.Bits) +
				in.Lib.ConversionPowerMW(c.NumMod, c.NumDet)*float64(in.Bits)
			if math.Abs(c.PowerMW-want) > 1e-9 {
				t.Errorf("seed %d cand %d: power %v != decomposition %v",
					seed, i, c.PowerMW, want)
			}
		}
	}
}

func TestDPOnSubdividedTreesMatchesOracle(t *testing.T) {
	// The DP/enumeration equivalence must also hold on chain-subdivided
	// trees (where relays live).
	for seed := int64(0); seed < 10; seed++ {
		terms := randTerminals(3, seed+200, 3)
		tr := steiner.Subdivide(
			steiner.BI1S(terms, steiner.Euclidean, nil), 1.2)
		if len(tr.Edges) > 12 {
			continue
		}
		in := Input{Tree: tr, Bits: 8, Lib: optics.DefaultLibrary(),
			Elec: power.DefaultElectricalModel()}
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
			t.Errorf("seed %d: DP best %.6f vs oracle %.6f on subdivided tree",
				seed, dpBest, oracle)
		}
	}
}

// BenchmarkGenerate times the DP as the flow runs it: one workspace reused
// across calls (the flow keeps one per worker) and an Env of other nets'
// baseline segments over the same area, so crossing estimation runs (the
// Table-1 designs hand a net 18-49 such segments).
func BenchmarkGenerate(b *testing.B) {
	in := Input{
		Tree: steiner.Subdivide(
			steiner.BI1S(randTerminals(4, 7, 3), steiner.Euclidean, nil), 0.35),
		Bits: 16,
		Lib:  optics.DefaultLibrary(),
		Elec: power.DefaultElectricalModel(),
	}
	for seed := int64(100); len(in.Env) < 32; seed++ {
		other := steiner.BI1S(randTerminals(4, seed, 3), steiner.Euclidean, nil)
		in.Env = append(in.Env, other.Segments()...)
	}
	ws := NewWorkspace()
	if _, err := Generate(in, ws); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(in, ws); err != nil {
			b.Fatal(err)
		}
	}
}
