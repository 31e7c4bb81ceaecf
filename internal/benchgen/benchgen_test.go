package benchgen

import (
	"fmt"
	"testing"

	"operon/internal/optics"
	"operon/internal/signal"
)

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Name: "g0", Groups: 0, BitsPerGroup: 2, DieCM: 1, MinSinkClusters: 1, MaxSinkClusters: 1},
		{Name: "b0", Groups: 1, BitsPerGroup: 0.5, DieCM: 1, MinSinkClusters: 1, MaxSinkClusters: 1},
		{Name: "d0", Groups: 1, BitsPerGroup: 2, DieCM: 0, MinSinkClusters: 1, MaxSinkClusters: 1},
		{Name: "s0", Groups: 1, BitsPerGroup: 2, DieCM: 1, MinSinkClusters: 2, MaxSinkClusters: 1},
		{Name: "lf", Groups: 1, BitsPerGroup: 2, DieCM: 1, MinSinkClusters: 1, MaxSinkClusters: 1,
			LocalFraction: 2},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %s accepted", s.Name)
		}
	}
}

func TestGenerateExactNetCounts(t *testing.T) {
	wantNets := map[string]int{"I1": 2660, "I2": 1782, "I3": 5072, "I4": 3224, "I5": 1994}
	for _, spec := range Table1Specs() {
		d, err := Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: invalid design: %v", spec.Name, err)
		}
		if got := d.NetCount(); got != wantNets[spec.Name] {
			t.Errorf("%s: #Net = %d, want %d", spec.Name, got, wantNets[spec.Name])
		}
		if len(d.Groups) != spec.Groups {
			t.Errorf("%s: groups = %d, want %d", spec.Name, len(d.Groups), spec.Groups)
		}
	}
}

func TestGeneratePinsInsideDie(t *testing.T) {
	spec, err := SpecByName("I1")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range d.Groups {
		for _, b := range g.Bits {
			if !d.Die.Contains(b.Driver) {
				t.Fatalf("driver %v outside die", b.Driver)
			}
			for _, s := range b.Sinks {
				if !d.Die.Contains(s) {
					t.Fatalf("sink %v outside die", s)
				}
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, _ := SpecByName("I3")
	a, _ := Generate(spec)
	b, _ := Generate(spec)
	if len(a.Groups) != len(b.Groups) {
		t.Fatal("nondeterministic group count")
	}
	for i := range a.Groups {
		if len(a.Groups[i].Bits) != len(b.Groups[i].Bits) {
			t.Fatalf("group %d bit count differs", i)
		}
		if a.Groups[i].Bits[0].Driver != b.Groups[i].Bits[0].Driver {
			t.Fatalf("group %d geometry differs", i)
		}
	}
}

func TestHyperNetStatisticsNearPaper(t *testing.T) {
	// The whole point of the generator: signal processing over the
	// synthetic designs must land near the published #HNet / #HPin.
	want := map[string][2]int{
		"I1": {356, 1306},
		"I2": {837, 1701},
		"I3": {168, 336},
		"I4": {403, 1474},
		"I5": {933, 1897},
	}
	lib := optics.DefaultLibrary()
	for _, spec := range Table1Specs() {
		d, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, nets, err := signal.Process(d, signal.ProcessConfig{
			WDMCapacity:         lib.WDMCapacity,
			PinMergeThresholdCM: 0.1,
			Seed:                spec.Seed,
		}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		st := signal.Summarize(nets)
		w := want[spec.Name]
		// Within 15% of the published statistics.
		if !within(st.HyperNets, w[0], 0.15) {
			t.Errorf("%s: #HNet = %d, want ≈%d", spec.Name, st.HyperNets, w[0])
		}
		if !within(st.HyperPins, w[1], 0.15) {
			t.Errorf("%s: #HPin = %d, want ≈%d", spec.Name, st.HyperPins, w[1])
		}
	}
}

func within(got, want int, frac float64) bool {
	d := float64(got - want)
	if d < 0 {
		d = -d
	}
	return d <= frac*float64(want)
}

func TestSpecByNameUnknown(t *testing.T) {
	if _, err := SpecByName("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestMegaSpecsNetCounts(t *testing.T) {
	// The scale-frontier cases hit their target net counts; counting goes
	// through the streaming generator so the 100k-net I8 never has to be
	// materialised as one design.
	wantNets := map[string]int{"I6": 20000, "I7": 50000, "I8": 102500}
	for _, spec := range MegaSpecs() {
		groups, nets := 0, 0
		if err := GenerateGroups(spec, func(g signal.Group) error {
			groups++
			nets += len(g.Bits)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if nets != wantNets[spec.Name] {
			t.Errorf("%s: #Net = %d, want %d", spec.Name, nets, wantNets[spec.Name])
		}
		if groups != spec.Groups {
			t.Errorf("%s: groups = %d, want %d", spec.Name, groups, spec.Groups)
		}
	}
}

func TestGenerateGroupsMatchesGenerate(t *testing.T) {
	// The streaming and materialised paths are the same generator: group
	// order, sizes, and geometry must agree exactly.
	spec, err := SpecByName("I6")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	err = GenerateGroups(spec, func(g signal.Group) error {
		if i >= len(d.Groups) {
			t.Fatalf("stream produced more than %d groups", len(d.Groups))
		}
		ref := d.Groups[i]
		if g.Name != ref.Name || len(g.Bits) != len(ref.Bits) {
			t.Fatalf("group %d: stream %s/%d bits vs generate %s/%d bits",
				i, g.Name, len(g.Bits), ref.Name, len(ref.Bits))
		}
		if g.Bits[0].Driver != ref.Bits[0].Driver {
			t.Fatalf("group %d: geometry differs", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(d.Groups) {
		t.Fatalf("stream produced %d of %d groups", i, len(d.Groups))
	}
}

func TestGenerateGroupsStopsOnError(t *testing.T) {
	spec, err := SpecByName("I8")
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	sentinel := fmt.Errorf("stop")
	if err := GenerateGroups(spec, func(signal.Group) error {
		calls++
		if calls == 3 {
			return sentinel
		}
		return nil
	}); err != sentinel {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 3 {
		t.Fatalf("fn called %d times after early stop", calls)
	}
}
