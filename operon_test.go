package operon

import (
	"context"
	"math"
	"testing"
	"time"

	"operon/internal/benchgen"
	"operon/internal/geom"
	"operon/internal/signal"
)

// smallDesign builds a fast mixed local/global design for flow tests.
func smallDesign(t *testing.T) signal.Design {
	t.Helper()
	d, err := benchgen.Generate(benchgen.Spec{
		Name: "small", DieCM: 4, Groups: 24, BitsPerGroup: 8, BitsJitter: 2,
		MinSinkClusters: 1, MaxSinkClusters: 3, LocalFraction: 0.3,
		LocalSpanCM: 0.3, GlobalSpanCM: 2.0, RegionSpreadCM: 0.02, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunLREndToEnd(t *testing.T) {
	d := smallDesign(t)
	res, err := Run(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.PowerMW <= 0 {
		t.Fatalf("power = %v", res.PowerMW)
	}
	if res.Selection.Violations != 0 {
		t.Fatalf("final selection has %d violations", res.Selection.Violations)
	}
	if res.LR == nil || res.ILP != nil {
		t.Error("LR mode should populate LR diagnostics only")
	}
	st := res.Stats()
	if st.HyperNets != len(res.Nets) {
		t.Errorf("stats hyper nets %d != nets %d", st.HyperNets, len(res.Nets))
	}
	if len(res.Connections) > 0 {
		if res.WDMStats.InitialWDMs == 0 {
			t.Error("optical connections but no WDMs placed")
		}
		if res.WDMStats.FinalWDMs > res.WDMStats.InitialWDMs {
			t.Error("assignment increased WDM count")
		}
	}
}

func TestRunILPBeatsOrMatchesLR(t *testing.T) {
	d := smallDesign(t)
	cfg := DefaultConfig()
	cfg.Mode = ModeILP
	cfg.ILPTimeLimit = 30 * time.Second
	ilpRes, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = ModeLR
	lrRes, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ilpRes.ILP == nil {
		t.Fatal("ILP diagnostics missing")
	}
	if !ilpRes.ILP.TimedOut && ilpRes.PowerMW > lrRes.PowerMW+1e-6 {
		t.Errorf("completed ILP %.4f worse than LR %.4f", ilpRes.PowerMW, lrRes.PowerMW)
	}
}

func TestBaselineOrdering(t *testing.T) {
	// The paper's headline shape: electrical >> optical > OPERON.
	d := smallDesign(t)
	cfg := DefaultConfig()
	e, err := RunElectrical(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := RunOptical(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.PowerMW <= o.PowerMW {
		t.Errorf("electrical %.3f not above optical %.3f", e.PowerMW, o.PowerMW)
	}
	if p.PowerMW > o.PowerMW+1e-9 {
		t.Errorf("OPERON %.3f worse than optical-only %.3f", p.PowerMW, o.PowerMW)
	}
	if p.PowerMW > e.PowerMW+1e-9 {
		t.Errorf("OPERON %.3f worse than electrical %.3f", p.PowerMW, e.PowerMW)
	}
	// Ratio ballpark: electrical should cost at least 2x optical on this
	// mixed local/global design.
	if e.PowerMW < 2*o.PowerMW {
		t.Errorf("electrical/optical ratio %.2f below 2", e.PowerMW/o.PowerMW)
	}
}

func TestModeGreedy(t *testing.T) {
	d := smallDesign(t)
	cfg := DefaultConfig()
	cfg.Mode = ModeGreedy
	res, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Selection.Violations != 0 {
		t.Fatal("greedy selection illegal")
	}
}

func TestRunDeterministic(t *testing.T) {
	d := smallDesign(t)
	cfg := DefaultConfig()
	a, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.PowerMW-b.PowerMW) > 1e-9 {
		t.Fatalf("nondeterministic power: %v vs %v", a.PowerMW, b.PowerMW)
	}
	if a.WDMStats != b.WDMStats {
		t.Fatalf("nondeterministic WDM stats: %+v vs %+v", a.WDMStats, b.WDMStats)
	}
}

func TestSkipWDM(t *testing.T) {
	d := smallDesign(t)
	cfg := DefaultConfig()
	cfg.SkipWDM = true
	res, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Connections) != 0 || res.WDMStats.InitialWDMs != 0 {
		t.Error("WDM stage ran despite SkipWDM")
	}
}

func TestHotspots(t *testing.T) {
	d := smallDesign(t)
	cfg := DefaultConfig()
	res, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	maps, err := Hotspots(res, d.Die, 16, 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Total electrical grid power must match the electrical part of the
	// selection's power.
	var elecP, convP float64
	for i, j := range res.Selection.Choice {
		c := res.Nets[i].Cands[j]
		elecP += cfg.Elec.BusPowerMW(c.ElecWirelenCM, res.Nets[i].Bits)
		convP += cfg.Lib.ConversionPowerMW(c.NumMod, c.NumDet) * float64(res.Nets[i].Bits)
	}
	if math.Abs(maps.Electrical.Total()-elecP) > 1e-6*math.Max(1, elecP) {
		t.Errorf("electrical grid total %v, want %v", maps.Electrical.Total(), elecP)
	}
	if math.Abs(maps.Optical.Total()-convP) > 1e-6*math.Max(1, convP) {
		t.Errorf("optical grid total %v, want %v", maps.Optical.Total(), convP)
	}
	// And electrical + conversion must equal the reported total power.
	if math.Abs(elecP+convP-res.PowerMW) > 1e-6 {
		t.Errorf("power decomposition %v + %v != %v", elecP, convP, res.PowerMW)
	}
}

func TestHotspotsOperonCoolerThanGlowElectrical(t *testing.T) {
	// Fig. 9's observation: OPERON's electrical layer is cooler than
	// GLOW's, because fewer nets fall back to all-electrical routes.
	d := smallDesign(t)
	cfg := DefaultConfig()
	// Tighten the budget so the optical-only baseline loses several nets
	// to the electrical fallback.
	cfg.Lib.MaxLossDB = 6
	glow, err := RunOptical(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	op, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := Hotspots(glow, d.Die, 16, 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	om, err := Hotspots(op, d.Die, 16, 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if om.Electrical.Total() > gm.Electrical.Total()+1e-9 {
		t.Errorf("OPERON electrical layer %.3f hotter than GLOW %.3f",
			om.Electrical.Total(), gm.Electrical.Total())
	}
}

func TestHotspotsRejectsIncompleteResult(t *testing.T) {
	if _, err := Hotspots(&Result{}, geom.Rect{Hi: geom.Point{X: 1, Y: 1}}, 4, 4, DefaultConfig()); err == nil {
		t.Error("incomplete result accepted")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	d := smallDesign(t)
	cfg := DefaultConfig()
	cfg.Lib.MaxLossDB = -1
	if _, err := Run(d, cfg); err == nil {
		t.Error("invalid library accepted")
	}
	cfg = DefaultConfig()
	cfg.Elec.VoltageV = 0
	if _, err := Run(d, cfg); err == nil {
		t.Error("invalid electrical model accepted")
	}
}

// TestValidationParity checks that a cold run and a fresh session's first
// Resolve reject every invalid input with the same error text: both go
// through the one validation step of the solve pipeline.
func TestValidationParity(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*signal.Design, *Config)
	}{
		{"no groups", func(d *signal.Design, _ *Config) { d.Groups = nil }},
		{"bit without sinks", func(d *signal.Design, _ *Config) { d.Groups[0].Bits[0].Sinks = nil }},
		{"zero WDM capacity", func(_ *signal.Design, c *Config) { c.Lib.WDMCapacity = 0 }},
		{"invalid Lib", func(_ *signal.Design, c *Config) { c.Lib.MaxLossDB = -1 }},
		{"invalid Elec", func(_ *signal.Design, c *Config) { c.Elec.VoltageV = 0 }},
	}
	for _, tc := range cases {
		d, cfg := smallDesign(t), DefaultConfig()
		tc.mutate(&d, &cfg)
		_, coldErr := RunContext(context.Background(), d, cfg)
		_, _, sessErr := NewSession(d, cfg).Resolve(context.Background())
		if coldErr == nil || sessErr == nil {
			t.Errorf("%s: invalid input accepted (cold: %v, session: %v)", tc.name, coldErr, sessErr)
			continue
		}
		if coldErr.Error() != sessErr.Error() {
			t.Errorf("%s: cold error %q, session error %q", tc.name, coldErr, sessErr)
		}
	}
}

func TestRunEmptyDesign(t *testing.T) {
	if _, err := Run(signal.Design{Name: "empty"}, DefaultConfig()); err == nil {
		t.Error("empty design accepted")
	}
}
