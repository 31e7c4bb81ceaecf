package operon

import (
	"context"
	"reflect"
	"testing"
	"time"

	"operon/internal/geom"
	"operon/internal/obs"
	"operon/internal/signal"
)

// fpDesign builds a small fixed design for fingerprint tests.
func fpDesign() signal.Design {
	return signal.Design{
		Name: "fp-case",
		Die:  geom.Rect{Lo: geom.Point{X: 0, Y: 0}, Hi: geom.Point{X: 2, Y: 2}},
		Groups: []signal.Group{
			{Name: "a", Bits: []signal.Bit{
				{Driver: geom.Point{X: 0.1, Y: 0.1}, Sinks: []geom.Point{{X: 1.5, Y: 0.2}, {X: 1.8, Y: 1.9}}},
				{Driver: geom.Point{X: 0.2, Y: 0.1}, Sinks: []geom.Point{{X: 1.5, Y: 0.3}}},
			}},
			{Name: "b", Bits: []signal.Bit{
				{Driver: geom.Point{X: 0.3, Y: 1.7}, Sinks: []geom.Point{{X: 1.2, Y: 1.1}}},
			}},
		},
	}
}

// fpMutator perturbs exactly one field of a solve instance.
type fpMutator func(*signal.Design, *Config)

// fpSemanticConfig classifies every Config field (and, for embedded structs,
// every leaf field) as semantic: each mutator must change the fingerprint.
// TestFingerprintFieldCoverage fails when a Config field exists that appears
// in neither this map nor fpNonSemanticConfig, so adding a field to Config
// without deciding its fingerprint role breaks the build's tests.
var fpSemanticConfig = map[string]fpMutator{
	"Lib.AlphaDBPerCM":       func(_ *signal.Design, c *Config) { c.Lib.AlphaDBPerCM += 0.25 },
	"Lib.BetaDBPerCrossing":  func(_ *signal.Design, c *Config) { c.Lib.BetaDBPerCrossing += 0.25 },
	"Lib.ModulatorPJPerBit":  func(_ *signal.Design, c *Config) { c.Lib.ModulatorPJPerBit += 0.25 },
	"Lib.DetectorPJPerBit":   func(_ *signal.Design, c *Config) { c.Lib.DetectorPJPerBit += 0.25 },
	"Lib.BitRateGHz":         func(_ *signal.Design, c *Config) { c.Lib.BitRateGHz += 1 },
	"Lib.WDMCapacity":        func(_ *signal.Design, c *Config) { c.Lib.WDMCapacity++ },
	"Lib.MaxLossDB":          func(_ *signal.Design, c *Config) { c.Lib.MaxLossDB += 0.5 },
	"Lib.CrosstalkMinDistCM": func(_ *signal.Design, c *Config) { c.Lib.CrosstalkMinDistCM += 0.05 },
	"Lib.AssignMaxDistCM":    func(_ *signal.Design, c *Config) { c.Lib.AssignMaxDistCM += 0.05 },

	"Elec.SwitchingFactor": func(_ *signal.Design, c *Config) { c.Elec.SwitchingFactor += 0.05 },
	"Elec.FrequencyGHz":    func(_ *signal.Design, c *Config) { c.Elec.FrequencyGHz += 1 },
	"Elec.VoltageV":        func(_ *signal.Design, c *Config) { c.Elec.VoltageV += 0.1 },
	"Elec.UnitCapPFPerCM":  func(_ *signal.Design, c *Config) { c.Elec.UnitCapPFPerCM += 0.1 },

	"PinMergeThresholdCM": func(_ *signal.Design, c *Config) { c.PinMergeThresholdCM += 0.05 },
	"MaxBaselines":        func(_ *signal.Design, c *Config) { c.MaxBaselines++ },
	"SubdivideCM":         func(_ *signal.Design, c *Config) { c.SubdivideCM += 0.1 },
	"MaxCandidates":       func(_ *signal.Design, c *Config) { c.MaxCandidates++ },
	"MaxCandidatesPerNet": func(_ *signal.Design, c *Config) { c.MaxCandidatesPerNet++ },
	"Mode":                func(_ *signal.Design, c *Config) { c.Mode = ModeGreedy },
	"ILPTimeLimit":        func(_ *signal.Design, c *Config) { c.ILPTimeLimit += time.Second },
	"ILPMaxNodes":         func(_ *signal.Design, c *Config) { c.ILPMaxNodes += 100 },
	"Seed":                func(_ *signal.Design, c *Config) { c.Seed++ },
	"SkipWDM":             func(_ *signal.Design, c *Config) { c.SkipWDM = !c.SkipWDM },

	"LR.MaxIters":      func(_ *signal.Design, c *Config) { c.LR.MaxIters += 5 },
	"LR.ConvergeRatio": func(_ *signal.Design, c *Config) { c.LR.ConvergeRatio += 0.005 },
	"LR.StepScale":     func(_ *signal.Design, c *Config) { c.LR.StepScale += 0.5 },
}

// fpNonSemanticConfig classifies the execution-context fields: each mutator
// must leave the fingerprint unchanged, because results are bit-identical
// across these knobs.
var fpNonSemanticConfig = map[string]fpMutator{
	"Workers":    func(_ *signal.Design, c *Config) { c.Workers = 7 },
	"Obs":        func(_ *signal.Design, c *Config) { c.Obs = obs.New(nil) },
	"LR.Workers": func(_ *signal.Design, c *Config) { c.LR.Workers = 5 },
	"LR.Obs":     func(_ *signal.Design, c *Config) { c.LR.Obs = obs.New(nil) },
	"LR.Ctx":     func(_ *signal.Design, c *Config) { c.LR.Ctx = context.Background() },
}

// fpLeafFields lists every classification key a struct type demands: leaf
// struct fields are flattened one level ("Lib.MaxLossDB"), everything else
// is the plain field name.
func fpLeafFields(t *testing.T, typ reflect.Type, prefix string, flatten map[string]bool) []string {
	t.Helper()
	var keys []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if flatten[f.Name] && f.Type.Kind() == reflect.Struct {
			for j := 0; j < f.Type.NumField(); j++ {
				keys = append(keys, prefix+f.Name+"."+f.Type.Field(j).Name)
			}
			continue
		}
		keys = append(keys, prefix+f.Name)
	}
	return keys
}

// TestFingerprintFieldCoverage is the rot guard: every field reachable from
// Config (with Lib, Elec, and LR flattened to their leaves) must be
// classified in exactly one of fpSemanticConfig / fpNonSemanticConfig, and
// each classified mutator must behave as claimed — semantic deltas change
// the hash, non-semantic deltas collide.
func TestFingerprintFieldCoverage(t *testing.T) {
	keys := fpLeafFields(t, reflect.TypeOf(Config{}), "",
		map[string]bool{"Lib": true, "Elec": true, "LR": true})

	for _, k := range keys {
		_, sem := fpSemanticConfig[k]
		_, non := fpNonSemanticConfig[k]
		if sem && non {
			t.Errorf("field %s classified both semantic and non-semantic", k)
		}
		if !sem && !non {
			t.Errorf("field %s not classified: add it to fpSemanticConfig or fpNonSemanticConfig (and to Fingerprint if semantic)", k)
		}
	}
	if len(fpSemanticConfig)+len(fpNonSemanticConfig) != len(keys) {
		t.Errorf("classification maps name %d fields, Config has %d — remove stale entries",
			len(fpSemanticConfig)+len(fpNonSemanticConfig), len(keys))
	}

	base := Fingerprint(fpDesign(), DefaultConfig())
	for name, mut := range fpSemanticConfig {
		d, cfg := fpDesign(), DefaultConfig()
		mut(&d, &cfg)
		if Fingerprint(d, cfg) == base {
			t.Errorf("semantic mutation %s did not change the fingerprint", name)
		}
	}
	for name, mut := range fpNonSemanticConfig {
		d, cfg := fpDesign(), DefaultConfig()
		mut(&d, &cfg)
		if Fingerprint(d, cfg) != base {
			t.Errorf("non-semantic mutation %s changed the fingerprint", name)
		}
	}
}

// TestFingerprintDesignSensitivity asserts every part of the design is
// semantic: coordinates, ordering, names, and structure all land in the
// hash, while a value-identical copy collides.
func TestFingerprintDesignSensitivity(t *testing.T) {
	cfg := DefaultConfig()
	base := Fingerprint(fpDesign(), cfg)

	if got := Fingerprint(fpDesign(), DefaultConfig()); got != base {
		t.Fatal("identical instances produced different fingerprints")
	}

	muts := map[string]func(*signal.Design){
		"rename design":    func(d *signal.Design) { d.Name = "other" },
		"grow die":         func(d *signal.Design) { d.Die.Hi.X += 0.5 },
		"rename group":     func(d *signal.Design) { d.Groups[0].Name = "a2" },
		"move driver":      func(d *signal.Design) { d.Groups[0].Bits[0].Driver.X += 0.01 },
		"move sink":        func(d *signal.Design) { d.Groups[1].Bits[0].Sinks[0].Y += 0.01 },
		"drop sink":        func(d *signal.Design) { d.Groups[0].Bits[0].Sinks = d.Groups[0].Bits[0].Sinks[:1] },
		"swap group order": func(d *signal.Design) { d.Groups[0], d.Groups[1] = d.Groups[1], d.Groups[0] },
		"swap bit order": func(d *signal.Design) {
			bits := d.Groups[0].Bits
			bits[0], bits[1] = bits[1], bits[0]
		},
	}
	for name, mut := range muts {
		d := fpDesign()
		mut(&d)
		if Fingerprint(d, cfg) == base {
			t.Errorf("design mutation %q did not change the fingerprint", name)
		}
	}
}

// TestFingerprintNoBoundaryAliasing asserts the length-prefixed encoding
// keeps structurally different designs with the same flat value stream
// apart: moving a sink from one bit's list to the next bit's list must
// change the hash even though the concatenated coordinates are identical.
func TestFingerprintNoBoundaryAliasing(t *testing.T) {
	cfg := DefaultConfig()
	p1, p2 := geom.Point{X: 1.0, Y: 1.0}, geom.Point{X: 1.5, Y: 1.5}
	mk := func(sinksA, sinksB []geom.Point) signal.Design {
		return signal.Design{
			Name: "alias",
			Die:  geom.Rect{Hi: geom.Point{X: 2, Y: 2}},
			Groups: []signal.Group{{Name: "g", Bits: []signal.Bit{
				{Driver: geom.Point{X: 0.1, Y: 0.1}, Sinks: sinksA},
				{Driver: geom.Point{X: 0.2, Y: 0.2}, Sinks: sinksB},
			}}},
		}
	}
	a := Fingerprint(mk([]geom.Point{p1, p2}, nil), cfg)
	b := Fingerprint(mk([]geom.Point{p1}, []geom.Point{p2}), cfg)
	if a == b {
		t.Fatal("sink list boundary not captured by the encoding")
	}

	// Same aliasing check for the string fields: "ab"+"c" vs "a"+"bc".
	d1, d2 := fpDesign(), fpDesign()
	d1.Name, d1.Groups[0].Name = "ab", "c"
	d2.Name, d2.Groups[0].Name = "a", "bc"
	if Fingerprint(d1, cfg) == Fingerprint(d2, cfg) {
		t.Fatal("string boundary not captured by the encoding")
	}
}
