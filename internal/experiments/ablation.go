package experiments

import (
	"fmt"
	"strings"

	operon "operon"
	"operon/internal/benchgen"
)

// AblationRow reports one flow variant's power on each case.
type AblationRow struct {
	Variant string
	// PowerMW maps case name to total power.
	PowerMW map[string]float64
}

// AblationOptions tunes the ablation sweep.
type AblationOptions struct {
	// Cases restricts the benchmark set; nil runs a thin-bundle case (I2)
	// and a multi-sink case (I4), covering both ablated mechanisms.
	Cases []string
}

// ablationVariants returns the named configuration mutations studied: each
// removes one design decision from the full flow.
func ablationVariants() []struct {
	name string
	mut  func(*operon.Config)
} {
	return []struct {
		name string
		mut  func(*operon.Config)
	}{
		{"full flow (LR)", func(*operon.Config) {}},
		{"no edge subdivision", func(c *operon.Config) { c.SubdivideCM = 0 }},
		{"single baseline tree", func(c *operon.Config) { c.MaxBaselines = 1 }},
		{"2 candidates per net", func(c *operon.Config) { c.MaxCandidatesPerNet = 2 }},
		{"greedy selection", func(c *operon.Config) { c.Mode = operon.ModeGreedy }},
		{"1 LR iteration", func(c *operon.Config) { c.LRMaxIters = 1 }},
	}
}

// Ablation runs every variant over the cases and returns one row per
// variant. The "full flow" row is the reference.
func Ablation(opt AblationOptions) ([]AblationRow, error) {
	names := opt.Cases
	if len(names) == 0 {
		names = []string{"I2", "I4"}
	}
	var rows []AblationRow
	for _, v := range ablationVariants() {
		row := AblationRow{Variant: v.name, PowerMW: map[string]float64{}}
		for _, name := range names {
			spec, err := benchgen.SpecByName(name)
			if err != nil {
				return nil, err
			}
			design, err := benchgen.Generate(spec)
			if err != nil {
				return nil, err
			}
			cfg := operon.DefaultConfig()
			v.mut(&cfg)
			cfg.SkipWDM = true
			res, err := operon.Run(design, cfg)
			if err != nil {
				return nil, fmt.Errorf("ablation %q on %s: %w", v.name, name, err)
			}
			if res.Selection.Violations != 0 {
				return nil, fmt.Errorf("ablation %q on %s: illegal selection", v.name, name)
			}
			row.PowerMW[name] = res.PowerMW
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatAblation renders the variants against the full-flow reference.
func FormatAblation(rows []AblationRow, cases []string) string {
	if len(cases) == 0 {
		cases = []string{"I2", "I4"}
	}
	var b strings.Builder
	b.WriteString("Ablation: removing one design decision at a time (power in mW, Δ vs full flow)\n")
	fmt.Fprintf(&b, "  %-22s", "variant")
	for _, c := range cases {
		fmt.Fprintf(&b, " %10s %7s", c, "Δ")
	}
	b.WriteByte('\n')
	var ref map[string]float64
	for _, r := range rows {
		if ref == nil {
			ref = r.PowerMW
		}
		fmt.Fprintf(&b, "  %-22s", r.Variant)
		for _, c := range cases {
			p := r.PowerMW[c]
			delta := 0.0
			if ref[c] > 0 {
				delta = 100 * (p/ref[c] - 1)
			}
			fmt.Fprintf(&b, " %10.2f %+6.1f%%", p, delta)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
