package main

import (
	"fmt"
	"time"

	operon "operon"
	"operon/internal/benchgen"
	"operon/internal/optics/bpm"
	"operon/internal/signal"
)

// Design streams for derive: each design family of a run draws its own.
const (
	streamTable1 = iota + 1
	streamILP
	streamServeHot
	streamServeSession
	streamServeCold
	streamServeCaller
	streamServeEdits
)

// table1Variants is how many seeded variants of each Table-1 spec a
// table1-lr run cycles through. The LR's iteration count, and with it a
// design's solve time, varies from seed to seed, so a run averages over
// many designs: about one round fills the window, and the first designs
// are solved a second time to check that solves repeat.
const table1Variants = 20

// ilpDesigns and ilpGroups shape exact-ilp. A full I3 root relaxation
// costs 0.2-4 s depending on the seed, so a run could average only a
// couple of dozen draws and its mean and tail would swing by ±20% from
// seed to seed. At 112 of I3's 168 groups the solve is still one
// branch-and-bound node whose root relaxation is the largest stage (about
// 55%), the median solve takes about 0.1 s, and one design in fifty takes
// 2-4 times that, so a run averages over about two hundred designs.
const (
	ilpDesigns = 192
	ilpGroups  = 112
)

// flowWorkload is a single closed-loop caller running cold library solves
// round-robin over a seeded design set with one reused Workspace, as a
// synthesis script would.
type flowWorkload struct {
	mode    operon.Mode
	designs func(seed int64) ([]signal.Design, error)
}

var (
	table1LR = flowWorkload{mode: operon.ModeLR, designs: table1Designs}
	exactILP = flowWorkload{mode: operon.ModeILP, designs: ilpDesignSet}
)

// table1Designs returns table1Variants seeded variants of each Table-1
// spec, interleaved so every consecutive five cover I1-I5.
func table1Designs(seed int64) ([]signal.Design, error) {
	specs := benchgen.Table1Specs()
	var ds []signal.Design
	for v := 0; v < table1Variants; v++ {
		for i, spec := range specs {
			spec.Seed = derive(seed, streamTable1, v*len(specs)+i)
			spec.Name = fmt.Sprintf("%s.%d", spec.Name, v)
			d, err := benchgen.Generate(spec)
			if err != nil {
				return nil, err
			}
			ds = append(ds, d)
		}
	}
	return ds, nil
}

// ilpDesignSet returns ilpDesigns seeded I3-style designs (I3's die, bus
// width and spans at ilpGroups groups).
func ilpDesignSet(seed int64) ([]signal.Design, error) {
	spec, err := benchgen.SpecByName("I3")
	if err != nil {
		return nil, err
	}
	spec.Groups = ilpGroups
	ds := make([]signal.Design, ilpDesigns)
	for i := range ds {
		spec.Seed = derive(seed, streamILP, i)
		spec.Name = fmt.Sprintf("I3g%d.%d", ilpGroups, i)
		if ds[i], err = benchgen.Generate(spec); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// flowEnv is one set-up of a flow workload.
type flowEnv struct {
	designs []signal.Design
	ws      *operon.Workspace
	power   map[string]float64 // first power seen per design
}

// run sets the workload up, then solves round-robin until the solves have
// been busy for the window and every design has been solved at least once
// (so power_mw always sums the whole set). Harness checks between solves
// do not count towards the window.
//
// In a traced run every design is solved twice in a row, once plain and
// once traced (alternating which goes first), so trace.overhead_pct
// compares the same designs.
func (w flowWorkload) run(b *bench) error {
	cfg := operon.DefaultConfig()
	cfg.Mode = w.mode
	env, err := setUp(b, func() (flowEnv, error) {
		bpm.ResetSimulationCache()
		ds, err := w.designs(b.seed)
		if err != nil {
			return flowEnv{}, err
		}
		return flowEnv{designs: ds, ws: operon.NewWorkspace(), power: map[string]float64{}}, nil
	}, func(flowEnv) {})
	if err != nil {
		return err
	}

	var (
		lat           []float64
		busy          time.Duration
		plain, traced time.Duration
		layers        solveLayers
	)
	solvesPerDesign := 1
	if b.traced {
		solvesPerDesign = 2
	}
	b.probeHost()
	rt := readRuntime()
	// power_mw needs every design; a traced run does not report it.
	for i := 0; (!b.traced && i < len(env.designs)) || busy < b.window; i++ {
		d := env.designs[i%len(env.designs)]
		for r := 0; r < solvesPerDesign; r++ {
			var l *solveLayers
			if b.traced && (r == 0) == (i%2 == 0) {
				l = &layers
			}
			res, wall, err := solve(b.ctx, d, cfg, env.ws, l)
			b.attempted++
			b.checkSolve(d.Name, res, err, cfg, env.power)
			busy += wall
			lat = append(lat, ms(wall))
			if l != nil {
				traced += wall
			} else {
				plain += wall
			}
		}
	}
	b.putRuntime(rt, len(lat))
	b.probeHost()

	b.putLatency(lat, busy)
	total := 0.0 // summed in design order, so the same seed gives the same bits
	for _, d := range env.designs {
		total += env.power[d.Name]
	}
	b.put("power_mw", "mW", total)

	layers.put(b)
	b.put("trace.overhead_pct", "%", 100*ratio(ms(traced)-ms(plain), ms(plain), 0))
	serveLayers{}.put(b)
	return nil
}
