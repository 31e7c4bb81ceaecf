// Command operon runs the OPERON optical-electrical route-synthesis flow
// on a benchmark and prints a power/WDM summary.
//
// Usage:
//
//	operon -bench I3 -mode lr
//	operon -design mydesign.json -mode ilp -ilp-limit 120s
//	operon -bench I2 -compare            # electrical vs optical vs OPERON
//
// See -h for all options.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	operon "operon"
	"operon/internal/benchgen"
	"operon/internal/obs"
	"operon/internal/signal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("operon: ")

	var (
		benchName  = flag.String("bench", "I3", "built-in benchmark name (I1..I5)")
		designPath = flag.String("design", "", "JSON design file (overrides -bench)")
		mode       = flag.String("mode", "lr", "selection algorithm: lr, ilp or greedy")
		ilpLimit   = flag.Duration("ilp-limit", 60*time.Second, "ILP time limit")
		lossBudget = flag.Float64("loss-budget", 0, "override l_m in dB (0 = default)")
		compare    = flag.Bool("compare", false, "also run the electrical and optical baselines")
		hotspots   = flag.Bool("hotspots", false, "print hotspot maps of the result")
		verify     = flag.Bool("verify", false, "re-check the result against the design rules")
		svgPath    = flag.String("svg", "", "write the routed layout as SVG to this file")
		report     = flag.Int("report", 0, "print a per-net route report (top N nets; -1 = all)")
		workers    = flag.Int("workers", 0, "worker pool size for the parallel stages (0 = all CPUs, 1 = sequential)")
		tracePath  = flag.String("trace", "", "write a Chrome trace-event JSON file of the run (load in Perfetto or chrome://tracing)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
		verbose    = flag.Bool("v", false, "print a live per-stage summary and counter snapshot to stderr")
	)
	flag.Parse()

	design, err := loadDesign(*designPath, *benchName)
	if err != nil {
		log.Fatal(err)
	}

	cfg := operon.DefaultConfig()
	cfg.ILPTimeLimit = *ilpLimit
	cfg.Workers = *workers
	if *lossBudget > 0 {
		cfg.Lib.MaxLossDB = *lossBudget
	}
	if cfg.Mode, err = operon.ParseMode(*mode); err != nil {
		log.Fatal(err)
	}

	var sinks []obs.Sink
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		traceFile = f
		sinks = append(sinks, obs.NewChromeWriter(f))
	}
	if *verbose {
		sinks = append(sinks, verboseSink{})
	}
	if len(sinks) > 0 {
		cfg.Obs = obs.New(obs.Multi(sinks...))
	}
	stopProfiles := startProfiles(*cpuProfile, *memProfile)

	if *compare {
		e, err := operon.RunElectrical(design, cfg)
		if err != nil {
			log.Fatal(err)
		}
		o, err := operon.RunOptical(design, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("electrical [Streak-style]: %10.2f mW\n", e.PowerMW)
		fmt.Printf("optical    [GLOW-style]  : %10.2f mW\n", o.PowerMW)
	}

	res, err := operon.Run(design, cfg)
	if err != nil {
		log.Fatal(err)
	}
	stopProfiles()
	if cfg.Obs != nil {
		if err := cfg.Obs.Close(); err != nil {
			log.Fatal(err)
		}
		if traceFile != nil {
			if err := traceFile.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  trace written to %s\n", *tracePath)
		}
	}
	printResult(res)

	if *verify {
		issues := operon.Verify(res, cfg)
		if len(issues) == 0 {
			fmt.Println("  DRC: clean")
		} else {
			for _, is := range issues {
				fmt.Println("  DRC:", is)
			}
			os.Exit(1)
		}
	}

	if *report != 0 {
		n := *report
		if n < 0 {
			n = 0
		}
		fmt.Print(res.Report(n))
	}

	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := operon.WriteSVG(f, res, design.Die, cfg); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  layout written to %s\n", *svgPath)
	}

	if *hotspots {
		maps, err := operon.Hotspots(res, design.Die, 24, 48, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("optical layer (EO/OE conversion power):")
		fmt.Print(maps.Optical.Normalized().Render())
		fmt.Println("electrical layer (wire power):")
		fmt.Print(maps.Electrical.Normalized().Render())
	}
}

// startProfiles begins CPU profiling and returns a stop function that ends
// it and writes the heap profile. Profiles are stopped explicitly (not via
// defer) because log.Fatal paths exit without running defers.
func startProfiles(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  cpu profile written to %s\n", cpuPath)
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  heap profile written to %s\n", memPath)
		}
	}
}

// verboseSink streams stage-level spans, iteration events, and the final
// counter snapshot to stderr while the flow runs.
type verboseSink struct{}

func (verboseSink) Span(r obs.SpanRecord) {
	if !strings.HasPrefix(r.Name, "stage/") &&
		!strings.HasPrefix(r.Name, "selection/") &&
		!strings.HasPrefix(r.Name, "wdm/") {
		return
	}
	fmt.Fprintf(os.Stderr, "operon: %-18s %12s%s\n",
		r.Name, r.Dur.Round(time.Microsecond), attrString(r.Attrs))
}

func (verboseSink) Event(r obs.EventRecord) {
	// Per-node ILP events are too chatty for a console; keep the
	// iteration-level ones.
	if r.Name != "lr/iterate" && r.Name != "ilp/incumbent" {
		return
	}
	fmt.Fprintf(os.Stderr, "operon: %-18s @%11s%s\n",
		r.Name, r.Ts.Round(time.Microsecond), attrString(r.Attrs))
}

func (verboseSink) Counters(cs []obs.CounterValue) {
	for _, c := range cs {
		fmt.Fprintf(os.Stderr, "operon: counter %-24s %d\n", c.Name, c.Value)
	}
}

func attrString(attrs []obs.Attr) string {
	var b strings.Builder
	for _, a := range attrs {
		b.WriteString("  ")
		b.WriteString(a.Key)
		b.WriteByte('=')
		if a.IsNum {
			fmt.Fprintf(&b, "%g", a.Num)
		} else {
			b.WriteString(a.Str)
		}
	}
	return b.String()
}

func loadDesign(path, bench string) (signal.Design, error) {
	if path == "" {
		spec, err := benchgen.SpecByName(bench)
		if err != nil {
			return signal.Design{}, err
		}
		return benchgen.Generate(spec)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return signal.Design{}, err
	}
	var d signal.Design
	if err := json.Unmarshal(data, &d); err != nil {
		return signal.Design{}, fmt.Errorf("parse %s: %w", path, err)
	}
	if err := d.Validate(); err != nil {
		return signal.Design{}, err
	}
	return d, nil
}

func printResult(res *operon.Result) {
	st := res.Stats()
	fmt.Printf("design %s via %s\n", res.Design, res.Flow)
	fmt.Printf("  hyper nets %d, hyper pins %d\n", st.HyperNets, st.HyperPins)
	fmt.Printf("  total power        %10.2f mW\n", res.PowerMW)
	fmt.Printf("  loss violations    %10d\n", res.Selection.Violations)
	if res.ILP != nil {
		status := fmt.Sprintf("%.1fs", res.ILP.Elapsed.Seconds())
		if res.ILP.TimedOut {
			status = "> time limit"
		}
		fmt.Printf("  ILP: %s, %d nodes, %d vars, %d rows\n",
			status, res.ILP.Nodes, res.ILP.NumVars, res.ILP.NumRows)
	}
	if res.LR != nil {
		fmt.Printf("  LR: %d iterations in %s\n", res.LR.Iters, res.LR.Elapsed)
	}
	if res.WDMStats.Connections > 0 {
		fmt.Printf("  WDM: %d connections, %d placed -> %d after assignment (%.1f%% saved)\n",
			res.WDMStats.Connections, res.WDMStats.InitialWDMs,
			res.WDMStats.FinalWDMs, 100*res.WDMStats.Reduction())
	}
	fmt.Printf("  stage times: process %s, candidates %s, selection %s, wdm %s\n",
		res.Times.Process.Round(time.Millisecond),
		res.Times.Candidates.Round(time.Millisecond),
		res.Times.Selection.Round(time.Millisecond),
		res.Times.WDM.Round(time.Millisecond))
}
