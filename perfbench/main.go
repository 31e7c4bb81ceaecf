// Command perfbench is OPERON's end-to-end benchmark. It runs one named
// workload against the public entry points for a fixed measuring window,
// checks every output, and prints the run's metrics as the last line of
// standard output:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// Run it from the repository root; run.sh builds the binary from source
// first:
//
//	bash perfbench/run.sh --workload table1-lr --seed 1 --seconds 30 --trace 0
//
// Workloads (README.md gives the reasons and the metric table):
//
//	table1-lr  one caller, cold LR solves round-robin over Table-1 designs
//	exact-ilp  one caller, cold exact-ILP solves over I3-style designs
//	serve-mix  two closed-loop HTTP callers against an in-process operond
//
// Every input is generated from --seed: benchgen specs with their Seed
// replaced by values derived from it. With --trace 0 the metrics are the
// end-to-end ones; --trace 1 is a separate instrumented run that prints the
// per-layer ones instead, and its end-to-end numbers are never reported.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// processStart anchors setup_s: the first set-up is timed from here.
var processStart = time.Now()

// setupRepeats is how many times a run sets its workload up afresh;
// setup_s is the median, which keeps one slow set-up from moving it.
const setupRepeats = 3

// endToEnd and perLayer are the metric names of BENCHMARK.json, in order.
// A run prints exactly one of the two sets; a missing name is a bug.
var endToEnd = []string{
	"ops_per_s", "op_ms_p50", "op_ms_p90", "power_mw", "setup_s", "peak_rss_mb",
}

var perLayer = []string{
	"stage.wall_ms", "stage.process_ms", "stage.candidates_ms", "stage.selection_ms",
	"stage.wdm_ms", "stage.other_ms",
	"lr.iters", "cands.per_net", "net.candidates_ms", "bpm.lookups", "bpm.hit_ratio",
	"lp.pivots", "lp.refactors", "lp.bound_flips", "lp.presolve_rows",
	"ilp.nodes", "ilp.spec_useful_ratio",
	"wdm.place_ms", "wdm.assign_ms", "mcmf.augmentations", "wdm.arcs",
	"ws.worker.reuse_ratio",
	"session.edit_ms_p50", "session.edit_ms_p90", "session.resolve_ms_p50",
	"session.cands_reuse_ratio", "session.crosscache_seeded",
	"serve.queue_wait_ms_p90", "serve.solve_ms_p50", "serve.cache_hit_ms_p50",
	"serve.cache_hit_ratio", "serve.solves_per_req", "serve.coalesce_joins", "serve.rejected",
	"serve.decode_ms", "serve.fingerprint_ms", "serve.bench_gen_ms", "serve.encode_ms",
	"alloc_mb_per_op", "gc_cycles_per_op", "host_ref_ms", "trace.overhead_pct",
}

// workloads maps --workload onto the function that runs it.
var workloads = map[string]func(*bench) error{
	"table1-lr": table1LR.run,
	"exact-ilp": exactILP.run,
	"serve-mix": runServeMix,
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run: its settings, operation tallies, the
// host-probe samples, and every metric the workload measured.
type bench struct {
	ctx    context.Context
	seed   int64
	window time.Duration
	traced bool

	attempted int
	failed    int
	host      []float64
	metrics   map[string]metric
}

func main() {
	workload := flag.String("workload", "", "workload to run: table1-lr, exact-ilp or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "length of the measuring window in seconds")
	trace := flag.Int("trace", 0, "1 runs instrumented and prints the per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	switch {
	case !ok:
		fatalf("unknown workload %q (want table1-lr, exact-ilp or serve-mix)", *workload)
	case *seconds < 1:
		fatalf("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		fatalf("--trace must be 0 or 1")
	}
	b := &bench{
		ctx:     context.Background(),
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		metrics: map[string]metric{},
	}
	if err := run(b); err != nil {
		fatalf("%s: %v", *workload, err)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		fatalf("%v", err)
	}
	b.put("peak_rss_mb", "MiB", rss)
	b.put("host_ref_ms", "ms", median(b.host))

	names := endToEnd
	if b.traced {
		names = perLayer
	}
	rep := report{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	for _, name := range names {
		m, ok := b.metrics[name]
		if !ok {
			fatalf("%s: metric %q was not measured", *workload, name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatalf("%s: metric %q is %v", *workload, name, m.Value)
		}
		rep.Metrics[name] = m
	}
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d attempted=%d failed=%d\n",
		*workload, *seed, *seconds, *trace, b.attempted, b.failed)
	fmt.Printf("# noise: host_ref_ms=%.3f alloc_mb_per_op=%.3f gc_cycles_per_op=%.3f\n",
		b.metrics["host_ref_ms"].Value, b.metrics["alloc_mb_per_op"].Value, b.metrics["gc_cycles_per_op"].Value)
	out, err := json.Marshal(rep)
	if err != nil {
		fatalf("encode report: %v", err)
	}
	fmt.Println(string(out))
}

// fatalf reports a harness error and exits non-zero without a result line.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// put records a metric; a later put of the same name overwrites it.
func (b *bench) put(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation and logs the first few reasons.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if b.failed <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// setUp builds a workload's environment setupRepeats times, closes all but
// the last, records the median set-up time as setup_s, and returns the
// last environment. The first set-up is timed from process start, so
// setup_s covers everything a user pays before the first timed operation.
func setUp[T any](b *bench, build func() (T, error), release func(T)) (T, error) {
	var env T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		} else {
			release(env)
		}
		var err error
		if env, err = build(); err != nil {
			return env, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	b.put("setup_s", "s", median(times))
	return env, nil
}

// putLatency records the end-to-end throughput and latency metrics of a
// window that completed len(lat) operations (latencies in ms) in busy.
func (b *bench) putLatency(lat []float64, busy time.Duration) {
	b.put("ops_per_s", "1/s", float64(len(lat))/busy.Seconds())
	b.put("op_ms_p50", "ms", quantile(lat, 0.50))
	b.put("op_ms_p90", "ms", quantile(lat, 0.90))
}

// putRuntime records the Go runtime's allocation and GC work per operation
// over a window that ran ops operations since before was taken.
func (b *bench) putRuntime(before runtimeStats, ops int) {
	after := readRuntime()
	n := float64(max(ops, 1))
	b.put("alloc_mb_per_op", "MiB", float64(after.allocBytes-before.allocBytes)/(1<<20)/n)
	b.put("gc_cycles_per_op", "count", float64(after.gcCycles-before.gcCycles)/n)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. It sorts a copy; an empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or ifEmpty when den is zero.
func ratio(num, den, ifEmpty float64) float64 {
	if den == 0 {
		return ifEmpty
	}
	return num / den
}

// derive maps (seed, stream, i) onto a benchgen spec seed with a splitmix64
// finaliser, so every input of a run is a pure function of --seed and the
// design families of one run draw independent streams.
func derive(seed int64, stream, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(stream)<<40 ^ uint64(i)
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}
