// The workload table behind every in-repo measurement of the paper's
// evaluation artifacts (Table 1, Fig. 3(b), Fig. 8, Fig. 9) and of the
// stages and serving paths under them. Each row is used three ways:
//
//   - BenchmarkWorkloads times every row (`go test -bench=Workloads
//     -benchmem`), with the default worker pool;
//   - TestAllocsGolden measures the allocation profile of the pinned rows
//     at Workers=1, so the numbers do not depend on the host, and fails on
//     more than 10% growth over testdata/allocs.golden;
//   - the wall-clock gates pair rows and fail below a fixed bound. They
//     are benchmarks, so `go test ./...` never runs them:
//     BenchmarkParallelSpeedup (`make bench-speedup`), BenchmarkECOSpeedup
//     (`make bench-eco`) and BenchmarkScaleI6 (`make bench-scale`).
//
// TestCountersGolden checks the fixed-input solver counters against
// testdata/counters.golden. `go test -run Golden -update .` rewrites both
// golden files, so every accepted change shows up as a review diff.
// Substrate rows (LP engines, MCMF, BI1S, the branchy knapsack) are pinned
// in their own packages.
package operon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	operon "operon"
	"operon/internal/benchgen"
	"operon/internal/ilp"
	"operon/internal/obs"
	"operon/internal/optics/bpm"
	"operon/internal/selection"
	"operon/internal/serve"
	"operon/internal/signal"
	"operon/internal/wdm"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// A workload is one row of the table. setup builds the row's inputs
// (untimed) under cfg and returns the operation to time or to measure.
type workload struct {
	name string
	// pinned rows have their allocation profile checked by
	// TestAllocsGolden.
	pinned bool
	setup  func(tb testing.TB, cfg operon.Config) func() error
}

var workloads = []workload{
	{"Table1/Electrical/I2", true, flowRow("I2", operon.RunElectrical)},
	{"Table1/Optical/I2", true, flowRow("I2", operon.RunOptical)},
	{"Table1/OperonLR/I1", false, flowRow("I1", operon.Run)},
	{"Table1/OperonLR/I2", true, flowRow("I2", operon.Run)},
	{"Table1/OperonLR/I3", false, flowRow("I3", operon.Run)},
	{"Table1/OperonLR/I4", false, flowRow("I4", operon.Run)},
	{"Table1/OperonLR/I5", false, flowRow("I5", operon.Run)},
	{"Table1/OperonILP/I3s", false, operonILPRow},
	{"Process/I3", true, processRow("I3")},
	{"Fig3b/Uncached", true, fig3bRow(bpm.SimulateUncached)},
	{"Fig3b/Cached", false, fig3bRow(bpm.Simulate)},
	{"Fig8/WDM/I2", true, fig8Row("I2")},
	{"Fig8/WDM/I4", false, fig8Row("I4")},
	{"Fig9/I2", false, fig9Row},
	{"LRPricing/I2", true, lrPricingRow},
	{"CrossTable/I5", true, crossTableRow},
	{"ILP/Selection/I3s", true, ilpSelectionRow},
	{"ECO/Cold/I3", true, ecoColdRow},
	{"ECO/SmallEdit/I3", true, ecoEditRow(true, false)},
	{"ECO/SmallEditFullPipeline/I3", true, ecoEditRow(false, false)},
	{"ECO/AllGroups/I3", true, ecoEditRow(true, true)},
	{"Serve/CoalesceHot/I2", true, serveHotRow},
	{"Serve/CacheHitInline/I3", true, serveInlineRow},
	{"Serve/CacheHitFreshBody/I3", true, serveFreshBodyRow},
}

// row returns the named workload; a typo is a test bug.
func row(name string) workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	panic("no workload " + name)
}

// withWorkers is the default configuration at the given pool size.
func withWorkers(n int) operon.Config {
	cfg := operon.DefaultConfig()
	cfg.Workers = n
	return cfg
}

// design loads a benchmark (Table 1 or mega), failing tb on error.
func design(tb testing.TB, name string) signal.Design {
	tb.Helper()
	spec, err := benchgen.SpecByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := benchgen.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// ilpDesign is a reduced I3-style case on which branch and bound proves
// optimality quickly.
func ilpDesign(tb testing.TB) signal.Design {
	tb.Helper()
	d, err := benchgen.Generate(benchgen.Spec{
		Name: "I3s", DieCM: 4, Groups: 24, BitsPerGroup: 30, BitsJitter: 1,
		MinSinkClusters: 1, MaxSinkClusters: 1, LocalFraction: 0.15,
		LocalSpanCM: 0.15, GlobalSpanCM: 1.9, RegionSpreadCM: 0.02,
		LanePitchCM: 0.2, Seed: 103,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// selected runs the flow on d without the WDM stage: the nets and the
// selection the later stages start from.
func selected(tb testing.TB, d signal.Design, cfg operon.Config) *operon.Result {
	tb.Helper()
	cfg.SkipWDM = true
	res, err := operon.Run(d, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// selectionInstance builds the selection instance of res, crossing-loss
// table included, so the selection stage can be measured alone.
func selectionInstance(tb testing.TB, res *operon.Result, cfg operon.Config) *selection.Instance {
	tb.Helper()
	inst, err := selection.NewInstance(res.Nets, cfg.Lib, selection.InstanceOptions{Workers: cfg.Workers})
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

// wdmInputs extracts the optical connections of the selected candidates
// and the WDM configuration of cfg.
func wdmInputs(res *operon.Result, cfg operon.Config) ([]wdm.Connection, wdm.Config) {
	var conns []wdm.Connection
	for i, j := range res.Selection.Choice {
		for _, seg := range res.Nets[i].Cands[j].OpticalSegs {
			conns = append(conns, wdm.Connection{Seg: seg, Bits: res.Nets[i].Bits, Net: i})
		}
	}
	return conns, wdm.Config{
		Capacity:        cfg.Lib.WDMCapacity,
		MinSpacingCM:    cfg.Lib.CrosstalkMinDistCM,
		MaxAssignDistCM: cfg.Lib.AssignMaxDistCM,
	}
}

// solveILP is the exact selection solve under a one-minute budget.
func solveILP(inst *selection.Instance, opt selection.ILPOptions) (selection.ILPResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return selection.SolveILP(ctx, inst, opt)
}

// flowRow runs one Table-1 flow on the named case.
func flowRow(name string, run func(signal.Design, operon.Config) (*operon.Result, error)) func(testing.TB, operon.Config) func() error {
	return func(tb testing.TB, cfg operon.Config) func() error {
		d := design(tb, name)
		return func() error {
			_, err := run(d, cfg)
			return err
		}
	}
}

// operonILPRow is the OPERON-ILP flow on the reduced I3-style case.
func operonILPRow(tb testing.TB, cfg operon.Config) func() error {
	d := ilpDesign(tb)
	cfg.Mode = operon.ModeILP
	cfg.ILPTimeLimit = 30 * time.Second
	return func() error {
		res, err := operon.Run(d, cfg)
		if err == nil && res.ILP.TimedOut {
			err = errors.New("ILP case timed out; shrink the case")
		}
		return err
	}
}

// fig3bRow is the FD-BPM Y-branch cascade of Fig. 3(b).
func fig3bRow(simulate func(bpm.Config, int) (bpm.Result, error)) func(testing.TB, operon.Config) func() error {
	return func(testing.TB, operon.Config) func() error {
		cfg := bpm.DefaultConfig()
		return func() error {
			res, err := simulate(cfg, 2)
			if err == nil && len(res.ArmPowers) != 4 {
				err = fmt.Errorf("%d arms, want 4", len(res.ArmPowers))
			}
			return err
		}
	}
}

// fig8Row is the §4 WDM pipeline (placement sweep and min-cost max-flow
// assignment) on the optical connections of the named case.
func fig8Row(name string) func(testing.TB, operon.Config) func() error {
	return func(tb testing.TB, cfg operon.Config) func() error {
		conns, wcfg := wdmInputs(selected(tb, design(tb, name), cfg), cfg)
		return func() error {
			_, _, _, err := wdm.Run(context.Background(), conns, wcfg)
			return err
		}
	}
}

// processRow is the signal-processing stage (§3.1) alone on one design:
// K-means bit clustering and hyper-pin agglomeration, every group cold.
func processRow(name string) func(testing.TB, operon.Config) func() error {
	return func(tb testing.TB, cfg operon.Config) func() error {
		d := design(tb, name)
		pcfg := signal.ProcessConfig{
			WDMCapacity:         cfg.Lib.WDMCapacity,
			PinMergeThresholdCM: cfg.PinMergeThresholdCM,
			Seed:                cfg.Seed,
			Workers:             cfg.Workers,
		}
		return func() error {
			_, _, err := signal.Process(d, pcfg, nil, nil)
			return err
		}
	}
}

// fig9Row bins the I2 result into the Fig. 9 hotspot maps.
func fig9Row(tb testing.TB, cfg operon.Config) func() error {
	d := design(tb, "I2")
	res, err := operon.Run(d, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return func() error {
		_, err := operon.Hotspots(res, d.Die, 24, 48, cfg)
		return err
	}
}

// lrPricingRow is the Lagrangian selection stage alone on I2.
func lrPricingRow(tb testing.TB, cfg operon.Config) func() error {
	inst := selectionInstance(tb, selected(tb, design(tb, "I2"), cfg), cfg)
	return func() error {
		lr, err := selection.SolveLR(context.Background(), inst, selection.LROptions{Workers: cfg.Workers})
		if err == nil && lr.Selection.Violations != 0 {
			err = errors.New("unrepaired violations")
		}
		return err
	}
}

// crossTableRow builds the selection instance alone on I5's candidate
// nets: the interaction lists and the crossing-loss table fill.
func crossTableRow(tb testing.TB, cfg operon.Config) func() error {
	res := selected(tb, design(tb, "I5"), cfg)
	return func() error {
		_, err := selection.NewInstance(res.Nets, cfg.Lib, selection.InstanceOptions{Workers: cfg.Workers})
		return err
	}
}

// ilpSelectionRow is the exact selection solve alone (branch and bound
// with warm-started revised-simplex relaxations) on the reduced I3-style
// case, root to proven optimum.
func ilpSelectionRow(tb testing.TB, cfg operon.Config) func() error {
	inst := selectionInstance(tb, selected(tb, ilpDesign(tb), cfg), cfg)
	return func() error {
		ir, err := solveILP(inst, selection.ILPOptions{})
		if err == nil && (ir.TimedOut || ir.Status != ilp.Optimal) {
			err = fmt.Errorf("ILP did not prove optimality (status %v, timed out %v)", ir.Status, ir.TimedOut)
		}
		return err
	}
}

// ecoColdRow is the cold solve the ECO rows are compared against: I3
// without WDM, so the comparison covers the incremental stages only.
func ecoColdRow(tb testing.TB, cfg operon.Config) func() error {
	d := design(tb, "I3")
	cfg.SkipWDM = true
	return func() error {
		_, err := operon.Run(d, cfg)
		return err
	}
}

// ecoEditRow is a session re-solve of I3 after an edit. The edit moves the
// first driver of one group (or, with allGroups, of every group) by 0.01 cm
// and back on alternate calls, so every call dirties the same groups.
// skipWDM matches ecoColdRow; without it the row is the full pipeline.
func ecoEditRow(skipWDM, allGroups bool) func(testing.TB, operon.Config) func() error {
	return func(tb testing.TB, cfg operon.Config) func() error {
		d := design(tb, "I3")
		cfg.SkipWDM = skipWDM
		sess, ws := operon.NewSession(d, cfg), operon.NewWorkspace()
		if _, _, err := sess.Resolve(context.Background(), ws); err != nil {
			tb.Fatal(err)
		}
		groups := 1
		if allGroups {
			groups = len(d.Groups)
		}
		moved := false
		return func() error {
			moved = !moved
			edits := make([]operon.Edit, groups)
			for gi := range edits {
				p := d.Groups[gi].Bits[0].Driver
				if moved {
					p.X += 0.01
				}
				edits[gi] = operon.MoveTerminal(gi, 0, -1, p)
			}
			if _, err := sess.Apply(edits...); err != nil {
				return err
			}
			_, _, err := sess.Resolve(context.Background(), ws)
			return err
		}
	}
}

// serveHotRow is an identical /solve request answered from operond's
// result cache through the full HTTP handler path. The request names a
// built-in benchmark; its repeated bytes are found in the server's body
// memo, so a hit is hash, lookup, encode.
func serveHotRow(tb testing.TB, cfg operon.Config) func() error {
	body := []byte(`{"bench":"I2","timeout_ms":60000}`)
	return serveCacheHit(tb, cfg, func() []byte { return body })
}

// serveInlineRow is serveHotRow with the I3 design inline in the request,
// as a client with its own design sends it: hashing the body is most of a
// hit.
func serveInlineRow(tb testing.TB, cfg operon.Config) func() error {
	body := inlineBody(tb, "I3")
	body = append(body[:len(body)-1], `,"timeout_ms":60000}`...)
	return serveCacheHit(tb, cfg, func() []byte { return body })
}

// serveFreshBodyRow is serveInlineRow with timeout_ms changed on every
// post. The budget is not part of the fingerprint, so each post misses the
// body memo and hits the result cache: decode, fingerprint, lookup, encode.
func serveFreshBodyRow(tb testing.TB, cfg operon.Config) func() error {
	base := inlineBody(tb, "I3")
	body, timeout := base, int64(60000)
	return serveCacheHit(tb, cfg, func() []byte {
		timeout++
		body = append(body[:len(base)-1], `,"timeout_ms":`...)
		body = strconv.AppendInt(body, timeout, 10)
		return append(body, '}')
	})
}

// inlineBody is the /solve body that sends the named benchmark inline.
func inlineBody(tb testing.TB, name string) []byte {
	d := design(tb, name)
	body, err := json.Marshal(serve.SolveRequest{Design: &d})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// serveCacheHit posts the next body to /solve once to fill the result
// cache and returns the post, which the cache then answers.
func serveCacheHit(tb testing.TB, cfg operon.Config, next func() []byte) func() error {
	srv := serve.New(serve.Options{Config: cfg, QueueLen: 4, Concurrency: 1, DefaultTimeout: time.Minute})
	tb.Cleanup(func() {
		srv.Abort()
		srv.Shutdown()
	})
	handler := srv.Handler()
	post := func() error {
		req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(next()))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			return fmt.Errorf("/solve returned status %d", w.Code)
		}
		return nil
	}
	if err := post(); err != nil { // the cold solve that fills the cache
		tb.Fatal(err)
	}
	return post
}

// BenchmarkWorkloads times every row of the table.
func BenchmarkWorkloads(b *testing.B) {
	for _, w := range workloads {
		b.Run(w.name, func(b *testing.B) {
			op := w.setup(b, operon.DefaultConfig())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsOverhead measures the cost of the observability layer on the
// end-to-end flow: Nil is the production default (Config.Obs == nil, the
// whole instrumentation path reduces to nil checks), Telemetry is the
// operond serving configuration (counters and per-stage latency histograms
// recorded, spans discarded — obs.New(nil)), Nop pays span/event recording
// into a discarding sink, Collector additionally retains everything in
// memory. Nil vs Telemetry bounds what the serving metrics cost; Nil vs
// Nop bounds what turning tracing on costs.
func BenchmarkObsOverhead(b *testing.B) {
	d := design(b, "I1")
	for _, tc := range []struct {
		name   string
		tracer func() *obs.Tracer // nil = run uninstrumented
	}{
		{"Nil", nil},
		{"Telemetry", func() *obs.Tracer { return obs.New(nil) }},
		{"Nop", func() *obs.Tracer { return obs.New(obs.Nop{}) }},
		{"Collector", func() *obs.Tracer { return obs.New(&obs.Collector{}) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := operon.DefaultConfig()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.tracer != nil {
					cfg.Obs = tc.tracer()
				}
				if _, err := operon.Run(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Fixed bounds of the wall-clock gates.
const (
	// minParallelSpeedup is how much faster the default worker pool must
	// be than Workers=1 when more than one CPU is available.
	minParallelSpeedup = 1.05
	// minECOSpeedup is how much faster a session re-solve after a one-pin
	// edit must be than the cold solve.
	minECOSpeedup = 10
	// megaILPNets is the size of the leading I6 sub-instance the exact
	// solver runs on: 300 nets prove optimal at the root in about 2 s on
	// one core, while 600 push the root relaxation past two minutes.
	megaILPNets = 300
	// megaILPNodes is the node budget of that exact solve.
	megaILPNodes = 256
)

// gateSpeedup times base and fast b.N times each, in alternating order,
// reports base/fast as the "speedup" metric and fails below min. Under
// -benchtime Nx the testing package first calls the benchmark with
// b.N = 1 as a probe; that call returns at once, so the verdict rests only
// on the N requested runs.
func gateSpeedup(b *testing.B, base, fast func() error, min float64) {
	b.Helper()
	if b.N < requestedRuns() {
		return
	}
	ops := [2]func() error{base, fast}
	var elapsed [2]time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 2; k++ {
			side := (i + k) % 2
			start := time.Now()
			if err := ops[side](); err != nil {
				b.Fatal(err)
			}
			elapsed[side] += time.Since(start)
		}
	}
	speedup := float64(elapsed[0]) / float64(elapsed[1])
	b.ReportMetric(speedup, "speedup")
	if speedup < min {
		b.Fatalf("speedup %.2fx < %.2fx (base %v, fast %v over %d runs)", speedup, min, elapsed[0], elapsed[1], b.N)
	}
}

// requestedRuns is N when the benchmarks run under -benchtime Nx, else 0.
func requestedRuns() int {
	f := flag.Lookup("test.benchtime")
	if f == nil {
		return 0
	}
	n, _ := strconv.Atoi(strings.TrimSuffix(f.Value.String(), "x"))
	return n
}

// BenchmarkParallelSpeedup gates the worker pool: the I2 flow and the I2
// LR pricing with the default pool must beat Workers=1 by
// minParallelSpeedup. With GOMAXPROCS=1 it skips, because the pair would
// measure pool overhead, not parallelism.
func BenchmarkParallelSpeedup(b *testing.B) {
	if runtime.GOMAXPROCS(0) == 1 {
		b.Skip("GOMAXPROCS=1: parallel speedup is not measurable")
	}
	for _, name := range []string{"Table1/OperonLR/I2", "LRPricing/I2"} {
		b.Run(name, func(b *testing.B) {
			w := row(name)
			gateSpeedup(b, w.setup(b, withWorkers(1)), w.setup(b, withWorkers(0)), minParallelSpeedup)
		})
	}
}

// BenchmarkECOSpeedup gates incremental re-synthesis: a session re-solve
// after a one-pin edit must beat the cold solve by minECOSpeedup. Only the
// touched group re-clusters and regenerates candidates; the untouched
// groups reuse clustering, trees and candidate sets.
func BenchmarkECOSpeedup(b *testing.B) {
	cfg := operon.DefaultConfig()
	gateSpeedup(b, row("ECO/Cold/I3").setup(b, cfg), row("ECO/SmallEdit/I3").setup(b, cfg), minECOSpeedup)
}

// BenchmarkScaleI6 is the scale smoke: the full flow on the I6 mega case
// (about 20k nets on a 6 cm die), then the exact ILP on its leading
// megaILPNets nets under a megaILPNodes node budget, so the 10^5-column
// path stays exercised. It fails on any error.
func BenchmarkScaleI6(b *testing.B) {
	d := design(b, "I6")
	cfg := operon.DefaultConfig()
	var flow, exact time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		res, err := operon.Run(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		flow += time.Since(start)
		inst, err := selection.NewInstance(res.Nets[:megaILPNets], cfg.Lib, selection.InstanceOptions{Workers: cfg.Workers})
		if err != nil {
			b.Fatal(err)
		}
		start = time.Now()
		if _, err := solveILP(inst, selection.ILPOptions{MaxNodes: megaILPNodes}); err != nil {
			b.Fatal(err)
		}
		exact += time.Since(start)
	}
	b.ReportMetric(flow.Seconds()/float64(b.N), "flow-s/op")
	b.ReportMetric(exact.Seconds()/float64(b.N), "ilp-s/op")
}

// maxGrowth is the growth over a golden value that fails a golden test.
const maxGrowth = 0.10

// A goldenColumn is one measure per golden line; growth that does not
// exceed floor never fails, so tiny entries cannot flake.
type goldenColumn struct {
	name  string
	floor float64
}

// checkGolden compares got against the golden file at path (one line per
// name: the name, then one integer per column), or rewrites the file under
// -update. A value more than maxGrowth (and its column's floor) above the
// golden one fails, as does a name present on only one side; other changes
// above the floor are logged.
func checkGolden(t *testing.T, path string, cols []goldenColumn, got map[string][]float64) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if *update {
		var buf bytes.Buffer
		for _, name := range names {
			buf.WriteString(name)
			for _, v := range got[name] {
				fmt.Fprintf(&buf, " %.0f", v)
			}
			buf.WriteByte('\n')
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -update writes it)", err)
	}
	want := map[string][]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 1+len(cols) {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		for _, s := range f[1:] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			want[f[0]] = append(want[f[0]], v)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: in %s but no longer measured (go test -update drops it)", name, path)
		}
	}
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not in %s (go test -update adds it)", name, path)
			continue
		}
		for k, col := range cols {
			g := got[name][k]
			switch {
			case g-w[k] > col.floor && g > w[k]*(1+maxGrowth):
				t.Errorf("%s %s: %.0f, golden %.0f: more than %.0f%% growth", name, col.name, g, w[k], 100*maxGrowth)
			case math.Abs(g-w[k]) > col.floor:
				t.Logf("%s %s: %.0f, golden %.0f (within bound; go test -update records it)", name, col.name, g, w[k])
			}
		}
	}
}

// TestCountersGolden checks the solver behaviour counters of one fixed
// pass against testdata/counters.golden: the exact selection solve on the
// reduced I3-style case, then the WDM stage on the I2 optical connections,
// plus the LR iteration count of the I2 flow. The counters do not depend
// on machine speed, so growth means the solvers do more work for the same
// input.
func TestCountersGolden(t *testing.T) {
	cfg := operon.DefaultConfig()
	tr := obs.New(nil)
	inst := selectionInstance(t, selected(t, ilpDesign(t), cfg), cfg)
	if _, err := solveILP(inst, selection.ILPOptions{Obs: tr}); err != nil {
		t.Fatal(err)
	}
	i2 := selected(t, design(t, "I2"), cfg)
	conns, wcfg := wdmInputs(i2, cfg)
	wcfg.Obs = tr
	if _, _, _, err := wdm.Run(context.Background(), conns, wcfg); err != nil {
		t.Fatal(err)
	}
	got := map[string][]float64{"lr.iters": {float64(i2.LR.Iters)}}
	for _, c := range tr.Snapshot() {
		switch c.Name {
		case "lp.pivots", "lp.refactors", "ilp.nodes", "mcmf.augmentations", "wdm.arcs":
			got[c.Name] = []float64{float64(c.Value)}
		}
	}
	checkGolden(t, "testdata/counters.golden", []goldenColumn{{"value", 0}}, got)
}

// TestAllocsGolden checks the allocations and allocated bytes of one call
// of every pinned row at Workers=1 against testdata/allocs.golden, above a
// floor of 16 allocations and 1 KiB. testing.AllocsPerRun pins GOMAXPROCS
// to 1 while it measures, so `go test -cpu 1,2,4` reads the same numbers.
func TestAllocsGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	got := map[string][]float64{}
	for _, w := range workloads {
		if !w.pinned {
			continue
		}
		op := w.setup(t, withWorkers(1))
		if err := op(); err != nil { // fill the process-wide caches
			t.Fatalf("%s: %v", w.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(2, func() {
			if err := op(); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
		})
		runtime.ReadMemStats(&after)
		// AllocsPerRun makes one warm-up call before its two measured ones.
		got[w.name] = []float64{allocs, float64((after.TotalAlloc - before.TotalAlloc) / 3)}
	}
	checkGolden(t, "testdata/allocs.golden", []goldenColumn{{"allocs", 16}, {"bytes", 1024}}, got)
}
