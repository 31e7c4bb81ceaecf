package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"operon/internal/obs"
	"operon/internal/serve"
)

// Report is the wire format of a loadgen run — the LOAD_<date>.json files
// committed to the repo are exactly this struct, so a baseline is just a
// previous run.
type Report struct {
	// Generated is the RFC3339 UTC completion time of the run.
	Generated string `json:"generated"`
	// Mix, Seed, Requests and Concurrency reproduce the schedule.
	Mix         string `json:"mix"`
	Seed        int64  `json:"seed"`
	Requests    int    `json:"requests"`
	Concurrency int    `json:"concurrency"`
	// DurationS is the replay wall clock; ThroughputRPS = Requests/DurationS.
	DurationS     float64 `json:"duration_s"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// Counts are absolute outcome tallies, Rates the same as fractions of
	// the total (429s and degradations are expected outcomes of the mix,
	// not errors: a hopeless budget must degrade, a burst may bounce).
	Counts ReportCounts `json:"counts"`
	Rates  ReportRates  `json:"rates"`
	// LatencyMS summarises client-observed /solve wall clock over the
	// successful (200) requests only.
	LatencyMS LatencyMS `json:"latency_ms"`
	// Dedup is the server-side deduplication accounting of the dup mix
	// (nil for the other mixes). Requests counts items there: batch
	// dispatches contribute one item per array element.
	Dedup *DedupStats `json:"dedup,omitempty"`
}

// DedupStats quantifies how much work content-addressed coalescing, the
// result cache, and within-batch dedup saved during a dup-mix run. The
// solver-side numbers are /metrics.json counter deltas taken around the
// replay, so they measure what the server actually did, not what the
// client believes happened.
type DedupStats struct {
	// Items is the solve-item count issued (singles + batch elements);
	// UniqueKeys the distinct instances in the mix; DupRatio their ratio.
	Items      int64   `json:"items"`
	UniqueKeys int     `json:"unique_keys"`
	DupRatio   float64 `json:"dup_ratio"`
	// SolvesRun is the http.solves_run delta: solves that actually
	// executed. CacheHits and CoalesceJoins are the matching counter
	// deltas for items answered without running a solve.
	SolvesRun     int64 `json:"solves_run"`
	CacheHits     int64 `json:"cache_hits"`
	CoalesceJoins int64 `json:"coalesce_joins"`
	// EffectiveReduction is Items/SolvesRun — how many requests each
	// executed solve served on average.
	EffectiveReduction float64 `json:"effective_reduction"`
	// Mismatches counts duplicate responses whose semantic payload
	// differed from their key's reference — must be zero.
	Mismatches int64 `json:"mismatches"`
}

// ReportCounts are the absolute outcome tallies of a run.
type ReportCounts struct {
	// OK counts 200 responses, TooMany 429s, Errors everything else
	// (transport failures included). Degraded counts the subset of OK
	// responses that report degraded=true.
	OK       int64 `json:"ok"`
	TooMany  int64 `json:"too_many"`
	Errors   int64 `json:"errors"`
	Degraded int64 `json:"degraded"`
}

// ReportRates are the outcome tallies as fractions of total requests.
type ReportRates struct {
	// Error, TooMany and Degraded are Counts/Requests in [0,1].
	Error    float64 `json:"error"`
	TooMany  float64 `json:"too_many"`
	Degraded float64 `json:"degraded"`
}

// LatencyMS are client-observed latency quantiles in milliseconds.
type LatencyMS struct {
	// P50/P95/P99 are histogram-estimated quantiles; Mean is exact.
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
}

// replay dispatches the schedule against base with the given client
// concurrency and summarises the outcomes. Dispatch order and pacing follow
// the specs (bursts and pauses); completion order is whatever the server
// yields.
func replay(base string, specs []reqSpec, concurrency int) (*Report, error) {
	if concurrency < 1 {
		concurrency = 1
	}
	hist := obs.NewHistogram("client/solve", nil)
	var ok, tooMany, errs, degraded atomic.Int64

	work := make(chan reqSpec)
	var wg sync.WaitGroup
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range work {
				start := time.Now()
				resp, err := http.Post(base+"/solve", "application/json",
					strings.NewReader(fmt.Sprintf(`{"bench":%q,"timeout_ms":%d}`, spec.Bench, spec.TimeoutMS)))
				if err != nil {
					errs.Add(1)
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					hist.RecordDuration(time.Since(start))
					ok.Add(1)
					var sr serve.SolveResponse
					if json.NewDecoder(resp.Body).Decode(&sr) == nil && sr.Degraded {
						degraded.Add(1)
					}
				case http.StatusTooManyRequests:
					tooMany.Add(1)
				default:
					errs.Add(1)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	start := time.Now()
	for _, spec := range specs {
		if spec.DelayMS > 0 {
			time.Sleep(time.Duration(spec.DelayMS) * time.Millisecond)
		}
		work <- spec
	}
	close(work)
	wg.Wait()
	dur := time.Since(start)

	total := int64(len(specs))
	snap := hist.Snapshot()
	const ms = 1e6 // histogram values are nanoseconds
	rep := &Report{
		Requests:      len(specs),
		Concurrency:   concurrency,
		DurationS:     dur.Seconds(),
		ThroughputRPS: float64(total) / dur.Seconds(),
		Counts: ReportCounts{
			OK: ok.Load(), TooMany: tooMany.Load(),
			Errors: errs.Load(), Degraded: degraded.Load(),
		},
		LatencyMS: LatencyMS{
			P50:  snap.Quantile(0.50) / ms,
			P95:  snap.Quantile(0.95) / ms,
			P99:  snap.Quantile(0.99) / ms,
			Mean: snap.Mean() / ms,
		},
	}
	if total > 0 {
		rep.Rates = ReportRates{
			Error:    float64(rep.Counts.Errors) / float64(total),
			TooMany:  float64(rep.Counts.TooMany) / float64(total),
			Degraded: float64(rep.Counts.Degraded) / float64(total),
		}
	}
	return rep, nil
}

// printReport writes the human-readable run summary.
func printReport(w io.Writer, r *Report) {
	fmt.Fprintf(w, "loadgen: mix=%s seed=%d requests=%d concurrency=%d\n",
		r.Mix, r.Seed, r.Requests, r.Concurrency)
	fmt.Fprintf(w, "  duration    %.2fs (%.1f req/s)\n", r.DurationS, r.ThroughputRPS)
	fmt.Fprintf(w, "  outcomes    ok=%d 429=%d errors=%d degraded=%d\n",
		r.Counts.OK, r.Counts.TooMany, r.Counts.Errors, r.Counts.Degraded)
	fmt.Fprintf(w, "  rates       error=%.1f%% 429=%.1f%% degraded=%.1f%%\n",
		100*r.Rates.Error, 100*r.Rates.TooMany, 100*r.Rates.Degraded)
	fmt.Fprintf(w, "  latency_ms  p50=%.1f p95=%.1f p99=%.1f mean=%.1f\n",
		r.LatencyMS.P50, r.LatencyMS.P95, r.LatencyMS.P99, r.LatencyMS.Mean)
	if d := r.Dedup; d != nil {
		fmt.Fprintf(w, "  dedup       items=%d unique=%d (%.1f:1) solves_run=%d cache_hits=%d joins=%d\n",
			d.Items, d.UniqueKeys, d.DupRatio, d.SolvesRun, d.CacheHits, d.CoalesceJoins)
		fmt.Fprintf(w, "  dedup       effective reduction %.1fx, mismatches=%d\n",
			d.EffectiveReduction, d.Mismatches)
	}
}

// writeReport marshals the report to path.
func writeReport(path string, r *Report) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// readReport unmarshals a report from path.
func readReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// newestBaseline finds the lexicographically newest committed LOAD_*.json
// in dir whose recorded mix matches — the date-stamped naming makes
// lexicographic and chronological order agree, and filtering by mix keeps
// a dup baseline from gating a smoke run (their latency profiles differ by
// construction). Unreadable candidates are skipped.
func newestBaseline(dir, mix string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "LOAD_*.json"))
	if err != nil {
		return "", err
	}
	sort.Strings(matches)
	for i := len(matches) - 1; i >= 0; i-- {
		r, err := readReport(matches[i])
		if err != nil {
			continue
		}
		if r.Mix == mix {
			return matches[i], nil
		}
	}
	return "", fmt.Errorf("no LOAD_*.json baseline for mix %q found in %s", mix, dir)
}

// SLO are the regression thresholds of the gate. They are deliberately
// loose: CI machines differ wildly from the machine that produced the
// committed baseline, so the gate is meant to catch order-of-magnitude
// latency collapses and correctness regressions (requests erroring), not
// single-digit-percent drift.
type SLO struct {
	// LatencyFactor bounds p50/p95/p99 growth: cur <= base*factor.
	LatencyFactor float64
	// ErrorPP bounds error-rate growth in percentage points.
	ErrorPP float64
}

// compareSLO returns the SLO violations of cur against base (empty = gate
// passes). Degraded and 429 rates are reported but never gated — both are
// legitimate, load-dependent outcomes the mix provokes on purpose.
func compareSLO(base, cur *Report, slo SLO) []string {
	var v []string
	if cur.Counts.OK == 0 {
		v = append(v, "no successful requests")
	}
	lat := []struct {
		name      string
		base, cur float64
	}{
		{"p50", base.LatencyMS.P50, cur.LatencyMS.P50},
		{"p95", base.LatencyMS.P95, cur.LatencyMS.P95},
		{"p99", base.LatencyMS.P99, cur.LatencyMS.P99},
	}
	for _, l := range lat {
		if l.base > 0 && l.cur > l.base*slo.LatencyFactor {
			v = append(v, fmt.Sprintf("latency %s %.1f ms > %.1f ms (baseline %.1f ms × %g)",
				l.name, l.cur, l.base*slo.LatencyFactor, l.base, slo.LatencyFactor))
		}
	}
	if allowed := base.Rates.Error + slo.ErrorPP/100; cur.Rates.Error > allowed {
		v = append(v, fmt.Sprintf("error rate %.2f%% > %.2f%% (baseline %.2f%% + %gpp)",
			100*cur.Rates.Error, 100*allowed, 100*base.Rates.Error, slo.ErrorPP))
	}
	// Dedup regressions (dup mix only): correctness is absolute, the
	// hit-rate gate allows half the baseline's reduction before failing —
	// scheduling jitter moves the cache/coalesce split between runs, but a
	// 2x collapse means dedup stopped working.
	if base.Dedup != nil && cur.Dedup != nil {
		if cur.Dedup.Mismatches > 0 {
			v = append(v, fmt.Sprintf("dedup payload mismatches: %d (must be 0)", cur.Dedup.Mismatches))
		}
		if floor := base.Dedup.EffectiveReduction / 2; cur.Dedup.EffectiveReduction < floor {
			v = append(v, fmt.Sprintf("effective solve reduction %.1fx < %.1fx (half of baseline %.1fx)",
				cur.Dedup.EffectiveReduction, floor, base.Dedup.EffectiveReduction))
		}
	}
	return v
}

// checkJobsTracked fails when the server's /metrics.json reports a non-zero
// jobs_tracked gauge after the run. No loadgen mix sends async requests and
// every client waits for its answer, so a job still registered then is a
// job table that keeps answered requests alive.
func checkJobsTracked(base string) error {
	resp, err := http.Get(base + "/metrics.json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var snap obs.RegistrySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("decode /metrics.json: %w", err)
	}
	for _, g := range snap.Gauges {
		if g.Name == "jobs_tracked" {
			if g.Value > 0 {
				return fmt.Errorf("jobs_tracked = %g after the run, want 0: answered requests are still held", g.Value)
			}
			return nil
		}
	}
	return fmt.Errorf("/metrics.json has no jobs_tracked gauge")
}

// lintMetrics fetches /metrics from base and validates it line by line
// against the Prometheus text exposition format.
func lintMetrics(base string) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	expo, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if err := obs.LintExposition(expo); err != nil {
		return fmt.Errorf("/metrics exposition invalid: %w", err)
	}
	return nil
}
