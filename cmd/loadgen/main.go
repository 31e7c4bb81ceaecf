// Command loadgen replays deterministic request mixes against operond and
// gates the result on committed SLOs.
//
// The generator is seeded: a mix is a reproducible schedule of solve
// requests with hot-key skew (one benchmark dominates, like a production
// hot shard), burst arrivals (back-to-back dispatches separated by pauses)
// and mixed time budgets (generous, tight, and deliberately hopeless ones
// that must come back degraded, never failed). The eco mix is different in
// kind: it replays the interactive editing workload — concurrent sticky
// sessions each looping POST /sessions/{id}/edit with deterministic
// one-pin moves (and periodic empty-script full-reuse probes), exercising
// the incremental re-synthesis path end to end. The dup mix replays a
// duplicate-heavy sweep — six distinct instances hammered with hot-key
// skew as singles and /solve/batch arrays — and reports the server-side
// dedup win (effective solves per request from /metrics.json counter
// deltas) while differentially checking that deduplicated responses stay
// bit-identical. The target is either a remote operond (-url) or a full
// in-process serving stack — the real internal/serve Server on an
// ephemeral listener — so CI needs no daemon.
//
// After the run, loadgen reports client-observed p50/p95/p99 latency,
// throughput, and error/429/degraded rates, writes them to LOAD_<date>.json
// (or -out), and — with -check — compares against the newest committed
// LOAD_*.json baseline, exiting non-zero when latency or error SLOs
// regress beyond the (deliberately generous, CI-noise-tolerant)
// thresholds. In-process runs also lint the server's /metrics Prometheus
// exposition and require jobs_tracked == 0 before shutting down.
//
// Usage:
//
//	go run ./cmd/loadgen -requests 60 -check -out LOAD_ci.json.tmp
//	go run ./cmd/loadgen -url http://prod-host:8080 -mix soak
//
// CI runs `make load-smoke`; `make load-compare` prints the delta against
// the committed baseline without rewriting it.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	operon "operon"
	"operon/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")

	var (
		url         = flag.String("url", "", "target operond base URL (empty = boot an in-process server)")
		mix         = flag.String("mix", "smoke", "request mix: smoke, soak, hopeless, eco (sticky-session edit loop) or dup (duplicate-heavy single+batch traffic)")
		requests    = flag.Int("requests", 60, "total requests to replay")
		concurrency = flag.Int("concurrency", 4, "client connections issuing requests")
		seed        = flag.Int64("seed", 1, "mix generator seed")
		queueLen    = flag.Int("queue", 16, "in-process server queue length")
		srvConc     = flag.Int("server-concurrency", 2, "in-process server solve concurrency")
		out         = flag.String("out", "", "report path (default LOAD_<date>.json; *.tmp paths are gitignored)")
		baseline    = flag.String("baseline", "", "baseline report to compare against (default: newest committed LOAD_*.json)")
		check       = flag.Bool("check", false, "exit non-zero when the run regresses the baseline SLOs")
		latFactor   = flag.Float64("slo-latency-factor", 10, "allowed p50/p95/p99 growth over baseline (CI machines vary widely)")
		errPP       = flag.Float64("slo-error-pp", 2, "allowed error-rate growth over baseline, percentage points")
		noWrite     = flag.Bool("no-write", false, "skip writing the report file")
		sessions    = flag.Int("sessions", 4, "concurrent sticky sessions (eco mix only)")
		maxErrors   = flag.Int("max-errors", -1, "exit non-zero when errors exceed this count (-1 = off)")
		minReduce   = flag.Float64("min-reduction", 0, "exit non-zero when the dup mix's effective solve reduction falls below this factor (0 = off)")
		minHits     = flag.Int64("min-cache-hits", 0, "exit non-zero when the dup mix sees fewer cache hits than this (0 = off)")
	)
	flag.Parse()

	base := *url
	var shutdown func() error
	if base == "" {
		var err error
		base, shutdown, err = bootInProcess(*queueLen, *srvConc)
		if err != nil {
			log.Fatal(err)
		}
	}

	var rep *Report
	var err error
	switch *mix {
	case "eco":
		rep, err = replayEco(base, *requests, *sessions, *seed)
	case "dup":
		rep, err = replayDup(base, *requests, *concurrency, *seed)
	default:
		rep, err = replay(base, genRequests(*mix, *requests, *seed), *concurrency)
	}
	if err != nil {
		log.Fatal(err)
	}
	rep.Mix = *mix
	rep.Seed = *seed
	rep.Generated = time.Now().UTC().Format(time.RFC3339)

	if shutdown != nil {
		if err := shutdown(); err != nil {
			log.Fatal(err)
		}
	}

	printReport(os.Stdout, rep)

	if *maxErrors >= 0 && rep.Counts.Errors > int64(*maxErrors) {
		log.Fatalf("error gate: %d errors > %d allowed", rep.Counts.Errors, *maxErrors)
	}
	if d := rep.Dedup; d != nil {
		if *minReduce > 0 && d.EffectiveReduction < *minReduce {
			log.Fatalf("dedup gate: effective solve reduction %.1fx < %.1fx required", d.EffectiveReduction, *minReduce)
		}
		if *minHits > 0 && d.CacheHits < *minHits {
			log.Fatalf("dedup gate: %d cache hits < %d required", d.CacheHits, *minHits)
		}
	}

	if !*noWrite {
		path := *out
		if path == "" {
			// The smoke mix keeps the historical unsuffixed name so old
			// baselines stay comparable; other mixes are suffixed.
			path = fmt.Sprintf("LOAD_%s.json", time.Now().UTC().Format("2006-01-02"))
			if *mix != "smoke" {
				path = fmt.Sprintf("LOAD_%s-%s.json", time.Now().UTC().Format("2006-01-02"), *mix)
			}
		}
		if err := writeReport(path, rep); err != nil {
			log.Fatal(err)
		}
		log.Printf("report written to %s", path)
	}

	if *check {
		basePath := *baseline
		if basePath == "" {
			basePath, err = newestBaseline(".", rep.Mix)
			if err != nil {
				log.Fatal(err)
			}
		}
		baseRep, err := readReport(basePath)
		if err != nil {
			log.Fatal(err)
		}
		violations := compareSLO(baseRep, rep, SLO{LatencyFactor: *latFactor, ErrorPP: *errPP})
		fmt.Printf("\nSLO gate vs %s:\n", basePath)
		if len(violations) == 0 {
			fmt.Println("  ok — within thresholds")
			return
		}
		for _, v := range violations {
			fmt.Printf("  REGRESSION: %s\n", v)
		}
		os.Exit(1)
	}
}

// Connection timeouts of the in-process listener: request headers must
// arrive within readHeaderTimeout, and idle keep-alive connections close
// after idleTimeout. No write timeout: a synchronous solve may outlast any
// fixed value.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// bootInProcess starts the real serving stack on an ephemeral listener and
// returns its base URL plus a shutdown hook that, before tearing the server
// down, lints the /metrics Prometheus exposition and checks that no
// answered job is still registered (jobs_tracked == 0).
func bootInProcess(queueLen, concurrency int) (string, func() error, error) {
	cfg := operon.DefaultConfig()
	srv := serve.New(serve.Options{
		Config:         cfg,
		QueueLen:       queueLen,
		Concurrency:    concurrency,
		DefaultTimeout: time.Minute,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	shutdown := func() error {
		if err := lintMetrics(base); err != nil {
			return err
		}
		if err := checkJobsTracked(base); err != nil {
			return err
		}
		srv.Abort()
		if err := httpSrv.Close(); err != nil {
			return err
		}
		srv.Shutdown()
		if err := <-errc; err != http.ErrServerClosed {
			return err
		}
		return nil
	}
	return base, shutdown, nil
}
