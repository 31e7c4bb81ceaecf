// Command operond serves the OPERON flow over HTTP/JSON.
//
// Every request carries its own time budget (timeout_ms), mapped onto a
// context deadline; an exceeded budget never errors — the flow degrades
// along its ladder (ILP incumbent → LR → electrical floor) and the response
// reports degraded=true with a stop_reason. Shutdown is graceful the same
// way: SIGINT/SIGTERM flips /healthz to 503 (the drain signal), cancels the
// in-flight solves, which return their degraded results to any waiting
// clients before the listener drains.
//
// Identical requests are deduplicated by content fingerprint
// (operon.Fingerprint): concurrent duplicates coalesce onto one solve,
// non-degraded results are cached (-cache-entries/-cache-ttl), and POST
// /solve/batch deduplicates within an array — responses carry cached/
// coalesced provenance and stay bit-identical to the solve they shadow.
//
// Telemetry: /metrics serves Prometheus text exposition (request and
// per-stage latency histograms, serving gauges, solver counters),
// /metrics.json the same snapshot as JSON; every request is logged as one
// structured slog record carrying the X-Request-Id echoed to the client.
//
// Usage:
//
//	operond -addr :8080 -queue 64 -concurrency 2
//	curl -s localhost:8080/solve -d '{"bench":"I2","timeout_ms":2000}'
//	curl -s localhost:8080/solve -d '{"bench":"I3","async":true}'
//	curl -s localhost:8080/solve/batch -d '[{"bench":"I1"},{"bench":"I1"}]'
//	curl -s localhost:8080/jobs/job-1
//	curl -s localhost:8080/sessions -d '{"bench":"I3","skip_wdm":true}'
//	curl -s localhost:8080/sessions/sess-1/edit -d '{"edits":[{"kind":"move","group":0,"bit":0,"sink":-1,"x":1.2,"y":0.8}]}'
//	curl -s localhost:8080/metrics
//
// See -h for all options and DESIGN.md §8 for the API reference.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	operon "operon"
	"operon/internal/obs"
	"operon/internal/serve"
)

// Connection timeouts of every listener. A client must finish its request
// headers within readHeaderTimeout, and an idle keep-alive connection is
// closed after idleTimeout. There is deliberately no write timeout: a
// synchronous solve can legitimately outlast any fixed value, and its budget
// is the request's own timeout_ms. Request bodies are bounded by
// internal/serve's per-decode read deadline instead of a read timeout.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("operond: ")

	var (
		addr        = flag.String("addr", "localhost:8080", "listen address")
		queueLen    = flag.Int("queue", 64, "job queue length (full queue returns 429)")
		concurrency = flag.Int("concurrency", 2, "solves run in parallel")
		workers     = flag.Int("workers", 0, "worker pool size per solve (0 = all CPUs)")
		defTimeout  = flag.Duration("default-timeout", 60*time.Second, "time budget for requests without timeout_ms")
		maxTimeout  = flag.Duration("max-timeout", 10*time.Minute, "upper clamp on requested budgets (0 = unclamped)")
		grace       = flag.Duration("grace", 30*time.Second, "shutdown grace period for draining handlers")
		logFormat   = flag.String("log", "text", "request log format: text, json or off")
		smoke       = flag.Bool("smoke", false, "self-test: solve one benchmark under a 1 ms budget in-process and exit")
		sessionTTL  = flag.Duration("session-ttl", 10*time.Minute, "idle lifetime of sticky editing sessions before eviction")
		maxSessions = flag.Int("max-sessions", 64, "cap on concurrent sticky sessions (LRU evicts past it)")
		cacheSize   = flag.Int("cache-entries", 256, "content-addressed result cache capacity (0 disables caching)")
		cacheTTL    = flag.Duration("cache-ttl", 5*time.Minute, "lifetime of cached solve results")
		maxBody     = flag.Int64("max-body-bytes", 8<<20, "request body size cap; exceeding it returns 413 (0 = unlimited)")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		log.Fatal(err)
	}
	cfg := operon.DefaultConfig()
	cfg.Workers = *workers
	// The flags use 0 for "off"; Options uses 0 for "default" — translate.
	cacheEntries := *cacheSize
	if cacheEntries == 0 {
		cacheEntries = -1
	}
	maxBodyBytes := *maxBody
	if maxBodyBytes == 0 {
		maxBodyBytes = -1
	}
	srv := serve.New(serve.Options{
		Config:         cfg,
		QueueLen:       *queueLen,
		Concurrency:    *concurrency,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		Logger:         logger,
		SessionTTL:     *sessionTTL,
		MaxSessions:    *maxSessions,
		CacheEntries:   cacheEntries,
		CacheTTL:       *cacheTTL,
		MaxBodyBytes:   maxBodyBytes,
	})

	if *smoke {
		if err := runSmoke(srv); err != nil {
			log.Fatal(err)
		}
		return
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s", *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("shutting down: cancelling in-flight solves")
	// Cancel the solves first so synchronous handlers receive their degraded
	// results (and /healthz starts answering 503), then drain the listener,
	// then stop the workers.
	srv.Abort()
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	srv.Shutdown()
	log.Print("bye")
}

// newLogger builds the slog request logger for the chosen wire format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "off":
		return slog.New(slog.NewTextHandler(io.Discard, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log format %q (want text, json or off)", format)
	}
}

// runSmoke drives one solve through a real HTTP round trip on an ephemeral
// port: a benchmark under a deliberately hopeless 1 ms budget must come
// back 200 with degraded=true, stop_reason="deadline", a non-zero feasible
// power, and an echoed X-Request-Id — the degradation ladder and the
// telemetry stack observed end to end. The Prometheus exposition is run
// through the line-by-line linter, and the JSON mirror must report the
// degradation counter and a populated end-to-end histogram. CI runs this as
// `make serve-smoke`.
func runSmoke(srv *serve.Server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	req, err := http.NewRequest(http.MethodPost, base+"/solve",
		bytes.NewBufferString(`{"bench":"I3","timeout_ms":1}`))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "smoke-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke: /solve status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "smoke-1" {
		return fmt.Errorf("smoke: X-Request-Id %q, want smoke-1", got)
	}
	var sr serve.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return fmt.Errorf("smoke: decode /solve: %w", err)
	}
	if !sr.Degraded {
		return fmt.Errorf("smoke: 1 ms budget did not degrade: %+v", sr)
	}
	if sr.StopReason != string(operon.StopDeadline) {
		return fmt.Errorf("smoke: stop_reason %q, want %q", sr.StopReason, operon.StopDeadline)
	}
	if sr.PowerMW <= 0 {
		return fmt.Errorf("smoke: degraded result has no power: %+v", sr)
	}

	hr, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke: /healthz status %d", hr.StatusCode)
	}

	pr, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	expo, err := io.ReadAll(pr.Body)
	pr.Body.Close()
	if err != nil {
		return err
	}
	if err := obs.LintExposition(expo); err != nil {
		return fmt.Errorf("smoke: /metrics exposition invalid: %w", err)
	}

	mr, err := http.Get(base + "/metrics.json")
	if err != nil {
		return err
	}
	var metrics struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Histograms []obs.HistogramSnapshot `json:"histograms"`
	}
	err = json.NewDecoder(mr.Body).Decode(&metrics)
	mr.Body.Close()
	if err != nil {
		return fmt.Errorf("smoke: decode /metrics.json: %w", err)
	}
	degradedCount := int64(0)
	for _, c := range metrics.Counters {
		if c.Name == "flow.degraded" {
			degradedCount = c.Value
		}
	}
	if degradedCount < 1 {
		return fmt.Errorf("smoke: flow.degraded counter not bumped")
	}
	e2e := false
	for _, h := range metrics.Histograms {
		if h.Name == "request/e2e" && h.Count >= 1 {
			e2e = true
		}
	}
	if !e2e {
		return fmt.Errorf("smoke: request/e2e histogram not populated")
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Abort()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	srv.Shutdown()
	if err := <-errc; err != http.ErrServerClosed {
		return err
	}
	fmt.Printf("serve-smoke ok: %s degraded to %s floor in %.1f ms (power %.2f mW)\n",
		sr.Design, sr.Flow, sr.ElapsedMS, sr.PowerMW)
	return nil
}
