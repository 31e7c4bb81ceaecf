package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	operon "operon"
	"operon/internal/benchgen"
	"operon/internal/obs"
	"operon/internal/signal"
)

// newTestServer builds a server with the given queue/concurrency/timeouts.
func newTestServer(queueLen, concurrency int, defTimeout, maxTimeout time.Duration) *Server {
	return New(Options{
		Config:         operon.DefaultConfig(),
		QueueLen:       queueLen,
		Concurrency:    concurrency,
		DefaultTimeout: defTimeout,
		MaxTimeout:     maxTimeout,
	})
}

// testDesign generates a small deterministic design for server tests.
func testDesign(t *testing.T) signal.Design {
	return testDesignSeed(t, 7)
}

// testDesignSeed generates a small deterministic design whose content (and
// so its fingerprint) varies with the seed — tests that must NOT coalesce
// use distinct seeds.
func testDesignSeed(t *testing.T, seed int64) signal.Design {
	t.Helper()
	d, err := benchgen.Generate(benchgen.Spec{
		Name: "srv-a", DieCM: 4, Groups: 24, BitsPerGroup: 8, BitsJitter: 2,
		MinSinkClusters: 1, MaxSinkClusters: 3, LocalFraction: 0.3,
		LocalSpanCM: 0.3, GlobalSpanCM: 2.0, RegionSpreadCM: 0.02, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// post sends a JSON body to path and returns the response.
func post(t *testing.T, ts *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decode unmarshals a response body into v and closes it.
func decode(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// awaitState polls /jobs/{id} until the job reaches the wanted state.
func awaitState(t *testing.T, ts *httptest.Server, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var j Job
		decode(t, resp, &j)
		if j.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, j.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQueueFullReturns429 fills the single queue slot behind a blocked
// solver and asserts the next request is rejected with 429 — a /solve, a
// session create (which then registers no session) and a session edit
// alike — and that the queue drains normally once the solver is released.
func TestQueueFullReturns429(t *testing.T) {
	srv := newTestServer(1, 1, time.Minute, 0)
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	srv.SetSolve(func(ctx context.Context, d signal.Design, cfg operon.Config, _ *operon.Workspace) (*operon.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &operon.Result{Design: d.Name, PowerMW: 1}, nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// A session opened while the queue is empty; its resolves bypass the
	// stub but not the queue.
	sess := createSession(t, ts, 61)
	// Three DISTINCT designs: identical ones would coalesce into a single
	// solve instead of filling the queue.
	d1, d2, d3 := testDesignSeed(t, 7), testDesignSeed(t, 8), testDesignSeed(t, 9)

	// Job 1 is picked up by the lone worker and blocks; job 2 occupies the
	// single queue slot; job 3 must bounce.
	var j1, j2 Job
	decode(t, post(t, ts, "/solve", SolveRequest{Design: &d1, Async: true}), &j1)
	<-started
	decode(t, post(t, ts, "/solve", SolveRequest{Design: &d2, Async: true}), &j2)
	resp := post(t, ts, "/solve", SolveRequest{Design: &d3, Async: true})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third job got status %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()
	d4 := testDesignSeed(t, 10)
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/sessions", SessionRequest{Design: &d4, SkipWDM: true}},
		{"/sessions/" + sess.SessionID + "/edit", EditRequest{}},
	} {
		resp := post(t, ts, tc.path, tc.body)
		var body map[string]string
		decode(t, resp, &body)
		if resp.StatusCode != http.StatusTooManyRequests || body["error"] == "" {
			t.Errorf("%s with the queue full: status %d body %v, want a JSON 429", tc.path, resp.StatusCode, body)
		}
	}
	if got := gaugeValue(t, ts, "sessions_active"); got != 1 {
		t.Errorf("sessions_active = %g after a rejected create, want 1", got)
	}

	close(release)
	awaitState(t, ts, j1.ID, JobDone)
	awaitState(t, ts, j2.ID, JobDone)

	// The middleware counted the rejections and the histograms saw the jobs.
	if v := srv.Tracer().Counter("http.429").Value(); v != 3 {
		t.Errorf("http.429 = %d, want 3", v)
	}
	ts.Close()
	srv.Shutdown()
}

// TestDeadlineExceededReturnsDegraded drives the real flow through the
// server under a hopeless 1 ms budget (benchmark I3 needs seconds): the
// response must be 200 with degraded=true and stop_reason "deadline" —
// never an error.
func TestDeadlineExceededReturnsDegraded(t *testing.T) {
	srv := newTestServer(4, 1, time.Minute, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := post(t, ts, "/solve", SolveRequest{Bench: "I3", TimeoutMS: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline-exceeded solve got status %d, want 200", resp.StatusCode)
	}
	var sr SolveResponse
	decode(t, resp, &sr)
	if !sr.Degraded {
		t.Fatalf("1 ms budget did not degrade: %+v", sr)
	}
	if sr.StopReason != string(operon.StopDeadline) {
		t.Fatalf("stop_reason = %q, want %q", sr.StopReason, operon.StopDeadline)
	}
	if sr.PowerMW <= 0 {
		t.Fatalf("degraded result has no power: %+v", sr)
	}
	ts.Close()
	srv.Shutdown()
}

// TestShutdownDegradesInFlight aborts the server while a synchronous solve
// is in flight: the waiting client must still receive a 200 with the
// degraded partial result, not a connection reset.
func TestShutdownDegradesInFlight(t *testing.T) {
	srv := newTestServer(4, 1, time.Minute, 0)
	srv.SetSolve(func(ctx context.Context, d signal.Design, cfg operon.Config, _ *operon.Workspace) (*operon.Result, error) {
		// Stand-in for RunContext's contract: block until cancelled, then
		// return the degraded-but-feasible result.
		<-ctx.Done()
		return &operon.Result{
			Design: d.Name, PowerMW: 2,
			Degraded: true, StopReason: operon.StopCanceled,
		}, nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	d := testDesign(t)

	type outcome struct {
		resp *http.Response
		err  error
	}
	resc := make(chan outcome, 1)
	go func() {
		buf, _ := json.Marshal(SolveRequest{Design: &d, TimeoutMS: 60_000})
		resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(buf))
		resc <- outcome{resp, err}
	}()
	awaitState(t, ts, "job-1", JobRunning)

	srv.Abort()
	out := <-resc
	if out.err != nil {
		t.Fatalf("in-flight solve failed during shutdown: %v", out.err)
	}
	if out.resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight solve got status %d, want 200", out.resp.StatusCode)
	}
	var sr SolveResponse
	decode(t, out.resp, &sr)
	if !sr.Degraded || sr.StopReason != string(operon.StopCanceled) {
		t.Fatalf("in-flight solve not degraded-canceled: %+v", sr)
	}
	ts.Close()
	srv.Shutdown()
}

// TestBadRequests pins the 400 paths: unparseable JSON, missing input,
// unknown benchmark, unknown mode.
func TestBadRequests(t *testing.T) {
	srv := newTestServer(1, 1, time.Minute, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	d := testDesign(t)

	for name, body := range map[string]any{
		"no input":      SolveRequest{},
		"unknown bench": SolveRequest{Bench: "nope"},
		"unknown mode":  SolveRequest{Design: &d, Mode: "annealing"},
	} {
		resp := post(t, ts, "/solve", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewBufferString("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	jr, err := http.Get(ts.URL + "/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	if jr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", jr.StatusCode)
	}
	jr.Body.Close()
	ts.Close()
	srv.Shutdown()
}

// TestTimeoutClamp pins the budget resolution: zero → server default,
// above max → clamped to max.
func TestTimeoutClamp(t *testing.T) {
	srv := newTestServer(4, 1, 7*time.Second, 9*time.Second)
	defer srv.Shutdown()
	for _, tc := range []struct {
		reqMS  int64
		wantMS int64
	}{
		{0, 7000},
		{5000, 5000},
		{60_000, 9000},
	} {
		if got := srv.budget(tc.reqMS).Milliseconds(); got != tc.wantMS {
			t.Errorf("timeout_ms=%d: applied %d ms, want %d ms", tc.reqMS, got, tc.wantMS)
		}
	}
	// Unclamped server: the request's budget passes through.
	free := newTestServer(4, 1, time.Second, 0)
	defer free.Shutdown()
	if got := free.budget(3_600_000); got != time.Hour {
		t.Errorf("unclamped timeout = %s, want 1h", got)
	}
}

// healthz decodes one GET /healthz round trip.
func healthz(t *testing.T, ts *httptest.Server) (status int, body map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, &body)
	return resp.StatusCode, body
}

// TestHealthzDrainTransition covers /healthz across the shutdown sequence:
// healthy (200, ok=true, uptime and in-flight reported) while a solve is
// running, then 503 with draining=true the moment Abort is called — the
// drain signal load balancers key off — while the in-flight solve still
// completes and is delivered.
func TestHealthzDrainTransition(t *testing.T) {
	srv := newTestServer(4, 1, time.Minute, 0)
	started := make(chan struct{}, 1)
	srv.SetSolve(func(ctx context.Context, d signal.Design, cfg operon.Config, _ *operon.Workspace) (*operon.Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		return &operon.Result{Design: d.Name, PowerMW: 2, Degraded: true, StopReason: operon.StopCanceled}, nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	d := testDesign(t)

	var j1 Job
	decode(t, post(t, ts, "/solve", SolveRequest{Design: &d, Async: true}), &j1)
	<-started

	status, body := healthz(t, ts)
	if status != http.StatusOK {
		t.Fatalf("healthy /healthz status %d, want 200", status)
	}
	if body["ok"] != true || body["draining"] != false {
		t.Fatalf("healthy /healthz body: %v", body)
	}
	if body["inflight"].(float64) != 1 {
		t.Fatalf("inflight = %v, want 1", body["inflight"])
	}
	if body["uptime_seconds"].(float64) <= 0 {
		t.Fatalf("uptime_seconds = %v, want > 0", body["uptime_seconds"])
	}

	srv.Abort()
	status, body = healthz(t, ts)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz status %d, want 503", status)
	}
	if body["ok"] != false || body["draining"] != true {
		t.Fatalf("draining /healthz body: %v", body)
	}

	// The aborted solve still completes and stays pollable.
	awaitState(t, ts, j1.ID, JobDone)
	ts.Close()
	srv.Shutdown()
}

// TestRequestIDMiddleware pins the X-Request-Id contract: a client-supplied
// id is echoed verbatim, a missing one is generated, and either way the
// header is present on every response.
func TestRequestIDMiddleware(t *testing.T) {
	srv := newTestServer(4, 1, time.Minute, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "trace-me-42" {
		t.Errorf("echoed X-Request-Id = %q, want trace-me-42", got)
	}

	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); !strings.HasPrefix(got, "r-") {
		t.Errorf("generated X-Request-Id = %q, want r-<n>", got)
	}
	ts.Close()
	srv.Shutdown()
}

// TestMetricsEndpoints runs one stubbed solve and repeats its body, which
// the body memo answers, and asserts (a) /metrics is valid Prometheus text
// exposition containing the request histograms, serving gauges and the
// memo-hit counter, and (b) /metrics.json keeps the legacy "counters" key
// alongside gauges and histograms.
func TestMetricsEndpoints(t *testing.T) {
	srv := newTestServer(4, 1, time.Minute, 0)
	srv.SetSolve(func(ctx context.Context, d signal.Design, cfg operon.Config, _ *operon.Workspace) (*operon.Result, error) {
		return &operon.Result{Design: d.Name, PowerMW: 1}, nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	d := testDesign(t)
	post(t, ts, "/solve", SolveRequest{Design: &d}).Body.Close()
	post(t, ts, "/solve", SolveRequest{Design: &d}).Body.Close() // answered from the body memo

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, obs.PrometheusContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := buf.String()
	if err := obs.LintExposition(buf.Bytes()); err != nil {
		t.Fatalf("/metrics failed exposition lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		"operon_request_e2e_seconds_bucket",
		"operon_request_queue_wait_seconds_count",
		"operon_request_solve_seconds_sum",
		"operon_queue_capacity",
		"operon_inflight_solves",
		"operon_uptime_seconds",
		"operon_http_body_memo_hits_total 1",
		"go_goroutines",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var js struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Gauges     []obs.GaugeValue        `json:"gauges"`
		Histograms []obs.HistogramSnapshot `json:"histograms"`
	}
	jr, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, jr, &js)
	reqs, memoHits := int64(0), int64(0)
	for _, c := range js.Counters {
		switch c.Name {
		case "http.requests":
			reqs = c.Value
		case "http.body_memo_hits":
			memoHits = c.Value
		}
	}
	if reqs < 1 {
		t.Errorf("http.requests counter = %d, want >= 1", reqs)
	}
	if memoHits != 1 {
		t.Errorf("http.body_memo_hits counter = %d, want 1", memoHits)
	}
	if len(js.Gauges) == 0 {
		t.Error("/metrics.json has no gauges")
	}
	found := false
	for _, h := range js.Histograms {
		if h.Name == "request/e2e" && h.Count >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("/metrics.json missing populated request/e2e histogram: %+v", js.Histograms)
	}
	ts.Close()
	srv.Shutdown()
}

// testBodyReadTimeout stands in for the server's 5 s body read timeout in
// the tests that wait it out.
const testBodyReadTimeout = 500 * time.Millisecond

// TestSlowBodyTimesOut sends the headers and part of a /solve body over a
// raw connection, then stalls: within bodyReadTimeout plus slack the server
// must answer 408 with a JSON error or close the connection, so a stalled
// upload never holds a handler indefinitely.
func TestSlowBodyTimesOut(t *testing.T) {
	t.Parallel()
	srv := newTestServer(4, 1, time.Minute, 0)
	srv.bodyReadTimeout = testBodyReadTimeout
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /solve HTTP/1.1\r\nHost: operond\r\n"+
		"Content-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"bench\":"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(srv.bodyReadTimeout + 3*time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("no answer %v after a stalled body", time.Since(start))
		}
		t.Logf("server closed the connection after %v: %v", time.Since(start), err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("stalled body got status %d, want 408", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["error"] == "" {
		t.Fatalf("408 body is not a JSON error: %v %v", body, err)
	}
	t.Logf("408 after %v: %s", time.Since(start), body["error"])
}

// TestLongSyncSolveOutlastsBodyTimeout runs a synchronous solve longer than
// bodyReadTimeout: the body deadline covers the upload only, so the solve
// must neither be cancelled nor cut off, and the client gets 200.
func TestLongSyncSolveOutlastsBodyTimeout(t *testing.T) {
	t.Parallel()
	srv := newTestServer(4, 1, time.Minute, 0)
	srv.bodyReadTimeout = testBodyReadTimeout
	srv.SetSolve(func(ctx context.Context, d signal.Design, cfg operon.Config, _ *operon.Workspace) (*operon.Result, error) {
		select {
		case <-time.After(2 * testBodyReadTimeout):
			return &operon.Result{Design: d.Name, PowerMW: 1}, nil
		case <-ctx.Done():
			return &operon.Result{Design: d.Name, PowerMW: 2, Degraded: true, StopReason: operon.StopCanceled}, nil
		}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown()
	d := testDesign(t)
	resp := post(t, ts, "/solve", SolveRequest{Design: &d})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("long sync solve got status %d, want 200", resp.StatusCode)
	}
	var sr SolveResponse
	decode(t, resp, &sr)
	if sr.Degraded || sr.PowerMW != 1 {
		t.Fatalf("long sync solve was cut short: %+v", sr)
	}
}
