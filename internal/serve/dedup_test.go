package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	operon "operon"
	"operon/internal/benchgen"
	"operon/internal/signal"
)

// ctxDegraded is the stub-solver contract for an exhausted budget: block
// until the context dies, then return the degraded floor like RunContext.
func ctxDegraded(d signal.Design) *operon.Result {
	return &operon.Result{
		Design: d.Name, PowerMW: 1,
		Degraded: true, StopReason: operon.StopDeadline,
	}
}

// counter reads a tracer counter value.
func counter(srv *Server, name string) int64 {
	return srv.Tracer().Counter(name).Value()
}

// TestCoalesceJoin holds one solve in flight and posts an identical
// synchronous request: the joiner must receive the leader's response with
// coalesced=true, from exactly one solver invocation.
func TestCoalesceJoin(t *testing.T) {
	srv := newTestServer(4, 1, time.Minute, 0)
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	srv.SetSolve(func(ctx context.Context, d signal.Design, cfg operon.Config, _ *operon.Workspace) (*operon.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return ctxDegraded(d), nil
		}
		return &operon.Result{Design: d.Name, PowerMW: 42}, nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	d := testDesign(t)

	var leader Job
	decode(t, post(t, ts, "/solve", SolveRequest{Design: &d, Async: true}), &leader)
	<-started

	joined := make(chan SolveResponse, 1)
	go func() {
		var sr SolveResponse
		decode(t, post(t, ts, "/solve", SolveRequest{Design: &d}), &sr)
		joined <- sr
	}()
	// Wait until the joiner is attached (coalesce_joins counts at join time).
	deadline := time.Now().Add(5 * time.Second)
	for counter(srv, "http.coalesce_joins") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("joiner never attached to the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	sr := <-joined
	if !sr.Coalesced {
		t.Errorf("joiner response not marked coalesced: %+v", sr)
	}
	if sr.PowerMW != 42 {
		t.Errorf("joiner power = %v, want the leader's 42", sr.PowerMW)
	}
	awaitState(t, ts, leader.ID, JobDone)
	if got := counter(srv, "http.solves_run"); got != 1 {
		t.Errorf("solves_run = %d, want 1 (the join must not solve)", got)
	}
	if got := counter(srv, "http.coalesce_joins"); got != 1 {
		t.Errorf("coalesce_joins = %d, want 1", got)
	}
	ts.Close()
	srv.Shutdown()
}

// TestJoinerCancelsEarly attaches a joiner whose budget is far shorter than
// the leader's solve: the joiner must detach with its usual degraded
// deadline semantics while the leader keeps running and completes normally.
func TestJoinerCancelsEarly(t *testing.T) {
	srv := newTestServer(4, 1, time.Minute, 0)
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	srv.SetSolve(func(ctx context.Context, d signal.Design, cfg operon.Config, _ *operon.Workspace) (*operon.Result, error) {
		if ctx.Err() != nil { // a detached joiner solves under a dead deadline
			return ctxDegraded(d), nil
		}
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return ctxDegraded(d), nil
		}
		return &operon.Result{Design: d.Name, PowerMW: 42}, nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	d := testDesign(t)

	var leader Job
	decode(t, post(t, ts, "/solve", SolveRequest{Design: &d, Async: true}), &leader)
	<-started

	var sr SolveResponse
	decode(t, post(t, ts, "/solve", SolveRequest{Design: &d, TimeoutMS: 20}), &sr)
	if !sr.Degraded || sr.StopReason != string(operon.StopDeadline) {
		t.Fatalf("detached joiner should degrade on its own deadline, got %+v", sr)
	}
	if got := counter(srv, "http.coalesce_detach"); got != 1 {
		t.Errorf("coalesce_detach = %d, want 1", got)
	}

	// The leader was NOT cancelled by the joiner's exit.
	close(release)
	awaitState(t, ts, leader.ID, JobDone)
	var j Job
	decode(t, mustGet(t, ts.URL+"/jobs/"+leader.ID), &j)
	if j.Result == nil || j.Result.Degraded {
		t.Fatalf("leader should finish un-degraded, got %+v", j.Result)
	}
	ts.Close()
	srv.Shutdown()
}

// TestLeaderCancelPromotesJoiner degrades the leader by its own short
// budget while a joiner with plenty of budget waits: the joiner must be
// promoted to a fresh solve of its own and come back un-degraded. The
// stubbed leader gives up only once the joiner has attached, so the outcome
// does not depend on the joiner arriving inside the leader's budget.
func TestLeaderCancelPromotesJoiner(t *testing.T) {
	srv := newTestServer(4, 1, time.Minute, 0)
	started := make(chan struct{}, 4)
	var calls int
	var mu sync.Mutex
	srv.SetSolve(func(ctx context.Context, d signal.Design, cfg operon.Config, _ *operon.Workspace) (*operon.Result, error) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			started <- struct{}{}
			// Bounded, so a joiner that never attaches fails the
			// assertions below instead of hanging the test.
			for wait := time.Now().Add(10 * time.Second); counter(srv, "http.coalesce_joins") < 1 && time.Now().Before(wait); {
				time.Sleep(time.Millisecond)
			}
			<-ctx.Done() // the leader's 30 ms budget expires
			return ctxDegraded(d), nil
		}
		return &operon.Result{Design: d.Name, PowerMW: 42}, nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	d := testDesign(t)

	var leader Job
	decode(t, post(t, ts, "/solve", SolveRequest{Design: &d, Async: true, TimeoutMS: 30}), &leader)
	<-started

	var sr SolveResponse
	decode(t, post(t, ts, "/solve", SolveRequest{Design: &d, TimeoutMS: 60_000}), &sr)
	if sr.Degraded {
		t.Fatalf("promoted joiner should re-solve un-degraded, got %+v", sr)
	}
	if sr.PowerMW != 42 {
		t.Errorf("promoted joiner power = %v, want 42", sr.PowerMW)
	}
	if got := counter(srv, "http.coalesce_promotions"); got != 1 {
		t.Errorf("coalesce_promotions = %d, want 1", got)
	}
	if got := counter(srv, "http.solves_run"); got != 2 {
		t.Errorf("solves_run = %d, want 2 (degraded leader + promoted joiner)", got)
	}
	awaitState(t, ts, leader.ID, JobDone)
	ts.Close()
	srv.Shutdown()
}

// TestCacheHitDifferential runs the real flow twice on one instance: the
// second response must be served from the cache with a payload
// bit-identical to the cold solve's.
func TestCacheHitDifferential(t *testing.T) {
	srv := newTestServer(4, 1, time.Minute, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	d, err := benchgen.Generate(benchgen.Spec{
		Name: "dup-diff", DieCM: 3, Groups: 6, BitsPerGroup: 4, BitsJitter: 1,
		MinSinkClusters: 1, MaxSinkClusters: 2, LocalFraction: 0.4,
		LocalSpanCM: 0.3, GlobalSpanCM: 1.5, RegionSpreadCM: 0.02, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}

	var cold, hot SolveResponse
	decode(t, post(t, ts, "/solve", SolveRequest{Design: &d}), &cold)
	if cold.Degraded {
		t.Fatalf("cold solve degraded, cannot test the cache: %+v", cold)
	}
	decode(t, post(t, ts, "/solve", SolveRequest{Design: &d}), &hot)
	if !hot.Cached {
		t.Fatalf("second identical request not served from cache: %+v", hot)
	}
	// Bit-identical semantic payload (exact float equality included).
	if hot.Design != cold.Design || hot.Flow != cold.Flow ||
		hot.PowerMW != cold.PowerMW || hot.Violations != cold.Violations ||
		hot.HyperNets != cold.HyperNets || hot.WDMsUsed != cold.WDMsUsed ||
		hot.Degraded != cold.Degraded || hot.StopReason != cold.StopReason {
		t.Fatalf("cached response differs from cold solve:\ncold %+v\nhot  %+v", cold, hot)
	}
	if got := counter(srv, "http.cache_hits"); got != 1 {
		t.Errorf("cache_hits = %d, want 1", got)
	}
	if got := counter(srv, "http.solves_run"); got != 1 {
		t.Errorf("solves_run = %d, want 1", got)
	}
	if got := srv.cacheEntryCount(); got != 1 {
		t.Errorf("cache_entries = %d, want 1", got)
	}
	ts.Close()
	srv.Shutdown()
}

// TestCacheHitAfterEviction squeezes a 1-entry cache: A is cached, B evicts
// it, A must re-solve (miss) and then hit again.
func TestCacheHitAfterEviction(t *testing.T) {
	srv := New(Options{
		Config:         operon.DefaultConfig(),
		QueueLen:       4,
		Concurrency:    1,
		DefaultTimeout: time.Minute,
		CacheEntries:   1,
	})
	srv.SetSolve(func(ctx context.Context, d signal.Design, cfg operon.Config, _ *operon.Workspace) (*operon.Result, error) {
		return &operon.Result{Design: d.Name, PowerMW: 7}, nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	a, b := testDesignSeed(t, 7), testDesignSeed(t, 8)

	solve := func(d *signal.Design) SolveResponse {
		var sr SolveResponse
		decode(t, post(t, ts, "/solve", SolveRequest{Design: d}), &sr)
		return sr
	}
	if sr := solve(&a); sr.Cached {
		t.Fatal("first A must be a cold solve")
	}
	if sr := solve(&b); sr.Cached {
		t.Fatal("first B must be a cold solve")
	}
	if sr := solve(&a); sr.Cached {
		t.Fatal("A after eviction must re-solve, not hit")
	}
	if sr := solve(&a); !sr.Cached {
		t.Fatal("A immediately after re-solve must hit the cache")
	}
	if got := counter(srv, "http.solves_run"); got != 3 {
		t.Errorf("solves_run = %d, want 3 (A, B, A-again)", got)
	}
	if got := srv.cacheEntryCount(); got != 1 {
		t.Errorf("cache_entries = %d, want 1 (capacity bound)", got)
	}
	ts.Close()
	srv.Shutdown()
}

// TestCacheTTLExpiry ages an entry past a tiny TTL and asserts the next
// identical request misses.
func TestCacheTTLExpiry(t *testing.T) {
	srv := New(Options{
		Config:         operon.DefaultConfig(),
		QueueLen:       4,
		Concurrency:    1,
		DefaultTimeout: time.Minute,
		CacheTTL:       20 * time.Millisecond,
	})
	srv.SetSolve(func(ctx context.Context, d signal.Design, cfg operon.Config, _ *operon.Workspace) (*operon.Result, error) {
		return &operon.Result{Design: d.Name, PowerMW: 7}, nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	d := testDesign(t)

	var sr SolveResponse
	decode(t, post(t, ts, "/solve", SolveRequest{Design: &d}), &sr)
	time.Sleep(30 * time.Millisecond)
	decode(t, post(t, ts, "/solve", SolveRequest{Design: &d}), &sr)
	if sr.Cached {
		t.Fatal("entry older than the TTL must not hit")
	}
	if got := counter(srv, "http.solves_run"); got != 2 {
		t.Errorf("solves_run = %d, want 2", got)
	}
	ts.Close()
	srv.Shutdown()
}

// TestBatchAllDuplicates posts a batch of identical items: one solve runs,
// the rest are deduplicated with coalesced provenance and identical
// payloads.
func TestBatchAllDuplicates(t *testing.T) {
	srv := newTestServer(4, 1, time.Minute, 0)
	srv.SetSolve(func(ctx context.Context, d signal.Design, cfg operon.Config, _ *operon.Workspace) (*operon.Result, error) {
		return &operon.Result{Design: d.Name, PowerMW: 9}, nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	d := testDesign(t)

	batch := []SolveRequest{{Design: &d}, {Design: &d}, {Design: &d}, {Design: &d}}
	var br BatchResponse
	decode(t, post(t, ts, "/solve/batch", batch), &br)
	if br.Items != 4 || len(br.Results) != 4 {
		t.Fatalf("batch shape: items=%d results=%d, want 4/4", br.Items, len(br.Results))
	}
	if br.UniqueSolves != 1 || br.DupItems != 3 {
		t.Errorf("unique=%d dup=%d, want 1/3", br.UniqueSolves, br.DupItems)
	}
	if br.Results[0].Coalesced || br.Results[0].Cached {
		t.Errorf("first item should be the cold solve: %+v", br.Results[0])
	}
	for i := 1; i < 4; i++ {
		if !br.Results[i].Coalesced {
			t.Errorf("item %d not marked coalesced: %+v", i, br.Results[i])
		}
		if br.Results[i].PowerMW != br.Results[0].PowerMW {
			t.Errorf("item %d payload differs from item 0", i)
		}
	}
	if got := counter(srv, "http.solves_run"); got != 1 {
		t.Errorf("solves_run = %d, want 1", got)
	}
	if got := counter(srv, "http.batch_dup_items"); got != 3 {
		t.Errorf("batch_dup_items = %d, want 3", got)
	}
	ts.Close()
	srv.Shutdown()
}

// TestBatchMixed pins the per-item error contract: bad items carry their
// error in place, good items solve, the batch itself returns 200 — and a
// batch larger than the queue completes instead of 429ing.
func TestBatchMixed(t *testing.T) {
	srv := newTestServer(1, 1, time.Minute, 0) // queue of 1: batch must not bounce
	srv.SetSolve(func(ctx context.Context, d signal.Design, cfg operon.Config, _ *operon.Workspace) (*operon.Result, error) {
		return &operon.Result{Design: d.Name, PowerMW: 3}, nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	d1, d2, d3 := testDesignSeed(t, 7), testDesignSeed(t, 8), testDesignSeed(t, 9)

	batch := []SolveRequest{
		{Design: &d1},
		{Bench: "nope"},
		{Design: &d2},
		{Design: &d1, Async: true},
		{Design: &d3},
	}
	resp := post(t, ts, "/solve/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch status %d, want 200", resp.StatusCode)
	}
	var br BatchResponse
	decode(t, resp, &br)
	if br.Results[1].Error == "" {
		t.Error("unknown bench item should carry an error")
	}
	if br.Results[3].Error == "" {
		t.Error("async item should carry an error")
	}
	for _, i := range []int{0, 2, 4} {
		if br.Results[i].Error != "" || br.Results[i].PowerMW != 3 {
			t.Errorf("item %d should have solved: %+v", i, br.Results[i])
		}
	}
	if br.UniqueSolves != 3 {
		t.Errorf("unique_solves = %d, want 3", br.UniqueSolves)
	}
	ts.Close()
	srv.Shutdown()
}

// TestErrorResponsesAreJSON asserts every error path sets
// Content-Type: application/json — including the former http.Error paths.
func TestErrorResponsesAreJSON(t *testing.T) {
	srv := newTestServer(1, 1, time.Minute, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	check := func(name string, resp *http.Response, wantStatus int) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s: Content-Type %q, want application/json", name, ct)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Errorf("%s: body is not a JSON object: %v", name, err)
		} else if body["error"] == "" {
			t.Errorf("%s: missing error field: %v", name, body)
		}
	}

	get, err := http.Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	check("method not allowed", get, http.StatusMethodNotAllowed)

	bad, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewBufferString("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	check("malformed JSON", bad, http.StatusBadRequest)

	nf, err := http.Get(ts.URL + "/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	check("unknown job", nf, http.StatusNotFound)

	sess, err := http.Get(ts.URL + "/sessions/sess-999")
	if err != nil {
		t.Fatal(err)
	}
	check("unknown session", sess, http.StatusNotFound)
	ts.Close()
	srv.Shutdown()
}

// TestBodyTooLarge posts bodies past MaxBodyBytes to every decode endpoint:
// each must return 413 with a JSON error, and the counter must tally them.
func TestBodyTooLarge(t *testing.T) {
	srv := New(Options{
		Config:         operon.DefaultConfig(),
		QueueLen:       4,
		Concurrency:    1,
		DefaultTimeout: time.Minute,
		MaxBodyBytes:   256,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big := `{"bench":"` + strings.Repeat("x", 1024) + `"}`
	for i, path := range []string{"/solve", "/solve/batch", "/sessions"} {
		body := big
		if path == "/solve/batch" {
			body = "[" + big + "]"
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s: Content-Type %q, want application/json", path, ct)
		}
		resp.Body.Close()
		if got := counter(srv, "http.body_too_large"); got != int64(i+1) {
			t.Errorf("body_too_large = %d after %s, want %d", got, path, i+1)
		}
	}
	ts.Close()
	srv.Shutdown()
}

// mustGet wraps http.Get with the test fatal contract.
func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
