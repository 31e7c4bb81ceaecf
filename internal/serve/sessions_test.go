package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	operon "operon"
	"operon/internal/benchgen"
)

// sessionServer builds a server tuned for session tests.
func sessionServer(ttl time.Duration, maxSessions int) *Server {
	cfg := operon.DefaultConfig()
	cfg.SkipWDM = true
	return New(Options{
		Config:         cfg,
		QueueLen:       4,
		Concurrency:    2,
		DefaultTimeout: 30 * time.Second,
		SessionTTL:     ttl,
		MaxSessions:    maxSessions,
	})
}

// sessionDesign generates a small deterministic design for session tests.
func sessionDesign(t *testing.T, seed int64) benchgen.Spec {
	t.Helper()
	return benchgen.Spec{
		Name: fmt.Sprintf("sess-%d", seed), DieCM: 2, Groups: 4, BitsPerGroup: 6,
		BitsJitter: 1, MinSinkClusters: 1, MaxSinkClusters: 2, LocalFraction: 0.2,
		LocalSpanCM: 0.15, GlobalSpanCM: 1.2, RegionSpreadCM: 0.02,
		LanePitchCM: 0.2, Seed: seed,
	}
}

// createSession POSTs /sessions with an inline design and returns the reply.
func createSession(t *testing.T, ts *httptest.Server, seed int64) SessionResponse {
	t.Helper()
	d, err := benchgen.Generate(sessionDesign(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	resp := post(t, ts, "/sessions", SessionRequest{Design: &d, SkipWDM: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create session: status %d", resp.StatusCode)
	}
	var sr SessionResponse
	decode(t, resp, &sr)
	return sr
}

// TestSessionRoundtrip walks the whole session surface: create (cold solve),
// edit (incremental resolve with reuse), info, delete, and 404 after delete.
func TestSessionRoundtrip(t *testing.T) {
	s := sessionServer(0, 0)
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sr := createSession(t, ts, 11)
	if sr.SessionID == "" || !sr.Reuse.Cold || sr.Resolves != 1 {
		t.Fatalf("cold create: id=%q cold=%v resolves=%d", sr.SessionID, sr.Reuse.Cold, sr.Resolves)
	}
	if sr.Degraded {
		t.Fatalf("cold solve degraded: %s", sr.StopReason)
	}

	d, err := benchgen.Generate(sessionDesign(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	ops := benchgen.MoveScript(d, 2, 1)
	// The edit is a queued job: it runs once on a worker and records its
	// queue wait like any /solve.
	queueWaits := func() int64 { return s.Tracer().Histogram("request/queue_wait").Snapshot().Count }
	runs, waits := counter(s, "http.solves_run"), queueWaits()
	resp := post(t, ts, "/sessions/"+sr.SessionID+"/edit", EditRequest{Edits: ops})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edit: status %d", resp.StatusCode)
	}
	var er SessionResponse
	decode(t, resp, &er)
	if er.Reuse.Cold || er.Resolves != 2 {
		t.Fatalf("edit resolve: cold=%v resolves=%d", er.Reuse.Cold, er.Resolves)
	}
	if got := counter(s, "http.solves_run") - runs; got != 1 {
		t.Errorf("edit ran %d solves on the workers, want 1", got)
	}
	if got := queueWaits() - waits; got != 1 {
		t.Errorf("edit recorded %d queue waits, want 1", got)
	}
	if er.Reuse.GroupsReused+er.Reuse.GroupsRebuilt == 0 {
		t.Fatal("edit resolve reported no group accounting")
	}

	// Empty edit script: full reuse.
	resp = post(t, ts, "/sessions/"+sr.SessionID+"/edit", EditRequest{})
	var fr SessionResponse
	decode(t, resp, &fr)
	if !fr.Reuse.FullReuse {
		t.Fatalf("empty edit script: want full reuse, got %+v", fr.Reuse)
	}

	// Info carries the latency summary.
	resp, err = http.Get(ts.URL + "/sessions/" + sr.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	var info SessionInfo
	decode(t, resp, &info)
	if info.ID != sr.SessionID || info.Resolves != 3 || info.ResolveCount != 3 {
		t.Fatalf("info: %+v", info)
	}
	if info.ResolveP99MS <= 0 {
		t.Fatalf("info: want positive p99, got %v", info.ResolveP99MS)
	}

	// Delete, then the session is gone.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+sr.SessionID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	resp = post(t, ts, "/sessions/"+sr.SessionID+"/edit", EditRequest{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("edit after delete: status %d, want 404", resp.StatusCode)
	}
}

// TestSessionBenchInput exercises the bench-name input path and a bad edit
// (out-of-range group) returning 400 without killing the session.
func TestSessionBenchInput(t *testing.T) {
	s := sessionServer(0, 0)
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := post(t, ts, "/sessions", SessionRequest{Bench: "I1", SkipWDM: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create from bench: status %d", resp.StatusCode)
	}
	var sr SessionResponse
	decode(t, resp, &sr)

	resp = post(t, ts, "/sessions/"+sr.SessionID+"/edit", EditRequest{
		Edits: []benchgen.EditOp{{Kind: "move", Group: 9999, Bit: 0, Sink: -1, X: 1, Y: 1}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad edit: status %d, want 400", resp.StatusCode)
	}
	// The session survives the rejected edit.
	resp = post(t, ts, "/sessions/"+sr.SessionID+"/edit", EditRequest{})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edit after rejected edit: status %d", resp.StatusCode)
	}
}

// TestSessionTTLEviction proves idle sessions expire: after the TTL, both the
// janitor path and the lazy lookup path report the session gone.
func TestSessionTTLEviction(t *testing.T) {
	s := sessionServer(50*time.Millisecond, 0)
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sr := createSession(t, ts, 21)
	deadline := time.Now().Add(5 * time.Second)
	for s.sessionCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("session not evicted by TTL janitor")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp := post(t, ts, "/sessions/"+sr.SessionID+"/edit", EditRequest{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("edit after TTL: status %d, want 404", resp.StatusCode)
	}
	if s.tracer.Counter("http.sessions_evicted/ttl").Value() == 0 {
		t.Fatal("TTL eviction counter not bumped")
	}
}

// TestSessionLRUEviction proves the MaxSessions cap evicts the least
// recently used session on create.
func TestSessionLRUEviction(t *testing.T) {
	s := sessionServer(0, 2)
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := createSession(t, ts, 31)
	time.Sleep(5 * time.Millisecond)
	b := createSession(t, ts, 32)
	time.Sleep(5 * time.Millisecond)
	// Touch a so b becomes the LRU.
	resp := post(t, ts, "/sessions/"+a.SessionID+"/edit", EditRequest{})
	resp.Body.Close()
	time.Sleep(5 * time.Millisecond)
	c := createSession(t, ts, 33)

	if got := s.sessionCount(); got != 2 {
		t.Fatalf("after LRU eviction: %d sessions, want 2", got)
	}
	resp = post(t, ts, "/sessions/"+b.SessionID+"/edit", EditRequest{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("LRU victim still alive: status %d, want 404", resp.StatusCode)
	}
	for _, id := range []string{a.SessionID, c.SessionID} {
		resp = post(t, ts, "/sessions/"+id+"/edit", EditRequest{})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("survivor %s: status %d", id, resp.StatusCode)
		}
	}
	if s.tracer.Counter("http.sessions_evicted/lru").Value() == 0 {
		t.Fatal("LRU eviction counter not bumped")
	}
}

// TestSessionEvictionMidResolve proves evicting a session while its resolve
// is in flight is safe: the in-flight handler holds the session pointer, so
// the resolve completes and returns a normal response even though the id is
// already gone from the table.
func TestSessionEvictionMidResolve(t *testing.T) {
	s := sessionServer(0, 0)
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sr := createSession(t, ts, 41)
	d, err := benchgen.Generate(sessionDesign(t, 41))
	if err != nil {
		t.Fatal(err)
	}
	ops := benchgen.MoveScript(d, 4, 2)

	// Race DELETE against the edit resolve. Whichever interleaving the
	// scheduler picks, the edit must either succeed (handler grabbed the
	// session first) or 404 (delete won) — never crash or hang.
	done := make(chan SessionResponse, 1)
	status := make(chan int, 1)
	go func() {
		resp := post(t, ts, "/sessions/"+sr.SessionID+"/edit", EditRequest{Edits: ops})
		defer resp.Body.Close()
		status <- resp.StatusCode
		var er SessionResponse
		if resp.StatusCode == http.StatusOK {
			decode(t, resp, &er)
		}
		done <- er
	}()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+sr.SessionID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	select {
	case st := <-status:
		er := <-done
		if st == http.StatusOK {
			if er.SessionID != sr.SessionID {
				t.Fatalf("in-flight resolve returned wrong session: %+v", er)
			}
		} else if st != http.StatusNotFound {
			t.Fatalf("edit racing delete: status %d, want 200 or 404", st)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("edit racing delete hung")
	}
	if s.sessionCount() != 0 {
		// The delete may have lost the race entirely (edit touched first,
		// delete then removed it) — either way the table must not leak.
		t.Fatalf("session table leaked: %d entries", s.sessionCount())
	}
}

// TestSessionMetricsExposeGauge proves sessions_active appears in the
// registry snapshot and tracks the live table.
func TestSessionMetricsExposeGauge(t *testing.T) {
	s := sessionServer(0, 0)
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	createSession(t, ts, 51)
	snap := s.Registry().Snapshot()
	for _, g := range snap.Gauges {
		if g.Name == "sessions_active" {
			if g.Value != 1 {
				t.Fatalf("sessions_active = %v, want 1", g.Value)
			}
			return
		}
	}
	t.Fatal("sessions_active gauge missing from registry snapshot")
}
