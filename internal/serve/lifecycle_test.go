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
	"operon/internal/obs"
	"operon/internal/parallel"
	"operon/internal/signal"
)

// gaugeValue reads one gauge from /metrics.json.
func gaugeValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	var snap obs.RegistrySnapshot
	decode(t, mustGet(t, ts.URL+"/metrics.json"), &snap)
	for _, g := range snap.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	t.Fatalf("/metrics.json has no %q gauge", name)
	return 0
}

// postResult is the outcome of one postAsync round trip.
type postResult struct {
	resp *http.Response
	err  error
}

// postAsync sends a JSON POST from its own goroutine, so the test can hold
// the request in flight; recvPost collects it on the test goroutine.
func postAsync(t *testing.T, ts *httptest.Server, path string, body any) <-chan postResult {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan postResult, 1)
	go func() {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		out <- postResult{resp, err}
	}()
	return out
}

// recvPost waits for a postAsync round trip and returns its response.
func recvPost(t *testing.T, c <-chan postResult) *http.Response {
	t.Helper()
	r := <-c
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.resp
}

// awaitCounter waits until a tracer counter reaches want.
func awaitCounter(t *testing.T, srv *Server, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for counter(srv, name) < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck at %d, want %d", name, counter(srv, name), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// retentionEnv is one retention case's server: a stub solver that signals
// started and then blocks until gate closes (or its context dies).
type retentionEnv struct {
	srv     *Server
	ts      *httptest.Server
	gate    chan struct{}
	started chan struct{}
	d1, d2  signal.Design
}

// TestJobRetention pins which jobs stay in the job table once answered:
// only async jobs and sync jobs whose client went away stay pollable (with
// their result, but without their design); every other request leaves
// jobs_tracked at 0 and its ID unknown.
func TestJobRetention(t *testing.T) {
	for _, tc := range []struct {
		name string
		// block keeps the stub solver waiting until the case closes gate.
		block bool
		// run drives the requests and returns the IDs that must be gone
		// and the IDs that must stay pollable.
		run func(t *testing.T, e *retentionEnv) (gone, pollable []string)
	}{
		{
			name: "sync miss",
			run: func(t *testing.T, e *retentionEnv) ([]string, []string) {
				var sr SolveResponse
				decode(t, post(t, e.ts, "/solve", SolveRequest{Design: &e.d1}), &sr)
				if sr.Cached || sr.PowerMW != 5 {
					t.Fatalf("cold solve: %+v", sr)
				}
				return []string{"job-1"}, nil
			},
		},
		{
			name: "sync hit",
			run: func(t *testing.T, e *retentionEnv) ([]string, []string) {
				var cold, hot SolveResponse
				decode(t, post(t, e.ts, "/solve", SolveRequest{Design: &e.d1}), &cold)
				decode(t, post(t, e.ts, "/solve", SolveRequest{Design: &e.d1}), &hot)
				if !hot.Cached {
					t.Fatalf("second request not a cache hit: %+v", hot)
				}
				return []string{"job-1", "job-2"}, nil
			},
		},
		{
			name: "batch with duplicate",
			run: func(t *testing.T, e *retentionEnv) ([]string, []string) {
				var br BatchResponse
				decode(t, post(t, e.ts, "/solve/batch",
					[]SolveRequest{{Design: &e.d1}, {Design: &e.d2}, {Design: &e.d1}}), &br)
				if br.UniqueSolves != 2 || br.DupItems != 1 {
					t.Fatalf("batch: unique=%d dup=%d, want 2/1", br.UniqueSolves, br.DupItems)
				}
				return []string{"job-1", "job-2", "job-3"}, nil
			},
		},
		{
			name:  "coalesced pair",
			block: true,
			run: func(t *testing.T, e *retentionEnv) ([]string, []string) {
				leaderc := postAsync(t, e.ts, "/solve", SolveRequest{Design: &e.d1})
				<-e.started
				joinerc := postAsync(t, e.ts, "/solve", SolveRequest{Design: &e.d1})
				awaitCounter(t, e.srv, "http.coalesce_joins", 1)
				close(e.gate)
				var leader, joiner SolveResponse
				decode(t, recvPost(t, leaderc), &leader)
				decode(t, recvPost(t, joinerc), &joiner)
				if leader.Coalesced || !joiner.Coalesced {
					t.Fatalf("want a leader and a coalesced joiner: %+v / %+v", leader, joiner)
				}
				return []string{"job-1", "job-2"}, nil
			},
		},
		{
			name: "session create + edit",
			run: func(t *testing.T, e *retentionEnv) ([]string, []string) {
				sr := createSession(t, e.ts, 71)
				d, err := benchgen.Generate(sessionDesign(t, 71))
				if err != nil {
					t.Fatal(err)
				}
				var er SessionResponse
				decode(t, post(t, e.ts, "/sessions/"+sr.SessionID+"/edit",
					EditRequest{Edits: benchgen.MoveScript(d, 1, 1)}), &er)
				if er.Resolves != 2 {
					t.Fatalf("edit: %+v, want the second resolve", er)
				}
				return []string{"job-1", "job-2"}, nil
			},
		},
		{
			name: "async stays pollable",
			run: func(t *testing.T, e *retentionEnv) ([]string, []string) {
				var j Job
				decode(t, post(t, e.ts, "/solve", SolveRequest{Design: &e.d1, Async: true}), &j)
				awaitState(t, e.ts, j.ID, JobDone)
				return nil, []string{j.ID}
			},
		},
		{
			name:  "cancelled sync stays pollable",
			block: true,
			run: func(t *testing.T, e *retentionEnv) ([]string, []string) {
				ctx, cancel := context.WithCancel(context.Background())
				buf, err := json.Marshal(SolveRequest{Design: &e.d1})
				if err != nil {
					t.Fatal(err)
				}
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.ts.URL+"/solve", bytes.NewReader(buf))
				if err != nil {
					t.Fatal(err)
				}
				errc := make(chan error, 1)
				go func() {
					resp, err := http.DefaultClient.Do(req)
					if err == nil {
						resp.Body.Close()
					}
					errc <- err
				}()
				<-e.started
				cancel()
				if err := <-errc; err == nil {
					t.Fatal("cancelled request returned a response")
				}
				// The handler has answered 408 once the middleware counted it.
				awaitCounter(t, e.srv, "http.requests", 1)
				close(e.gate)
				awaitState(t, e.ts, "job-1", JobDone)
				return nil, []string{"job-1"}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := &retentionEnv{
				srv:     newTestServer(4, 1, time.Minute, 0),
				gate:    make(chan struct{}),
				started: make(chan struct{}, 4),
				d1:      testDesignSeed(t, 7),
				d2:      testDesignSeed(t, 8),
			}
			if !tc.block {
				close(e.gate)
			}
			e.srv.SetSolve(func(ctx context.Context, d signal.Design, cfg operon.Config, _ *operon.Workspace) (*operon.Result, error) {
				e.started <- struct{}{}
				select {
				case <-e.gate:
				case <-ctx.Done():
				}
				return &operon.Result{Design: d.Name, PowerMW: 5}, nil
			})
			e.ts = httptest.NewServer(e.srv.Handler())
			defer e.srv.Shutdown()
			defer e.ts.Close()

			gone, pollable := tc.run(t, e)
			for _, id := range gone {
				resp := mustGet(t, e.ts.URL+"/jobs/"+id)
				resp.Body.Close()
				if resp.StatusCode != http.StatusNotFound {
					t.Errorf("answered %s: GET /jobs status %d, want 404", id, resp.StatusCode)
				}
			}
			for _, id := range pollable {
				var j Job
				decode(t, mustGet(t, e.ts.URL+"/jobs/"+id), &j)
				if j.State != JobDone || j.Result == nil || j.Result.PowerMW != 5 {
					t.Errorf("pollable %s: %+v, want done with its result", id, j)
				}
				e.srv.mu.Lock()
				groups := e.srv.jobs[id].design.Groups
				e.srv.mu.Unlock()
				if groups != nil {
					t.Errorf("finished %s still holds its design (%d groups)", id, len(groups))
				}
			}
			if got := gaugeValue(t, e.ts, "jobs_tracked"); got != float64(len(pollable)) {
				t.Errorf("jobs_tracked = %g, want %d", got, len(pollable))
			}
		})
	}
}

// TestSolvePanicContained panics the solver on a leader while a coalesced
// joiner waits: the leader gets a JSON 500, the joiner is promoted and
// gets a real answer, http.solve_panics counts the panic once, and the
// same server (and its lone worker) serves the next request. Two more
// panics follow, each contained the same way: one on a flow pool worker
// (inside parallel.ForEach) and one in a session resolve.
func TestSolvePanicContained(t *testing.T) {
	srv := newTestServer(4, 1, time.Minute, 0)
	started := make(chan struct{}, 4)
	gate := make(chan struct{})
	var mu sync.Mutex
	calls := 0
	srv.SetSolve(func(ctx context.Context, d signal.Design, cfg operon.Config, _ *operon.Workspace) (*operon.Result, error) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			started <- struct{}{}
			<-gate
			panic("pathological instance")
		}
		if d.Name == "pool-panic" {
			_ = parallel.ForEach(context.Background(), 8, 4, func(i int) error {
				if i == 5 {
					panic("pool worker fault")
				}
				return nil
			})
		}
		return &operon.Result{Design: d.Name, PowerMW: 8}, nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	d := testDesign(t)

	leaderc := postAsync(t, ts, "/solve", SolveRequest{Design: &d})
	<-started
	joinerc := postAsync(t, ts, "/solve", SolveRequest{Design: &d})
	awaitCounter(t, srv, "http.coalesce_joins", 1)
	close(gate)

	leader := recvPost(t, leaderc)
	if leader.StatusCode != http.StatusInternalServerError {
		t.Errorf("panicked leader: status %d, want 500", leader.StatusCode)
	}
	if ct := leader.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("panicked leader: Content-Type %q, want application/json", ct)
	}
	var body map[string]string
	decode(t, leader, &body)
	if !strings.Contains(body["error"], "pathological instance") {
		t.Errorf("panicked leader error = %q, want the panic value", body["error"])
	}

	joiner := recvPost(t, joinerc)
	if joiner.StatusCode != http.StatusOK {
		t.Fatalf("joiner of a panicked leader: status %d, want 200", joiner.StatusCode)
	}
	var sr SolveResponse
	decode(t, joiner, &sr)
	if sr.PowerMW != 8 {
		t.Errorf("promoted joiner: %+v, want its own solve", sr)
	}
	if got := counter(srv, "http.solve_panics"); got != 1 {
		t.Errorf("http.solve_panics = %d, want 1", got)
	}
	if got := counter(srv, "http.coalesce_promotions"); got != 1 {
		t.Errorf("http.coalesce_promotions = %d, want 1", got)
	}

	// The worker survives each panic: a fresh instance solves on the same
	// server after it.
	serveNext := func(seed int64) {
		t.Helper()
		d := testDesignSeed(t, seed)
		next := post(t, ts, "/solve", SolveRequest{Design: &d})
		if next.StatusCode != http.StatusOK {
			t.Fatalf("request after a panic: status %d, want 200", next.StatusCode)
		}
		decode(t, next, &sr)
		if sr.PowerMW != 8 {
			t.Errorf("request after a panic: %+v", sr)
		}
	}
	serveNext(8)

	// contained checks one more panicking request: a JSON 500 naming the
	// panic value, and one more http.solve_panics.
	contained := func(path string, body any, value string, panics int64) {
		t.Helper()
		resp := post(t, ts, path, body)
		var eb map[string]string
		decode(t, resp, &eb)
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(eb["error"], value) {
			t.Errorf("%s: status %d body %v, want a JSON 500 naming %q", path, resp.StatusCode, eb, value)
		}
		if got := counter(srv, "http.solve_panics"); got != panics {
			t.Errorf("%s: http.solve_panics = %d, want %d", path, got, panics)
		}
	}
	pool := testDesignSeed(t, 9)
	pool.Name = "pool-panic"
	contained("/solve", SolveRequest{Design: &pool}, "pool worker fault", 2)
	serveNext(10)
	// A session whose operon.Session is missing panics inside Resolve.
	srv.putSession(&session{id: "sess-broken", hist: obs.NewHistogram("session/resolve", nil), lastUsed: time.Now()})
	contained("/sessions/sess-broken/edit", EditRequest{}, "nil pointer", 3)
	serveNext(11)

	if got := gaugeValue(t, ts, "jobs_tracked"); got != 0 {
		t.Errorf("jobs_tracked = %g after answered requests, want 0", got)
	}
	ts.Close()
	srv.Shutdown()
}
