package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	operon "operon"
	"operon/internal/signal"
)

// stubSolve is a deterministic stand-in for the flow: the result depends
// only on the design and the mode and SkipWDM it is solved under. A design
// with no groups can only be a memo-resolved instance that reached the
// queue, which must never happen: the stub fails the test on it.
func stubSolve(t testing.TB) SolveFunc {
	return func(ctx context.Context, d signal.Design, cfg operon.Config, _ *operon.Workspace) (*operon.Result, error) {
		if len(d.Groups) == 0 {
			t.Errorf("solver called with a design without groups (%q)", d.Name)
			return nil, fmt.Errorf("stub: design %q has no groups", d.Name)
		}
		p := 0.0
		for _, g := range d.Groups {
			for _, b := range g.Bits {
				p += b.Driver.X + 2*b.Driver.Y + float64(len(b.Sinks))
			}
		}
		return &operon.Result{
			Design:  d.Name,
			Flow:    fmt.Sprintf("stub-%s-wdm=%t", cfg.Mode, !cfg.SkipWDM),
			PowerMW: p,
		}, nil
	}
}

// memoServer is a stub-solving server with the given result-cache size.
func memoServer(t testing.TB, cacheEntries int) *Server {
	srv := New(Options{
		Config:         operon.DefaultConfig(),
		QueueLen:       64,
		Concurrency:    1,
		DefaultTimeout: time.Minute,
		MaxTimeout:     10 * time.Minute,
		CacheEntries:   cacheEntries,
	})
	srv.SetSolve(stubSolve(t))
	return srv
}

// postBody posts body to path through h and returns the status and the
// response body.
func postBody(h http.Handler, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// httpCounters returns the server's http.* counters.
func httpCounters(srv *Server) map[string]int64 {
	out := map[string]int64{}
	for _, c := range srv.Registry().Snapshot().Counters {
		if strings.HasPrefix(c.Name, "http.") {
			out[c.Name] = c.Value
		}
	}
	return out
}

// payload re-encodes a JSON response without the given keys, at any depth.
func payload(t testing.TB, body []byte, drop ...string) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("response %q: %v", body, err)
	}
	var strip func(v any)
	strip = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for _, k := range drop {
				delete(v, k)
			}
			for _, e := range v {
				strip(e)
			}
		case []any:
			for _, e := range v {
				strip(e)
			}
		}
	}
	strip(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// timing names the response fields that differ between two runs of the
// same requests.
var timing = []string{"elapsed_ms", "queue_ms", "request_id"}

// memoPost is one body posted to one endpoint; memoHit says whether the
// memo must answer it.
type memoPost struct {
	path    string
	body    []byte
	memoHit bool
}

// outcome is what a post returned and what it did to the http.* counters,
// apart from http.body_memo_hits, which is memoHits.
type outcome struct {
	status   int
	payload  string
	deltas   map[string]int64
	memoHits int64
}

// replay posts each body in order to a fresh server with the given cache
// size, with its body memo on or switched off.
func replay(t *testing.T, cacheEntries int, memo bool, posts []memoPost) []outcome {
	t.Helper()
	srv := memoServer(t, cacheEntries)
	defer srv.Shutdown()
	if !memo {
		srv.memo = nil
	}
	h := srv.Handler()
	out := make([]outcome, len(posts))
	for i, p := range posts {
		before := httpCounters(srv)
		status, body := postBody(h, p.path, p.body)
		o := outcome{status: status, payload: payload(t, body, timing...), deltas: map[string]int64{}}
		for name, v := range httpCounters(srv) {
			if d := v - before[name]; name == "http.body_memo_hits" {
				o.memoHits = d
			} else if d != 0 {
				o.deltas[name] = d
			}
		}
		out[i] = o
	}
	return out
}

// checkMemoInvisible replays posts with the memo on and with it off: every
// response and every counter delta must be the same, and the memo must
// answer exactly the posts marked memoHit.
func checkMemoInvisible(t *testing.T, cacheEntries int, posts []memoPost) []outcome {
	t.Helper()
	got := replay(t, cacheEntries, true, posts)
	want := replay(t, cacheEntries, false, posts)
	for i, p := range posts {
		g, w := got[i], want[i]
		if g.status != w.status || g.payload != w.payload {
			t.Errorf("post %d (%s %.60s): memo %d %s\nwithout memo %d %s", i, p.path, p.body, g.status, g.payload, w.status, w.payload)
		}
		if !reflect.DeepEqual(g.deltas, w.deltas) {
			t.Errorf("post %d (%s %.60s): counter deltas %v, without memo %v", i, p.path, p.body, g.deltas, w.deltas)
		}
		if hit := g.memoHits == 1; hit != p.memoHit || g.memoHits > 1 || w.memoHits != 0 {
			t.Errorf("post %d (%s %.60s): body_memo_hits +%d (without memo +%d), want memo hit %t", i, p.path, p.body, g.memoHits, w.memoHits, p.memoHit)
		}
	}
	return got
}

// TestBodyMemoDifferential posts each body twice, in one sequence, to a
// server and to a reference server with the memo switched off: the memo
// answers the repeated bodies it may and changes no response and no
// counter. The bodies cover bench and inline designs, budgets, modes,
// async, batches with duplicates and with a bad item, a body one byte away
// from another, the same bytes on both endpoints, and bodies that fail to
// decode, validate or parse their mode.
func TestBodyMemoDifferential(t *testing.T) {
	d1, d2 := marshal(t, smallDesign(t, 1)), marshal(t, smallDesign(t, 2))
	inline := func(design []byte, extra string) []byte {
		return []byte(`{"design":` + string(design) + extra + `}`)
	}
	oneByte := inline(d1, "")
	i := bytes.IndexAny(oneByte, "123456789")
	oneByte[i] = '1' + (oneByte[i]-'0')%9 // another nonzero digit, same length
	batch := func(items ...[]byte) []byte {
		return append(append([]byte("["), bytes.Join(items, []byte(","))...), ']')
	}
	bench := []byte(`{"bench":"I1"}`)

	var posts []memoPost
	twice := func(path string, body []byte, memoHit bool) {
		posts = append(posts, memoPost{path, body, false}, memoPost{path, body, memoHit})
	}
	twice("/solve", bench, true)
	twice("/solve", []byte(`{"bench":"I1","timeout_ms":1234}`), true)
	twice("/solve", inline(d1, ""), true)
	twice("/solve", inline(d1, `,"timeout_ms":999999999`), true) // clamped
	twice("/solve", inline(d1, `,"mode":"greedy","skip_wdm":true`), true)
	twice("/solve", inline(d1, `,"async":true`), true) // a cache hit: 202 with a done job
	twice("/solve", oneByte, true)
	twice("/solve/batch", batch(inline(d2, ""), bench, inline(d2, ""), inline(d1, `,"mode":"greedy"`)), true)
	twice("/solve/batch", batch(inline(d1, ""), []byte(`{"bench":"I99"}`), inline(d1, "")), false)
	twice("/solve/batch", batch(inline(d1, ""), inline(d1, `,"async":true`)), false)
	twice("/solve/batch", bench, false)  // the bytes /solve memoised
	twice("/solve", batch(bench), false) // and a batch's bytes on /solve
	twice("/solve/batch", batch(bench), true)
	twice("/solve", []byte(`{"bench":"I1"`), false)                       // decode
	twice("/solve", []byte(`{"design":{"name":"x","groups":[]}}`), false) // Validate
	twice("/solve", []byte(`{"bench":"I1","mode":"fast"}`), false)        // ParseMode
	twice("/solve/batch", []byte(`[]`), false)

	got := checkMemoInvisible(t, 0, posts)
	for i := 0; i < len(got); i += 2 {
		if got[i].status != got[i+1].status || got[i].status >= 400 && got[i].payload != got[i+1].payload {
			t.Errorf("post %d (%.60s): status %d %s, then %d %s", i, posts[i].body, got[i].status, got[i].payload, got[i+1].status, got[i+1].payload)
		}
	}
}

// TestBodyMemoEviction covers a memo hit whose fingerprints the result
// cache no longer holds, all or in part: the request decodes and solves
// what the cache cannot answer, and batch items already answered from the
// cache keep their answers.
func TestBodyMemoEviction(t *testing.T) {
	d1, d2, d3 := marshal(t, smallDesign(t, 1)), marshal(t, smallDesign(t, 2)), marshal(t, smallDesign(t, 3))
	inline := func(design []byte) []byte { return []byte(`{"design":` + string(design) + `}`) }
	batch := func(items ...[]byte) []byte {
		return append(append([]byte("["), bytes.Join(items, []byte(","))...), ']')
	}
	bad := []byte(`{"bench":"nope"}`)

	t.Run("single", func(t *testing.T) {
		got := checkMemoInvisible(t, 1, []memoPost{
			{"/solve", inline(d1), false},
			{"/solve/batch", batch(inline(d2), inline(d3)), false}, // two items: never memoised; evicts d1
			{"/solve", inline(d1), false},                          // memo hit, cache miss: decode and solve
			{"/solve", inline(d1), true},
			{"/solve/batch", batch(inline(d2), inline(d3)), false},
			{"/solve/batch", batch(inline(d2), inline(d3)), false}, // d3 from the cache, d2 solved
		})
		if s := got[2].deltas["http.solves_run"]; s != 1 {
			t.Errorf("evicted memo hit ran %d solves, want 1", s)
		}
		if last := got[5].payload; !strings.Contains(last, `"cache_hits":1`) || !strings.Contains(last, `"unique_solves":1`) {
			t.Errorf("2-item batch in a 1-entry cache: %s, want one cached item and one solve", last)
		}
	})
	t.Run("batch", func(t *testing.T) {
		got := checkMemoInvisible(t, 2, []memoPost{
			{"/solve/batch", batch(inline(d1), inline(d2)), false},
			{"/solve/batch", batch(inline(d1), bad), false}, // d1 most recent; not memoised
			{"/solve/batch", batch(inline(d3), bad), false}, // evicts d2
			{"/solve/batch", batch(inline(d1), inline(d2)), false},
			{"/solve/batch", batch(inline(d1), inline(d2)), true},
		})
		if last := got[3].payload; !strings.Contains(last, `"cache_hits":1`) || !strings.Contains(last, `"unique_solves":1`) ||
			!strings.Contains(last, `"cached":true`) {
			t.Errorf("memo hit with one evicted item: %s, want item 0 cached and item 1 solved", last)
		}
	})
	t.Run("cache-off", func(t *testing.T) {
		srv := memoServer(t, -1)
		defer srv.Shutdown()
		if srv.memo != nil {
			t.Fatal("memo on with the result cache off")
		}
		checkMemoInvisible(t, -1, []memoPost{
			{"/solve", inline(d1), false},
			{"/solve", inline(d1), false},
			{"/solve/batch", batch(inline(d1)), false},
			{"/solve/batch", batch(inline(d1)), false},
		})
	})
}

// TestBodyMemoJoinsFlight holds a solve in flight and repeats its body,
// which the memo knows but the cache does not yet hold: the repeat must
// decode and join the flight, never queue a designless instance.
func TestBodyMemoJoinsFlight(t *testing.T) {
	srv := memoServer(t, 1)
	stub := stubSolve(t)
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	var hold atomic.Bool
	srv.SetSolve(func(ctx context.Context, d signal.Design, cfg operon.Config, ws *operon.Workspace) (*operon.Result, error) {
		if hold.Load() {
			started <- struct{}{}
			<-gate
		}
		return stub(ctx, d, cfg, ws)
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	d1, d2, d3 := smallDesign(t, 1), smallDesign(t, 2), smallDesign(t, 3)

	post(t, ts, "/solve", SolveRequest{Design: &d1}).Body.Close()
	post(t, ts, "/solve/batch", []SolveRequest{{Design: &d2}, {Design: &d3}}).Body.Close() // evicts d1
	hold.Store(true)
	leader := postAsync(t, ts, "/solve", SolveRequest{Design: &d1})
	<-started
	joiner := postAsync(t, ts, "/solve", SolveRequest{Design: &d1})
	awaitCounter(t, srv, "http.coalesce_joins", 1)
	close(gate)
	var lr, jr SolveResponse
	decode(t, recvPost(t, leader), &lr)
	decode(t, recvPost(t, joiner), &jr)
	if lr.Cached || lr.Coalesced || !jr.Coalesced || jr.PowerMW != lr.PowerMW {
		t.Errorf("leader %+v, joiner %+v: want a solve and a coalesced copy", lr, jr)
	}
	if n := counter(srv, "http.body_memo_hits"); n != 0 {
		t.Errorf("body_memo_hits = %d, want 0", n)
	}
	ts.Close()
	srv.Shutdown()
}

// TestBodyMemoBound pins the memo's capacity accounting: entries cost
// their item count, the least recently used go first, a body larger than
// the capacity is not recorded, and a body not read to its end has no key.
func TestBodyMemoBound(t *testing.T) {
	srv := memoServer(t, 3)
	defer srv.Shutdown()
	key := func(body string) bodyKey { return srv.bodyKey("/solve", []byte(body), nil) }
	put := func(body string, items int) { srv.memoPut(key(body), false, make([]instance, items)) }
	put("a", 2)
	put("b", 1)
	srv.memoGet(key("a"))
	put("c", 1) // evicts b
	put("d", 4) // larger than the memo
	put("e", 2) // evicts a
	for body, want := range map[string]bool{"a": false, "b": false, "c": true, "d": false, "e": true} {
		if got := srv.memoGet(key(body)) != nil; got != want {
			t.Errorf("body %q memoised = %t, want %t", body, got, want)
		}
	}
	if srv.memo.items != 3 {
		t.Errorf("memo holds %d items, want 3", srv.memo.items)
	}
	if k := srv.bodyKey("/solve", []byte("a"), io.ErrUnexpectedEOF); k.ok {
		t.Error("a body whose read failed has a memo key")
	}
}

// decodeCorpus returns the inputs committed for FuzzDecodeRequest.
func decodeCorpus(tb testing.TB) [][]byte {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodeRequest", "*"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("FuzzDecodeRequest corpus: %d files, %v", len(files), err)
	}
	var out [][]byte
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		_, arg, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
		arg = strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")")
		s, err := strconv.Unquote(arg)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// FuzzSolveBodyTwice posts a body to /solve and to /solve/batch twice on
// one server, so the second post can be answered from the body memo, and
// once on a fresh server: status, error text and payload must agree. The
// payload leaves out timing and provenance (cached, coalesced and the
// batch counts that tally them), and a 202 is compared by status alone,
// since its job may not have run yet. Seeded from FuzzDecodeRequest's
// corpus.
func FuzzSolveBodyTwice(f *testing.F) {
	for _, data := range decodeCorpus(f) {
		f.Add(data)
	}
	drop := append([]string{"cached", "coalesced", "unique_solves", "cache_hits", "coalesce_joins"}, timing...)
	f.Fuzz(func(t *testing.T, data []byte) {
		srv, fresh := memoServer(t, 0), memoServer(t, 0)
		defer srv.Shutdown()
		defer fresh.Shutdown()
		h, hf := srv.Handler(), fresh.Handler()
		for _, path := range []string{"/solve", "/solve/batch"} {
			wantStatus, wantBody := postBody(hf, path, data)
			want := ""
			if wantStatus != http.StatusAccepted {
				want = payload(t, wantBody, drop...)
			}
			for k := 0; k < 2; k++ {
				status, body := postBody(h, path, data)
				got := ""
				if status != http.StatusAccepted {
					got = payload(t, body, drop...)
				}
				if status != wantStatus || got != want {
					t.Fatalf("%s post %d of %q: %d %s\nfresh server: %d %s", path, k+1, data, status, got, wantStatus, want)
				}
			}
		}
	})
}
