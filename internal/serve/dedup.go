package serve

import (
	"container/list"
	"context"
	"fmt"
	"net/http"
	"time"
)

// This file is the request-efficiency layer (DESIGN.md §13): content-
// addressed single-flight coalescing plus a bounded LRU+TTL result cache,
// both keyed by operon.Fingerprint. Identical in-flight instances share one
// solve (the leader; later arrivals become shadow jobs that wait on it),
// and non-degraded results are cached so repeats skip the queue entirely.
//
// The coalescing state machine, per fingerprint:
//
//	         ┌── admit: miss flight+cache ──► LEADER (queued job)
//	request ─┼── admit: flight hit ─────────► SHADOW (waits on leader.done)
//	         └── admit: cache hit ──────────► DONE   (cached=true)
//
//	leader done, not degraded ─► cache.Put, release flight, fan to shadows
//	leader done, degraded ─────► release flight; each shadow with remaining
//	                             budget re-admits (promotion: one becomes
//	                             the next leader), the rest fan the
//	                             degraded copy
//	leader panicked ───────────► release flight; shadows promote as for a
//	                             degraded leader, failing alike only
//	                             without budget or a queue slot
//	leader failed ─────────────► release flight, shadows fail alike
//	shadow budget expires ─────► detach: solve inline under an already-
//	                             expired deadline → degradation-ladder
//	                             floor, leader unaffected
//
// Publish order makes the flight table and cache gap-free: a finishing
// leader writes the cache BEFORE releasing the flight key (runJob), and
// admit checks the flight table BEFORE the cache, so a request can never
// miss both for an instance whose solve already succeeded.

// resultCache is a bounded LRU+TTL map from fingerprint to SolveResponse.
// Entries are invalidation-free: the key is a content hash of the full
// instance, so a hit is bit-identical to re-solving. Expiry is lazy (Get
// drops a stale entry) plus capacity eviction on Put.
type resultCache struct {
	max     int
	ttl     time.Duration
	entries map[[32]byte]*list.Element
	order   *list.List // front = most recently used
}

// cacheEntry is one resultCache slot.
type cacheEntry struct {
	fp      [32]byte
	resp    SolveResponse
	expires time.Time
}

// newResultCache sizes a cache from the Options knobs: maxEntries 0 means
// the 256 default, negative disables caching (nil cache; every method is
// nil-safe).
func newResultCache(maxEntries int, ttl time.Duration) *resultCache {
	if maxEntries < 0 {
		return nil
	}
	if maxEntries == 0 {
		maxEntries = 256
	}
	if ttl <= 0 {
		ttl = 5 * time.Minute
	}
	return &resultCache{
		max:     maxEntries,
		ttl:     ttl,
		entries: map[[32]byte]*list.Element{},
		order:   list.New(),
	}
}

// get returns a copy of the cached response for fp, if fresh. The caller
// holds s.mu (the cache has no lock of its own: every access happens under
// the server lock that also guards the flight table, which is what makes
// the flight-then-cache read sequence atomic).
func (c *resultCache) get(fp [32]byte) (SolveResponse, bool) {
	if c == nil {
		return SolveResponse{}, false
	}
	el, ok := c.entries[fp]
	if !ok {
		return SolveResponse{}, false
	}
	ce := el.Value.(*cacheEntry)
	if time.Now().After(ce.expires) {
		c.order.Remove(el)
		delete(c.entries, fp)
		return SolveResponse{}, false
	}
	c.order.MoveToFront(el)
	return ce.resp, true // struct copy: SolveResponse has no reference fields
}

// put inserts (or refreshes) a response, evicting the least recently used
// entries past capacity. Safe to call without s.mu held only via the
// Server.cache Put wrapper below.
func (c *resultCache) put(fp [32]byte, resp SolveResponse) {
	if c == nil {
		return
	}
	if el, ok := c.entries[fp]; ok {
		ce := el.Value.(*cacheEntry)
		ce.resp = resp
		ce.expires = time.Now().Add(c.ttl)
		c.order.MoveToFront(el)
		return
	}
	for len(c.entries) >= c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).fp)
	}
	c.entries[fp] = c.order.PushFront(&cacheEntry{fp: fp, resp: resp, expires: time.Now().Add(c.ttl)})
}

// len reports the live entry count (the cache_entries gauge); caller holds
// s.mu.
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	return len(c.entries)
}

// Put caches a finished solve response under the server lock. The stored
// copy strips the per-request fields (request id, queue wait, elapsed) so a
// hit carries only content-determined payload plus its own bookkeeping.
func (s *Server) cachePut(fp [32]byte, resp *SolveResponse) {
	if s.cache == nil {
		return
	}
	stored := *resp
	stored.RequestID = ""
	stored.TimeoutMS = 0
	stored.QueueMS = 0
	stored.ElapsedMS = 0
	stored.Cached = false
	stored.Coalesced = false
	s.mu.Lock()
	s.cache.put(fp, stored)
	s.mu.Unlock()
}

// cacheEntryCount backs the cache_entries gauge.
func (s *Server) cacheEntryCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.len()
}

// admit routes a resolved instance through the dedup layer and returns a
// job whose done channel yields the result:
//
//   - flight hit: a shadow job joins the in-flight leader (coalesced)
//   - cache hit: an already-done job carrying the cached response
//   - miss: the job becomes the flight leader and is enqueued; with
//     block=false a full queue fails with 429, with block=true (batch) the
//     enqueue waits for a slot, bounded by rctx and server shutdown
//
// A memo-resolved instance has no design to solve: on a flight hit or a
// miss admit registers nothing and returns errMemoMiss. The returned
// status/error otherwise follow the writeJSONError convention and are only
// set when the job could not be admitted at all.
func (s *Server) admit(inst instance, reqID string, rctx context.Context, block bool) (*Job, int, error) {
	start := time.Now()
	s.mu.Lock()
	leader, inFlight := s.flights[inst.fp]
	if inFlight && inst.memo {
		s.mu.Unlock()
		return nil, 0, errMemoMiss
	}
	if inFlight {
		sh := s.newJobLocked(inst, reqID)
		s.mu.Unlock()
		s.tracer.Counter("http.coalesce_joins").Inc()
		go s.completeShadow(sh, leader, sh.enqueued.Add(sh.timeout))
		return sh, 0, nil
	}
	if resp, ok := s.cache.get(inst.fp); ok {
		j := s.newJobLocked(inst, reqID)
		s.mu.Unlock()
		s.tracer.Counter("http.cache_hits").Inc()
		resp.Cached = true
		resp.RequestID = reqID
		resp.TimeoutMS = inst.timeout.Milliseconds()
		resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
		s.hCacheHit.RecordDuration(time.Since(start))
		s.finish(j, &resp, "", 0)
		return j, 0, nil
	}
	if inst.memo {
		s.mu.Unlock()
		return nil, 0, errMemoMiss
	}
	j := s.newJobLocked(inst, reqID)
	j.dedup = true
	s.flights[inst.fp] = j
	if !block {
		// Enqueue inside the critical section: registration and the
		// queue-full check are atomic, so a 429'd leader can never have
		// picked up joiners.
		status, err := s.enqueueLocked(j)
		s.mu.Unlock()
		if err != nil {
			return nil, status, err
		}
		s.tracer.Counter("http.cache_misses").Inc()
		return j, 0, nil
	}
	s.mu.Unlock()
	s.tracer.Counter("http.cache_misses").Inc()
	// A leader that never reaches a worker leaves the flight table and fails,
	// so joiners that attached while the enqueue waited fail alike instead of
	// hanging.
	select {
	case s.queue <- j:
	case <-rctx.Done():
		s.releaseFlight(j)
		s.finish(j, nil, "client cancelled before the solve was scheduled", http.StatusRequestTimeout)
	case <-s.baseCtx.Done():
		s.releaseFlight(j)
		s.finish(j, nil, "server draining", http.StatusServiceUnavailable)
	}
	return j, 0, nil
}

// enqueueLocked hands a registered job to the queue without blocking. On a
// full queue it unregisters the job (and its flight entry, for a leader)
// and returns 429. The caller holds s.mu. Both the /solve miss path and
// session jobs enter the queue here.
func (s *Server) enqueueLocked(j *Job) (int, error) {
	select {
	case s.queue <- j:
		return 0, nil
	default:
		if j.dedup {
			delete(s.flights, j.fp)
		}
		delete(s.jobs, j.ID)
		return http.StatusTooManyRequests, fmt.Errorf("job queue full (%d slots)", cap(s.queue))
	}
}

// completeShadow resolves one joiner against its leader's outcome. deadline
// is the shadow's own absolute budget: if it passes before the leader
// finishes, the shadow detaches — the leader keeps running for everyone
// else, while this request gets its usual expired-budget semantics. A
// leader that finishes degraded (its budget or a shutdown cut it short, a
// timing artifact this joiner need not inherit) triggers promotion: the
// shadow re-admits under its remaining budget, becoming the next leader if
// no one else has. A leader whose solve panicked promotes its joiners the
// same way — the panic is a fault of that one solve, and a coalesced
// neighbour must not inherit it — so each joiner fares as if it had come
// alone.
func (s *Server) completeShadow(sh *Job, leader *Job, deadline time.Time) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-leader.done:
		lv := s.jobView(leader)
		switch {
		case lv.State == JobDone && !lv.Result.Degraded:
			s.fanOut(sh, lv.Result)
		case lv.State == JobDone:
			s.promote(sh, leader, deadline, func() { s.fanOut(sh, lv.Result) })
		case leader.panicked:
			s.promote(sh, leader, deadline, func() {
				s.finish(sh, nil, lv.Error, http.StatusInternalServerError)
			})
		default:
			s.finish(sh, nil, lv.Error, s.failStatusOf(leader))
		}
	case <-timer.C:
		s.detach(sh)
	}
}

// fanOut publishes a copy of the leader's (or a degraded fallback's)
// response as the shadow's own result.
func (s *Server) fanOut(sh *Job, src *SolveResponse) {
	resp := *src // struct copy: no reference fields
	resp.Coalesced = true
	resp.RequestID = sh.reqID
	resp.TimeoutMS = sh.timeout.Milliseconds()
	resp.QueueMS = 0
	resp.ElapsedMS = float64(time.Since(sh.enqueued)) / float64(time.Millisecond)
	s.hE2E.RecordDuration(time.Since(sh.enqueued))
	s.finish(sh, &resp, "", 0)
}

// promote handles a degraded or panicked leader: a shadow with remaining
// budget re-enters the dedup layer (joining a newer flight, hitting the
// cache, or becoming the next leader itself — "leader cancellation promotes
// a surviving joiner"); one without budget, or without a queue slot, takes
// the fallback outcome (the degraded copy, or the leader's failure).
func (s *Server) promote(sh *Job, old *Job, deadline time.Time, fallback func()) {
	remaining := time.Until(deadline)
	if remaining <= 0 {
		fallback()
		return
	}
	s.mu.Lock()
	if leader, ok := s.flights[sh.fp]; ok && leader != old {
		s.mu.Unlock()
		s.tracer.Counter("http.coalesce_joins").Inc()
		s.completeShadow(sh, leader, deadline)
		return
	}
	if resp, ok := s.cache.get(sh.fp); ok {
		s.mu.Unlock()
		s.tracer.Counter("http.cache_hits").Inc()
		resp.Cached = true
		resp.RequestID = sh.reqID
		resp.TimeoutMS = sh.timeout.Milliseconds()
		s.hE2E.RecordDuration(time.Since(sh.enqueued))
		s.finish(sh, &resp, "", 0)
		return
	}
	// Become the next leader under the remaining budget.
	sh.dedup = true
	sh.timeout = remaining
	s.flights[sh.fp] = sh
	select {
	case s.queue <- sh:
		s.mu.Unlock()
		s.tracer.Counter("http.coalesce_promotions").Inc()
	default:
		delete(s.flights, sh.fp)
		sh.dedup = false
		s.mu.Unlock()
		fallback() // queue full
	}
}

// detach runs a shadow whose own budget expired before its leader
// finished: the solve executes inline under an already-expired deadline,
// which the degradation ladder turns into the electrical floor — the
// same response a solo request with this budget would have produced. The
// leader is untouched, and a panic here fails only this shadow.
func (s *Server) detach(sh *Job) {
	s.tracer.Counter("http.coalesce_detach").Inc()
	s.setRunning(sh)
	ctx, cancel := context.WithDeadline(s.baseCtx, time.Now())
	defer cancel()
	s.inflight.Add(1)
	start := time.Now()
	res, err := s.solveContained(ctx, sh, nil)
	s.inflight.Add(-1)
	if err != nil {
		s.tracer.Counter("http.solve_errors").Inc()
		s.finish(sh, nil, err.Error(), http.StatusInternalServerError)
		return
	}
	if res.Degraded {
		s.tracer.Counter("http.degraded").Inc()
	}
	resp := s.responseOf(res, sh, 0, time.Since(start))
	s.hE2E.RecordDuration(time.Since(sh.enqueued))
	s.finish(sh, resp, "", 0)
}
