package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	operon "operon"
	"operon/internal/benchgen"
	"operon/internal/obs"
	"operon/internal/signal"
)

// Session endpoints implement sticky incremental re-synthesis over HTTP:
//
//	POST   /sessions            create a session and run its cold solve
//	POST   /sessions/{id}/edit  apply an edit script and re-solve warm
//	GET    /sessions/{id}       session metadata + latency summary
//	DELETE /sessions/{id}       drop the session
//
// Unlike /solve jobs, session solves run inline in the handler (bounded by
// MaxSessions and serialised per session): a session's reuse state is
// sticky to its operon.Session and cannot hop between queue slots. Sessions
// are evicted by idle TTL (a janitor sweeps; lookups also check lazily) and
// by LRU when MaxSessions is reached. Eviction mid-resolve is safe: the
// handler holds the session pointer and its lock for the duration, eviction
// only unlinks the id from the table.

// SessionRequest is the JSON body of POST /sessions. Input selection
// matches SolveRequest (bench or inline design).
type SessionRequest struct {
	// Bench names a built-in benchmark (benchgen.SpecByName, "I1".."I8").
	Bench string `json:"bench,omitempty"`
	// Design is an inline signal.Design; used when Bench is empty.
	Design *signal.Design `json:"design,omitempty"`
	// Mode is the selection algorithm: "lr" (default), "ilp" or "greedy".
	Mode string `json:"mode,omitempty"`
	// SkipWDM disables the WDM placement/assignment stage.
	SkipWDM bool `json:"skip_wdm,omitempty"`
	// TimeoutMS bounds the initial solve like SolveRequest.TimeoutMS.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// EditRequest is the JSON body of POST /sessions/{id}/edit: an edit script
// applied atomically, followed by an incremental re-solve.
type EditRequest struct {
	// Edits is the ordered edit script (see benchgen.EditOp for the kinds).
	Edits []benchgen.EditOp `json:"edits"`
	// TimeoutMS bounds the re-solve like SolveRequest.TimeoutMS.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ReuseStats is the wire form of operon.ResolveStats: what the re-solve
// reused versus rebuilt.
type ReuseStats struct {
	// Cold marks the session's first solve.
	Cold bool `json:"cold,omitempty"`
	// FullReuse marks a no-op resolve (nothing dirty, nothing re-run).
	FullReuse bool `json:"full_reuse,omitempty"`
	// GroupsReused counts signal groups whose clustering carried over.
	GroupsReused int `json:"groups_reused"`
	// GroupsRebuilt counts signal groups re-clustered because they were dirty.
	GroupsRebuilt int `json:"groups_rebuilt"`
	// TreesReused counts hyper nets whose baseline trees carried over.
	TreesReused int `json:"trees_reused"`
	// CandsReused counts nets whose candidate sets carried over.
	CandsReused int `json:"cands_reused"`
	// CandsRebuilt counts nets whose candidate sets were regenerated.
	CandsRebuilt int `json:"cands_rebuilt"`
	// CrossCacheSeeded counts transplanted crossing-loss memo entries.
	CrossCacheSeeded int `json:"crosscache_seeded"`
	// WDMReused marks a carried-over WDM placement/assignment.
	WDMReused bool `json:"wdm_reused,omitempty"`
}

// SessionResponse is the JSON result of a session solve (create or edit).
type SessionResponse struct {
	SolveResponse
	// SessionID addresses the session in subsequent /sessions/{id} calls.
	SessionID string `json:"session_id"`
	// Resolves counts the solves this session has run (cold included).
	Resolves int `json:"resolves"`
	// Reuse reports what this resolve reused versus rebuilt.
	Reuse ReuseStats `json:"reuse"`
}

// SessionInfo is the JSON body of GET /sessions/{id}.
type SessionInfo struct {
	// ID is the session id.
	ID string `json:"id"`
	// Design names the session's design.
	Design string `json:"design"`
	// Resolves counts the solves run so far.
	Resolves int `json:"resolves"`
	// AgeSeconds is the time since session creation.
	AgeSeconds float64 `json:"age_seconds"`
	// IdleSeconds is the time since the session was last used.
	IdleSeconds float64 `json:"idle_seconds"`
	// ResolveP50MS is this session's median resolve latency.
	ResolveP50MS float64 `json:"resolve_p50_ms"`
	// ResolveP99MS is this session's tail resolve latency.
	ResolveP99MS float64 `json:"resolve_p99_ms"`
	// ResolveCount is the sample count behind the quantiles.
	ResolveCount int64 `json:"resolve_count"`
}

// session is one sticky server-side editing session. The server table lock
// (sessMu) guards lastUsed and table membership; mu serialises Apply/Resolve
// so concurrent edits to one session cannot interleave mid-solve.
type session struct {
	id      string
	mu      sync.Mutex
	sess    *operon.Session
	hist    *obs.Histogram // per-session resolve latency
	created time.Time

	resolves int       // guarded by mu
	lastUsed time.Time // guarded by the server's sessMu
}

// initSessions wires the session table; called from New.
func (s *Server) initSessions(opts Options) {
	s.sessTTL = opts.SessionTTL
	if s.sessTTL <= 0 {
		s.sessTTL = 10 * time.Minute
	}
	s.sessMax = opts.MaxSessions
	if s.sessMax <= 0 {
		s.sessMax = 64
	}
	s.sessions = map[string]*session{}
	s.wg.Add(1)
	go s.sessionJanitor()
}

// sessionJanitor sweeps idle sessions every quarter TTL until shutdown.
func (s *Server) sessionJanitor() {
	defer s.wg.Done()
	interval := s.sessTTL / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-tick.C:
			s.evictExpired()
		}
	}
}

// evictExpired drops every session idle beyond the TTL.
func (s *Server) evictExpired() {
	now := time.Now()
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	for id, se := range s.sessions {
		if now.Sub(se.lastUsed) > s.sessTTL {
			delete(s.sessions, id)
			s.tracer.Counter("http.sessions_evicted/ttl").Inc()
		}
	}
}

// getSession looks a session up, applying the lazy TTL check and touching
// its LRU timestamp.
func (s *Server) getSession(id string) (*session, bool) {
	now := time.Now()
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	se, ok := s.sessions[id]
	if !ok {
		return nil, false
	}
	if now.Sub(se.lastUsed) > s.sessTTL {
		delete(s.sessions, id)
		s.tracer.Counter("http.sessions_evicted/ttl").Inc()
		return nil, false
	}
	se.lastUsed = now
	return se, true
}

// putSession registers a new session, evicting the least-recently-used one
// when the table is full.
func (s *Server) putSession(se *session) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	for len(s.sessions) >= s.sessMax {
		var lruID string
		var lruAt time.Time
		for id, cand := range s.sessions {
			if lruID == "" || cand.lastUsed.Before(lruAt) {
				lruID, lruAt = id, cand.lastUsed
			}
		}
		delete(s.sessions, lruID)
		s.tracer.Counter("http.sessions_evicted/lru").Inc()
	}
	s.sessions[se.id] = se
	s.tracer.Counter("http.sessions_created").Inc()
}

// sessionCount returns the live session count (the sessions_active gauge).
func (s *Server) sessionCount() int {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return len(s.sessions)
}

// handleSessions serves POST /sessions: create a session, run the cold
// solve inline, and return the result with the session id.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.draining.Load() {
		writeJSONError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req SessionRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	design, err := resolveDesign(SolveRequest{Bench: req.Bench, Design: req.Design})
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg := s.cfg
	cfg.SkipWDM = req.SkipWDM
	if cfg.Mode, err = ParseMode(req.Mode); err != nil {
		writeJSONError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.sessMu.Lock()
	s.sessSeq++
	id := fmt.Sprintf("sess-%d", s.sessSeq)
	s.sessMu.Unlock()
	se := &session{
		id:       id,
		sess:     operon.NewSession(design, cfg),
		hist:     obs.NewHistogram("session/resolve", nil),
		created:  time.Now(),
		lastUsed: time.Now(),
	}
	s.putSession(se)
	s.resolveSession(w, r, se, req.TimeoutMS)
}

// handleSession routes /sessions/{id} and /sessions/{id}/edit.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/sessions/")
	id, action, _ := strings.Cut(rest, "/")
	se, ok := s.getSession(id)
	if !ok {
		writeJSONError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	switch {
	case action == "" && r.Method == http.MethodGet:
		s.sessMu.Lock()
		idle := time.Since(se.lastUsed)
		s.sessMu.Unlock()
		se.mu.Lock()
		resolves := se.resolves
		design := se.sess.Design().Name
		se.mu.Unlock()
		snap := se.hist.Snapshot()
		writeJSON(w, http.StatusOK, SessionInfo{
			ID:           se.id,
			Design:       design,
			Resolves:     resolves,
			AgeSeconds:   time.Since(se.created).Seconds(),
			IdleSeconds:  idle.Seconds(),
			ResolveP50MS: snap.Quantile(0.50) / float64(time.Millisecond),
			ResolveP99MS: snap.Quantile(0.99) / float64(time.Millisecond),
			ResolveCount: snap.Count,
		})
	case action == "" && r.Method == http.MethodDelete:
		s.sessMu.Lock()
		delete(s.sessions, id)
		s.sessMu.Unlock()
		writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
	case action == "edit" && r.Method == http.MethodPost:
		var req EditRequest
		if !s.decodeJSON(w, r, &req) {
			return
		}
		edits, err := operon.EditsFromOps(req.Edits)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, "%v", err)
			return
		}
		se.mu.Lock()
		if _, err := se.sess.Apply(edits...); err != nil {
			se.mu.Unlock()
			writeJSONError(w, http.StatusBadRequest, "%v", err)
			return
		}
		se.mu.Unlock()
		s.resolveSession(w, r, se, req.TimeoutMS)
	default:
		writeJSONError(w, http.StatusMethodNotAllowed, "unsupported method %s for /sessions/%s/%s", r.Method, id, action)
	}
}

// resolveSession runs one session resolve inline under the request budget
// and writes the response. It serialises on the session's own lock, so
// concurrent edits to the same session queue up rather than interleave.
func (s *Server) resolveSession(w http.ResponseWriter, r *http.Request, se *session, timeoutMS int64) {
	timeout := time.Duration(timeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = s.defaultTimeout
	}
	if s.maxTimeout > 0 && timeout > s.maxTimeout {
		timeout = s.maxTimeout
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	defer cancel()

	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	se.mu.Lock()
	defer se.mu.Unlock()
	start := time.Now()
	res, st, err := se.sess.Resolve(ctx)
	elapsed := time.Since(start)
	se.hist.RecordDuration(elapsed)
	s.tracer.Histogram("session/resolve").RecordDuration(elapsed)
	reqID := r.Header.Get("X-Request-Id")
	if err != nil {
		s.tracer.Counter("http.solve_errors").Inc()
		s.log.Error("session resolve failed", "request_id", reqID, "session_id", se.id, "error", err.Error())
		writeJSONError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	se.resolves++
	if res.Degraded {
		s.tracer.Counter("http.degraded").Inc()
	}
	s.log.Info("session resolve",
		"request_id", reqID,
		"session_id", se.id,
		"design", res.Design,
		"degraded", res.Degraded,
		"full_reuse", st.FullReuse,
		"groups_rebuilt", st.GroupsRebuilt,
		"solve_ms", float64(elapsed)/float64(time.Millisecond),
	)
	writeJSON(w, http.StatusOK, SessionResponse{
		SolveResponse: SolveResponse{
			Design:     res.Design,
			Flow:       res.Flow,
			PowerMW:    res.PowerMW,
			Violations: res.Selection.Violations,
			HyperNets:  len(res.HyperNets),
			WDMsUsed:   res.WDMStats.FinalWDMs,
			Degraded:   res.Degraded,
			StopReason: string(res.StopReason),
			RequestID:  reqID,
			TimeoutMS:  timeout.Milliseconds(),
			ElapsedMS:  float64(elapsed) / float64(time.Millisecond),
		},
		SessionID: se.id,
		Resolves:  se.resolves,
		Reuse: ReuseStats{
			Cold:             st.Cold,
			FullReuse:        st.FullReuse,
			GroupsReused:     st.GroupsReused,
			GroupsRebuilt:    st.GroupsRebuilt,
			TreesReused:      st.TreesReused,
			CandsReused:      st.CandsReused,
			CandsRebuilt:     st.CandsRebuilt,
			CrossCacheSeeded: st.CrossCacheSeeded,
			WDMReused:        st.WDMReused,
		},
	})
}
