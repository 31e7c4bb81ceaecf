// Package serve implements the operond HTTP serving layer: a bounded job
// queue drained by per-slot workers (each owning a reusable solver
// workspace), per-request deadlines mapped onto context deadlines with
// graceful degradation, and the production telemetry stack — per-request
// and per-stage latency histograms, Prometheus text exposition at
// /metrics (JSON mirror at /metrics.json), structured slog request logs
// joined to traces by generated request IDs, and a drain-aware /healthz.
//
// The package exists so that cmd/operond (the daemon) and cmd/loadgen
// (the SLO harness) share one server implementation: loadgen can boot the
// real serving stack in-process and replay request mixes against it
// without a subprocess.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	operon "operon"
	"operon/internal/benchgen"
	"operon/internal/obs"
	"operon/internal/signal"
)

// SolveRequest is the JSON body of POST /solve. Exactly one of Bench or
// Design selects the input; the rest tune the solve.
type SolveRequest struct {
	// Bench names a built-in benchmark (benchgen.SpecByName, "I1".."I8").
	Bench string `json:"bench,omitempty"`
	// Design is an inline signal.Design; used when Bench is empty.
	Design *signal.Design `json:"design,omitempty"`
	// Mode is the selection algorithm: "lr" (default), "ilp" or "greedy".
	Mode string `json:"mode,omitempty"`
	// TimeoutMS is the per-request time budget in milliseconds; it becomes
	// the context deadline of the solve. Zero means the server default, and
	// values above the server maximum are clamped down. An exceeded budget
	// never fails the request: the flow degrades and the response carries
	// degraded=true with a stop_reason.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// SkipWDM disables the WDM placement/assignment stage.
	SkipWDM bool `json:"skip_wdm,omitempty"`
	// Async enqueues the job and returns 202 with its id immediately; poll
	// GET /jobs/{id} for the result. Synchronous requests block until done.
	Async bool `json:"async,omitempty"`
}

// SolveResponse is the JSON result of a finished solve.
type SolveResponse struct {
	Design     string  `json:"design"`     // design name
	Flow       string  `json:"flow"`       // flow identifier (operon version tag)
	PowerMW    float64 `json:"power_mw"`   // total routed power
	Violations int     `json:"violations"` // loss-budget violations after repair
	HyperNets  int     `json:"hyper_nets"` // hyper nets routed
	WDMsUsed   int     `json:"wdms_used"`  // WDM links placed
	// Degraded and StopReason mirror operon.Result: the routing is feasible
	// either way, but a degraded one took a fallback rung of the ladder.
	Degraded   bool   `json:"degraded"`
	StopReason string `json:"stop_reason,omitempty"` // why degradation fired
	// RequestID echoes the X-Request-Id the solve ran under, so async
	// pollers can join results to logs and traces too.
	RequestID string `json:"request_id,omitempty"`
	// TimeoutMS is the budget actually applied (after default/clamp).
	TimeoutMS int64 `json:"timeout_ms"`
	// QueueMS is how long the job waited in the bounded queue before a
	// worker picked it up.
	QueueMS   float64 `json:"queue_ms"`
	ElapsedMS float64 `json:"elapsed_ms"` // solve wall clock in milliseconds
	// Cached marks a response served from the content-addressed result
	// cache: no solve ran, ElapsedMS is the lookup time, and the payload is
	// bit-identical to the solve that populated the entry.
	Cached bool `json:"cached,omitempty"`
	// Coalesced marks a response fanned out from another request's solve:
	// this request joined an identical in-flight instance instead of
	// queueing its own.
	Coalesced bool `json:"coalesced,omitempty"`
}

// JobState is the lifecycle of a queued solve.
type JobState string

// The job lifecycle: queued -> running -> done | failed.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Job is one queued solve and its eventual outcome, as serialised by
// GET /jobs/{id}.
type Job struct {
	ID     string         `json:"id"`               // job identifier ("job-N")
	State  JobState       `json:"state"`            // lifecycle state
	Result *SolveResponse `json:"result,omitempty"` // set once done
	Error  string         `json:"error,omitempty"`  // set once failed

	reqID    string
	design   signal.Design
	cfg      operon.Config
	timeout  time.Duration
	enqueued time.Time
	done     chan struct{}

	// fp is the content address of the instance; dedup marks jobs tracked
	// in the flight table (leaders). Shadow jobs (joiners) carry fp but are
	// never flight leaders until promoted. failStatus, when non-zero, is
	// the HTTP status a failure should map to (default 500). panicked marks
	// a failure that was a contained solver panic; it is written before
	// done closes and read only after.
	fp         [32]byte
	dedup      bool
	failStatus int
	panicked   bool
}

// SolveFunc is the solver the job workers invoke; tests inject a stub here
// to exercise queueing and shutdown without running the real flow. The
// workspace is the calling queue slot's — reused across every job the slot
// serves, never shared between slots.
type SolveFunc func(ctx context.Context, d signal.Design, cfg operon.Config, ws *operon.Workspace) (*operon.Result, error)

// Options configures New.
type Options struct {
	// Config is the per-solve template (workers, library, mode default).
	// Its Obs field is replaced by the server's own tracer so every solve
	// feeds the shared counters and stage histograms.
	Config operon.Config
	// QueueLen bounds the job queue; a full queue returns 429. Min 1.
	QueueLen int
	// Concurrency is the number of solves run in parallel (and the number
	// of long-lived solver workspaces). Min 1.
	Concurrency int
	// DefaultTimeout applies to requests without timeout_ms.
	DefaultTimeout time.Duration
	// MaxTimeout clamps requested budgets (0 = unclamped).
	MaxTimeout time.Duration
	// Logger receives the structured request and solve records; nil
	// discards them.
	Logger *slog.Logger
	// SessionTTL is the idle lifetime of sticky editing sessions before
	// eviction (0 = 10 minutes).
	SessionTTL time.Duration
	// MaxSessions caps concurrent sticky sessions; the least recently used
	// session is evicted when a create exceeds it (0 = 64).
	MaxSessions int
	// CacheEntries bounds the content-addressed result cache (0 = 256,
	// negative = caching disabled). Only non-degraded results are cached —
	// they are bit-identical to an unbounded solve of the same instance, so
	// the cache needs no invalidation.
	CacheEntries int
	// CacheTTL is the lifetime of a cached result (0 = 5 minutes).
	CacheTTL time.Duration
	// MaxBodyBytes caps request bodies on the decode paths (/solve,
	// /solve/batch, session endpoints); exceeding it returns 413
	// (0 = 8 MiB, negative = unlimited).
	MaxBodyBytes int64
}

// Server is the operond HTTP state: a bounded job queue drained by a fixed
// set of worker goroutines, all solving under a shared base context that
// shutdown cancels so in-flight solves degrade and return promptly, plus
// the telemetry registry every handler and worker reports into.
type Server struct {
	cfg            operon.Config
	tracer         *obs.Tracer
	reg            *obs.Registry
	log            *slog.Logger
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	solve          SolveFunc

	hQueueWait *obs.Histogram // request/queue_wait: enqueue -> worker pickup
	hSolve     *obs.Histogram // request/solve: solve wall clock
	hE2E       *obs.Histogram // request/e2e: enqueue -> result published
	hCacheHit  *obs.Histogram // request/cache_hit: fast-path lookup latency

	maxBodyBytes int64
	cache        *resultCache // nil when disabled

	baseCtx  context.Context
	cancel   context.CancelFunc
	queue    chan *Job
	wg       sync.WaitGroup
	start    time.Time
	inflight atomic.Int64
	draining atomic.Bool
	reqSeq   atomic.Int64

	mu      sync.Mutex
	jobs    map[string]*Job
	seq     int
	flights map[[32]byte]*Job // in-flight leader per fingerprint

	sessMu   sync.Mutex
	sessions map[string]*session
	sessSeq  int
	sessTTL  time.Duration
	sessMax  int
}

// New assembles a server, wires its telemetry registry, and starts its
// worker goroutines. Call Shutdown (after the HTTP listener has drained)
// to stop the workers.
func New(opts Options) *Server {
	if opts.QueueLen < 1 {
		opts.QueueLen = 1
	}
	if opts.Concurrency < 1 {
		opts.Concurrency = 1
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	tracer := obs.New(nil) // counters + histograms; spans/events are discarded
	cfg := opts.Config
	cfg.Obs = tracer
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:            cfg,
		tracer:         tracer,
		log:            logger,
		defaultTimeout: opts.DefaultTimeout,
		maxTimeout:     opts.MaxTimeout,
		solve:          operon.RunContextWith,
		hQueueWait:     tracer.Histogram("request/queue_wait"),
		hSolve:         tracer.Histogram("request/solve"),
		hE2E:           tracer.Histogram("request/e2e"),
		hCacheHit:      tracer.Histogram("request/cache_hit"),
		maxBodyBytes:   opts.MaxBodyBytes,
		cache:          newResultCache(opts.CacheEntries, opts.CacheTTL),
		baseCtx:        ctx,
		cancel:         cancel,
		queue:          make(chan *Job, opts.QueueLen),
		start:          time.Now(),
		jobs:           map[string]*Job{},
		flights:        map[[32]byte]*Job{},
	}
	if s.maxBodyBytes == 0 {
		s.maxBodyBytes = 8 << 20
	}
	s.reg = newRegistry(s)
	s.initSessions(opts)
	for i := 0; i < opts.Concurrency; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// SetSolve replaces the solver (tests inject stubs that block or fail).
// Call before serving traffic.
func (s *Server) SetSolve(fn SolveFunc) { s.solve = fn }

// Tracer returns the server's shared tracer (counters, stage and request
// histograms across every solve).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Registry returns the unified telemetry registry behind /metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Abort cancels the base context: every in-flight solve observes the
// cancellation at its next check point and degrades to a feasible result.
// The HTTP handlers stay up, so synchronous callers still receive those
// degraded payloads — but /healthz flips to 503 immediately so load
// balancers stop routing new traffic here. Call it before (or instead of)
// draining the listener.
func (s *Server) Abort() {
	s.draining.Store(true)
	s.cancel()
}

// Shutdown stops the workers after the listener has drained: no handler may
// enqueue concurrently with it. It cancels the base context (if Abort has
// not already), closes the queue, and waits for the workers — queued jobs
// still execute, degrading instantly under the cancelled context.
func (s *Server) Shutdown() {
	s.draining.Store(true)
	s.cancel()
	close(s.queue)
	s.wg.Wait()
}

// worker drains the job queue until shutdown closes it. Each worker — one
// queue slot — owns a solver workspace for its whole lifetime, so the
// per-worker solver scratch inside the flow is reused across requests and
// steady-state serving stops allocating candidate-generation buffers.
// Workspaces are never shared between slots, so concurrent solves stay
// isolated. A panicking solve fails only its own job (solveContained), and
// the worker keeps serving with the same workspace: results never depend on
// what a previous solve left in its scratch (see operon.Workspace).
func (s *Server) worker() {
	defer s.wg.Done()
	ws := operon.NewWorkspace()
	for j := range s.queue {
		s.runJob(j, ws)
	}
}

// solveContained runs the solver on a job's instance and turns a panic into
// an error: it marks the job panicked, bumps http.solve_panics and puts the
// stack into the slog error record, and the caller then fails the job (500)
// through its usual error path — flight release and waiter wake-up
// included — so one bad solve never takes down the process.
func (s *Server) solveContained(ctx context.Context, j *Job, ws *operon.Workspace) (res *operon.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			j.panicked = true
			s.tracer.Counter("http.solve_panics").Inc()
			s.log.Error("solve panicked",
				"request_id", j.reqID,
				"job_id", j.ID,
				"panic", fmt.Sprint(p),
				"stack", string(debug.Stack()),
			)
			res, err = nil, fmt.Errorf("solve panicked: %v", p)
		}
	}()
	return s.solve(ctx, j.design, j.cfg, ws)
}

// runJob executes one queued solve under the job's deadline, parented to
// the server's base context so shutdown degrades it too. It owns the
// request-latency histograms (queue wait, solve wall, end-to-end) and the
// per-solve structured log record.
func (s *Server) runJob(j *Job, ws *operon.Workspace) {
	queueWait := time.Since(j.enqueued)
	s.hQueueWait.RecordDuration(queueWait)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	s.setRunning(j)
	ctx, cancel := context.WithTimeout(s.baseCtx, j.timeout)
	defer cancel()
	// The span joins traces to logs through the request id; with the
	// default (discarding) sink only its attrs cost anything, and only
	// nanoseconds.
	sp := s.tracer.Span("request/solve", obs.LaneFlow, obs.S("request_id", j.reqID))
	s.tracer.Counter("http.solves_run").Inc()
	start := time.Now()
	res, err := s.solveContained(ctx, j, ws)
	solveDur := time.Since(start)
	s.hSolve.RecordDuration(solveDur)

	logAttrs := []any{
		"request_id", j.reqID,
		"job_id", j.ID,
		"design", j.design.Name,
		"mode", j.cfg.Mode.String(),
		"workers", j.cfg.Workers,
		"timeout_ms", j.timeout.Milliseconds(),
		"queue_ms", float64(queueWait) / float64(time.Millisecond),
		"solve_ms", float64(solveDur) / float64(time.Millisecond),
	}
	if err != nil {
		sp.End(obs.S("error", err.Error()))
		s.tracer.Counter("http.solve_errors").Inc()
		s.releaseFlight(j)
		s.log.Error("solve failed", append(logAttrs, "error", err.Error())...)
		s.hE2E.RecordDuration(time.Since(j.enqueued))
		s.finish(j, nil, err.Error(), http.StatusInternalServerError)
		return
	}
	sp.End(obs.S("stop_reason", string(res.StopReason)), obs.I("degraded", boolInt(res.Degraded)))
	if res.Degraded {
		s.tracer.Counter("http.degraded").Inc()
	}
	resp := s.responseOf(res, j, queueWait, solveDur)
	// Publish order matters: a non-degraded result enters the cache
	// BEFORE the flight key is released, so a request that misses the
	// flight table is guaranteed to hit the cache. Degraded results are
	// timing artifacts of this request's budget, never cached.
	if !res.Degraded {
		s.cachePut(j.fp, resp)
	}
	s.releaseFlight(j)
	s.log.Info("solve done", append(logAttrs,
		"degraded", res.Degraded,
		"stop_reason", string(res.StopReason),
		"power_mw", res.PowerMW,
	)...)
	s.hE2E.RecordDuration(time.Since(j.enqueued))
	s.finish(j, resp, "", 0)
}

// releaseFlight removes a leader from the flight table; joiners attached to
// it are woken afterwards by finish. The guard keeps a promoted
// successor's entry intact.
func (s *Server) releaseFlight(j *Job) {
	if !j.dedup {
		return
	}
	s.mu.Lock()
	if s.flights[j.fp] == j {
		delete(s.flights, j.fp)
	}
	s.mu.Unlock()
}

// boolInt maps a bool onto the 0/1 convention of numeric span attrs.
func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// responseOf projects an operon.Result onto the wire format.
func (s *Server) responseOf(res *operon.Result, j *Job, queueWait, elapsed time.Duration) *SolveResponse {
	return &SolveResponse{
		Design:     res.Design,
		Flow:       res.Flow,
		PowerMW:    res.PowerMW,
		Violations: res.Selection.Violations,
		HyperNets:  len(res.HyperNets),
		WDMsUsed:   res.WDMStats.FinalWDMs,
		Degraded:   res.Degraded,
		StopReason: string(res.StopReason),
		RequestID:  j.reqID,
		TimeoutMS:  j.timeout.Milliseconds(),
		QueueMS:    float64(queueWait) / float64(time.Millisecond),
		ElapsedMS:  float64(elapsed) / float64(time.Millisecond),
	}
}

// setRunning publishes the queued -> running transition under the server
// lock.
func (s *Server) setRunning(j *Job) {
	s.mu.Lock()
	j.State = JobRunning
	s.mu.Unlock()
}

// finish is the one terminal transition of every job: under the server lock
// it publishes the outcome — done with resp, or failed with errMsg and the
// HTTP status the failure maps to (0 = 500) — and releases the job's design,
// which nothing reads once the job is finished and which a pollable entry
// must not pin; then it wakes every waiter by closing done.
func (s *Server) finish(j *Job, resp *SolveResponse, errMsg string, status int) {
	s.mu.Lock()
	j.State = JobDone
	if resp == nil {
		j.State = JobFailed
	}
	j.Result = resp
	j.Error = errMsg
	j.failStatus = status
	j.design = signal.Design{}
	s.mu.Unlock()
	close(j.done)
}

// jobView returns a consistent copy of a job for serialisation.
func (s *Server) jobView(j *Job) Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Job{ID: j.ID, State: j.State, Result: j.Result, Error: j.Error}
}

// Handler builds the operond route table:
//
//	POST /solve         run a solve (sync, or async with {"async":true});
//	                    identical instances coalesce and hit the result cache
//	POST /solve/batch   run an array of solves in one scheduler pass with
//	                    within-batch dedup; positional results
//	GET  /jobs/{id}     poll an async job (or a sync one whose client left)
//	POST /sessions      create a sticky editing session (runs the cold solve)
//	POST /sessions/{id}/edit  apply an edit script, re-solve incrementally
//	GET  /sessions/{id}       session metadata + resolve latency quantiles
//	DELETE /sessions/{id}     drop the session
//	GET  /healthz       liveness, queue depth, in-flight solves, uptime;
//	                    503 once shutdown has begun (drain signal)
//	GET  /metrics       Prometheus text exposition (histograms included)
//	GET  /metrics.json  the same registry snapshot as JSON
//
// Every request is wrapped in the request-ID + structured-log middleware:
// the response carries X-Request-Id (honouring one supplied by the client)
// and one slog record per request is emitted with method, path, status,
// and duration.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/solve/batch", s.handleBatch)
	mux.HandleFunc("/jobs/", s.handleJob)
	mux.HandleFunc("/sessions", s.handleSessions)
	mux.HandleFunc("/sessions/", s.handleSession)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	return s.withRequestLog(mux)
}

// statusWriter records the status a handler wrote so the request log can
// report it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader implements http.ResponseWriter.
func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Write implements io.Writer, defaulting the status to 200 like net/http.
func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// withRequestLog is the request-ID + structured-log middleware. The ID is
// taken from the client's X-Request-Id when present (truncated to 64
// bytes), generated otherwise, stored back into the request header for
// downstream handlers, and echoed on the response. One slog record per
// request carries method, path, status, and wall time; solve-level detail
// (queue wait, stop reason) is logged by runJob under the same request_id.
func (s *Server) withRequestLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = fmt.Sprintf("r-%d", s.reqSeq.Add(1))
		} else if len(id) > 64 {
			id = id[:64]
		}
		r.Header.Set("X-Request-Id", id)
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.tracer.Counter("http.requests").Inc()
		if sw.status == http.StatusTooManyRequests {
			s.tracer.Counter("http.429").Inc()
		} else if sw.status >= 500 {
			s.tracer.Counter("http.5xx").Inc()
		}
		s.log.Info("request",
			"request_id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration_ms", float64(time.Since(start))/float64(time.Millisecond),
		)
	})
}

// reqPool recycles request-decode scratch across handler invocations, and
// bufPool the response-encode buffers: the handler path allocates neither at
// steady state, matching the workspace reuse of the solve path.
var (
	reqPool = sync.Pool{New: func() any { return new(SolveRequest) }}
	bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// writeJSONError writes a JSON error body with the given status; every
// handler error path goes through it so clients always see
// Content-Type: application/json.
func writeJSONError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON writes v with the given status, encoding through a pooled
// buffer so a failed encode can still become a 500 and the handler path
// reuses its scratch.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		body, _ := json.Marshal(map[string]string{"error": "encode response: " + err.Error()})
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write(body)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// decodeJSON decodes a request body into v under the server's body-size
// cap. On failure it writes the JSON error response (413 for an oversized
// body, 400 otherwise) and returns false.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body := r.Body
	if s.maxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
	}
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.tracer.Counter("http.body_too_large").Inc()
			writeJSONError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
			return false
		}
		writeJSONError(w, http.StatusBadRequest, "parse request: %v", err)
		return false
	}
	return true
}

// handleSolve validates the request and admits it through the dedup layer:
// cache hits answer immediately, identical in-flight instances coalesce,
// everything else enqueues a job (429 when the queue is full). The response
// is either the job id (async) or the blocking result.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	req := reqPool.Get().(*SolveRequest)
	defer reqPool.Put(req)
	*req = SolveRequest{}
	if !s.decodeJSON(w, r, req) {
		return
	}
	inst, err := s.resolveInstance(*req)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, status, err := s.admit(inst, r.Header.Get("X-Request-Id"), r.Context(), false)
	if err != nil {
		writeJSONError(w, status, "%v", err)
		return
	}
	if req.Async {
		writeJSON(w, http.StatusAccepted, s.jobView(j))
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The client went away; the job keeps running and stays pollable.
		writeJSONError(w, http.StatusRequestTimeout, "client cancelled; poll /jobs/%s", j.ID)
		return
	}
	// The answer goes to this caller only, so no one can poll for it.
	s.DropJob(j)
	v := s.jobView(j)
	if v.State == JobFailed {
		writeJSONError(w, s.failStatusOf(j), "%s", v.Error)
		return
	}
	writeJSON(w, http.StatusOK, v.Result)
}

// instance is a fully resolved solve input: the materialised design, the
// effective config, the clamped budget, and the content address the dedup
// layer keys on.
type instance struct {
	design  signal.Design
	cfg     operon.Config
	timeout time.Duration
	fp      [32]byte
}

// resolveInstance materialises a request into an instance (design lookup,
// mode parse, budget default/clamp, fingerprint).
func (s *Server) resolveInstance(req SolveRequest) (instance, error) {
	design, err := resolveDesign(req)
	if err != nil {
		return instance{}, err
	}
	cfg := s.cfg
	cfg.SkipWDM = req.SkipWDM
	if cfg.Mode, err = ParseMode(req.Mode); err != nil {
		return instance{}, err
	}
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = s.defaultTimeout
	}
	if s.maxTimeout > 0 && timeout > s.maxTimeout {
		timeout = s.maxTimeout
	}
	return instance{
		design:  design,
		cfg:     cfg,
		timeout: timeout,
		fp:      operon.Fingerprint(design, cfg),
	}, nil
}

// newJobLocked registers a job for an instance; the caller holds s.mu.
func (s *Server) newJobLocked(inst instance, reqID string) *Job {
	s.seq++
	j := &Job{
		ID:       fmt.Sprintf("job-%d", s.seq),
		State:    JobQueued,
		reqID:    reqID,
		design:   inst.design,
		cfg:      inst.cfg,
		timeout:  inst.timeout,
		enqueued: time.Now(),
		done:     make(chan struct{}),
		fp:       inst.fp,
	}
	s.jobs[j.ID] = j
	return j
}

// NewJob resolves a request into a registered, runnable job. reqID tags the
// job's telemetry; "" is valid (direct API use without the middleware). The
// job bypasses the dedup layer — callers that want coalescing and caching
// go through the handlers.
func (s *Server) NewJob(req SolveRequest, reqID string) (*Job, error) {
	inst, err := s.resolveInstance(req)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	j := s.newJobLocked(inst, reqID)
	s.mu.Unlock()
	return j, nil
}

// failStatusOf maps a failed job onto its HTTP status (500 unless the
// failure recorded a more specific one, e.g. 429 for a queue-full leader).
func (s *Server) failStatusOf(j *Job) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.failStatus != 0 {
		return j.failStatus
	}
	return http.StatusInternalServerError
}

// Timeout returns the budget resolved for the job (after default/clamp).
func (j *Job) Timeout() time.Duration { return j.timeout }

// DropJob unregisters a job: its ID stops resolving on GET /jobs/{id}.
// Anyone already holding the *Job (a waiting handler, a coalesced joiner)
// is unaffected.
func (s *Server) DropJob(j *Job) {
	s.mu.Lock()
	delete(s.jobs, j.ID)
	s.mu.Unlock()
}

// jobCount backs the jobs_tracked gauge.
func (s *Server) jobCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// resolveDesign materialises the request's input design.
func resolveDesign(req SolveRequest) (signal.Design, error) {
	if req.Bench != "" {
		spec, err := benchgen.SpecByName(req.Bench)
		if err != nil {
			return signal.Design{}, err
		}
		return benchgen.Generate(spec)
	}
	if req.Design == nil {
		return signal.Design{}, fmt.Errorf("request needs \"bench\" or \"design\"")
	}
	if err := req.Design.Validate(); err != nil {
		return signal.Design{}, err
	}
	return *req.Design, nil
}

// ParseMode maps the wire mode string onto operon.Mode ("" = lr).
func ParseMode(mode string) (operon.Mode, error) {
	switch mode {
	case "", "lr":
		return operon.ModeLR, nil
	case "ilp":
		return operon.ModeILP, nil
	case "greedy":
		return operon.ModeGreedy, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want lr, ilp or greedy)", mode)
	}
}

// handleJob serves GET /jobs/{id}. Only async jobs and sync jobs whose
// client went away are registered once finished; every other ID is 404.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeJSONError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, s.jobView(j))
}

// handleHealth serves GET /healthz: liveness, queue depth, in-flight
// solves, and uptime. Once shutdown has begun (Abort or Shutdown) it
// returns 503 with draining=true so load balancers stop routing new
// traffic while in-flight solves finish degrading.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	draining := s.draining.Load()
	if draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ok":             !draining,
		"draining":       draining,
		"queue_depth":    len(s.queue),
		"queue_cap":      cap(s.queue),
		"inflight":       s.inflight.Load(),
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format: every counter, gauge, and latency histogram of the registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	_ = obs.WritePrometheus(w, s.reg.Snapshot())
}

// handleMetricsJSON serves GET /metrics.json: the same registry snapshot
// as JSON. The "counters" key keeps the pre-Prometheus wire shape, so
// existing consumers (loadgen, the smoke tests) parse it
// unchanged; gauges and histograms ride alongside.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}
