// Package obs is the flow-wide observability layer: wall-clock spans over
// the stages and per-net work of the OPERON flow, named goroutine-safe
// counters for the solver substrate (LP pivots, branch-and-bound nodes,
// min-cost-flow augmentations, cache hits), and instant events carrying
// solver iterates. Everything funnels into a pluggable Sink; three
// implementations ship with the package:
//
//   - Nop discards everything (counters still accumulate and can be
//     snapshotted without paying for span recording);
//   - Collector retains spans/events/counters in memory for queries;
//   - ChromeWriter streams Chrome trace-event JSON loadable by
//     chrome://tracing and Perfetto, with worker-pool lanes rendered as
//     parallel thread tracks.
//
// The entire API is nil-safe: a nil *Tracer (the Config.Obs default) makes
// every Span/Event/Counter call a no-op without allocation, so the
// instrumented hot paths cost nearly nothing when observability is off —
// the package benchmarks pin the per-call overhead, and the root package's
// BenchmarkObsOverhead measures the end-to-end cost (budget < 2%).
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LaneFlow is the lane (Chrome trace "thread") of the main flow goroutine;
// worker-pool goroutines use WorkerLane(w).
const LaneFlow = 0

// WorkerLane maps a parallel.ForEachWorker worker index to its lane ID, so
// the Config.Workers fan-out renders as parallel tracks in the trace.
func WorkerLane(worker int) int { return worker + 1 }

// LaneName returns the display name of a lane (used for Chrome thread
// metadata).
func LaneName(lane int) string {
	if lane == LaneFlow {
		return "flow"
	}
	return "worker-" + itoa(lane-1)
}

// itoa avoids strconv for the tiny lane numbers (no import weight; lanes
// are small non-negative integers).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 && i > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Attr is one span/event attribute: a key with either a numeric or a string
// value (a tagged union rather than interface{} so building attribute lists
// does not box).
type Attr struct {
	// Key is the attribute name.
	Key string
	// Str is the string value; meaningful when IsNum is false.
	Str string
	// Num is the numeric value; meaningful when IsNum is true.
	Num float64
	// IsNum selects between Num and Str.
	IsNum bool
}

// F builds a float attribute.
func F(key string, v float64) Attr { return Attr{Key: key, Num: v, IsNum: true} }

// I builds an integer attribute (stored as a float, which is exact for the
// counts the flow emits).
func I(key string, v int) Attr { return Attr{Key: key, Num: float64(v), IsNum: true} }

// S builds a string attribute.
func S(key, v string) Attr { return Attr{Key: key, Str: v} }

// Tracer is the per-run instrumentation hub. Create one with New and pass
// it through Config.Obs; a nil Tracer is valid and turns every call into a
// no-op. All methods are safe for concurrent use by worker goroutines.
type Tracer struct {
	sink  Sink
	epoch time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	closed   bool
}

// New returns a Tracer recording into sink (nil means Nop). The tracer's
// clock epoch is the moment of creation; all span/event timestamps are
// offsets from it.
func New(sink Sink) *Tracer {
	if sink == nil {
		sink = Nop{}
	}
	return &Tracer{
		sink:     sink,
		epoch:    time.Now(),
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
	}
}

// now returns the tracer-relative timestamp.
func (t *Tracer) now() time.Duration { return time.Since(t.epoch) }

// Span is an in-flight span handle. The zero Span (from a nil Tracer) is
// valid: End is a no-op returning 0.
type Span struct {
	t     *Tracer
	name  string
	lane  int
	start time.Duration
	attrs []Attr
}

// Span starts a span on the given lane. Attributes passed here are merged
// with those passed to End.
func (t *Tracer) Span(name string, lane int, attrs ...Attr) Span {
	if t == nil {
		return Span{}
	}
	var as []Attr
	if len(attrs) > 0 {
		as = append(as, attrs...)
	}
	return Span{t: t, name: name, lane: lane, start: t.now(), attrs: as}
}

// End closes the span, delivers it to the sink, and returns its duration as
// measured by the tracer clock (so derived views such as StageTimes agree
// exactly with the recorded trace).
func (s Span) End(attrs ...Attr) time.Duration {
	if s.t == nil {
		return 0
	}
	dur := s.t.now() - s.start
	as := s.attrs
	if len(attrs) > 0 {
		as = append(as, attrs...)
	}
	s.t.sink.Span(SpanRecord{Name: s.name, Lane: s.lane, Start: s.start, Dur: dur, Attrs: as})
	return dur
}

// Event records an instant event (solver iterates, branch-and-bound nodes).
func (t *Tracer) Event(name string, lane int, attrs ...Attr) {
	if t == nil {
		return
	}
	var as []Attr
	if len(attrs) > 0 {
		as = append([]Attr(nil), attrs...)
	}
	t.sink.Event(EventRecord{Name: name, Lane: lane, Ts: t.now(), Attrs: as})
}

// Counter is a named atomic counter. A nil *Counter (from a nil Tracer) is
// valid: Add/Inc are no-ops and Value returns 0, so hot loops increment
// unconditionally without branching on the tracer.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the counter's registered name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Counter returns the counter registered under name, creating it on first
// use. The returned pointer is stable for the tracer's lifetime — callers
// fetch it once per solve and increment it lock-free afterwards.
func (t *Tracer) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.counters[name]
	if !ok {
		c = &Counter{name: name}
		t.counters[name] = c
	}
	return c
}

// Histogram returns the latency histogram registered under name, creating
// it with the default LatencyBounds on first use. Like Counter, the
// returned pointer is stable for the tracer's lifetime and recording is
// lock-free; a nil tracer returns a nil (no-op) histogram. All histograms
// of a tracer share the default bounds, so any two are merge-able.
func (t *Tracer) Histogram(name string) *Histogram {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.hists[name]
	if !ok {
		h = NewHistogram(name, nil)
		t.hists[name] = h
	}
	return h
}

// HistogramSnapshots returns the current histogram states sorted by name
// (deterministic for JSON diffs), skipping histograms that never recorded.
func (t *Tracer) HistogramSnapshots() []HistogramSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	snaps := make([]HistogramSnapshot, 0, len(t.hists))
	for _, h := range t.hists {
		if s := h.Snapshot(); s.Count > 0 {
			snaps = append(snaps, s)
		}
	}
	t.mu.Unlock()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Name < snaps[j].Name })
	return snaps
}

// Snapshot returns the current counter values sorted by name (deterministic
// for JSON diffs).
func (t *Tracer) Snapshot() []CounterValue {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	vals := make([]CounterValue, 0, len(t.counters))
	for _, c := range t.counters {
		vals = append(vals, CounterValue{Name: c.name, Value: c.Value()})
	}
	t.mu.Unlock()
	sort.Slice(vals, func(i, j int) bool { return vals[i].Name < vals[j].Name })
	return vals
}

// Close flushes the counter snapshot to the sink and closes the sink if it
// implements io.Closer (the ChromeWriter finishes its JSON array there).
// Close is idempotent; a nil Tracer closes successfully.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	t.sink.Counters(t.Snapshot())
	if c, ok := t.sink.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}
