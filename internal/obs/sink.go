package obs

import "time"

// SpanRecord is a completed span as delivered to a Sink. Start and Dur are
// offsets from the tracer epoch.
type SpanRecord struct {
	// Name is the span name ("stage/process", "net/candidates", ...).
	Name string
	// Lane is the display lane (LaneFlow or a WorkerLane).
	Lane int
	// Start is the span's start offset from the tracer epoch.
	Start time.Duration
	// Dur is the span's duration.
	Dur time.Duration
	// Attrs carries the merged start- and end-time attributes.
	Attrs []Attr
}

// EventRecord is an instant event as delivered to a Sink.
type EventRecord struct {
	// Name is the event name ("lr/iterate", "ilp/node", ...).
	Name string
	// Lane is the display lane (LaneFlow or a WorkerLane).
	Lane int
	// Ts is the event's offset from the tracer epoch.
	Ts time.Duration
	// Attrs carries the event attributes.
	Attrs []Attr
}

// CounterValue is one counter's snapshot.
type CounterValue struct {
	// Name is the counter's registered name.
	Name string `json:"name"`
	// Value is the count at snapshot time.
	Value int64 `json:"value"`
}

// Sink receives the tracer's records. Implementations must be safe for
// concurrent use: worker-pool goroutines deliver spans concurrently.
// Counters is called once, with the final sorted snapshot, when the tracer
// is closed. A sink additionally implementing io.Closer is closed by
// Tracer.Close after the counter flush.
type Sink interface {
	// Span receives a completed span.
	Span(SpanRecord)
	// Event receives an instant event.
	Event(EventRecord)
	// Counters receives the final counter snapshot at tracer close.
	Counters([]CounterValue)
}

// Nop is the discard sink: spans and events vanish, and only the tracer's
// own counter registry accumulates state. It is the cheapest way to collect
// a counter snapshot without retaining the trace.
type Nop struct{}

// Span implements Sink.
func (Nop) Span(SpanRecord) {}

// Event implements Sink.
func (Nop) Event(EventRecord) {}

// Counters implements Sink.
func (Nop) Counters([]CounterValue) {}

// multi fans records out to several sinks in order.
type multi []Sink

// Multi returns a Sink delivering every record to each of sinks in order.
// Closing the tracer closes every sink that implements io.Closer; the first
// error wins.
func Multi(sinks ...Sink) Sink { return multi(sinks) }

// Span implements Sink.
func (m multi) Span(s SpanRecord) {
	for _, sk := range m {
		sk.Span(s)
	}
}

// Event implements Sink.
func (m multi) Event(e EventRecord) {
	for _, sk := range m {
		sk.Event(e)
	}
}

// Counters implements Sink.
func (m multi) Counters(cs []CounterValue) {
	for _, sk := range m {
		sk.Counters(cs)
	}
}

// Close implements io.Closer.
func (m multi) Close() error {
	var first error
	for _, sk := range m {
		if c, ok := sk.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
