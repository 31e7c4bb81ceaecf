// Package parallel provides the shared bounded worker pool every
// independent-per-item stage of the flow runs on: candidate generation,
// per-group signal processing, the crossing-loss table fill and Lagrangian
// pricing. Workers pull the next index from an atomic counter, so the
// per-item hand-off is one atomic add, with no lock or channel send, and
// items of a few microseconds still gain from a second worker. The WDM arc
// costing, about a microsecond per connection, runs serially.
//
// The pool guarantees deterministic behaviour regardless of worker count:
// callers write results by item index (never by completion order), and on
// failure ForEach always returns the error of the lowest-indexed failing
// item — exactly what a sequential loop would have returned — while
// cancelling all not-yet-dispatched work. A panic in fn fails its item the
// same way, and is re-raised on the calling goroutine as a *Panic once the
// pool has drained, where a recover (operond's solveContained) contains it.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Panic is the value the pool re-panics with when fn panicked: the item
// index (the lowest panicking or failing one, as for errors), the original
// panic value, and the stack of the goroutine fn panicked on.
type Panic struct {
	Index int
	Value any
	Stack []byte
}

// Error reports the index and value, then the worker's stack, so an
// unrecovered re-panic still shows where fn failed.
func (p *Panic) Error() string {
	return fmt.Sprintf("parallel: item %d panicked: %v\n\n%s", p.Index, p.Value, p.Stack)
}

// Workers resolves a worker-count knob: non-positive means one worker per
// CPU, and the count is clamped to the item count n.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Scratch is a per-worker scratch arena: a keyed bag of reusable buffers a
// stage can stash package-specific workspaces in (keyed by package name,
// fetched with a type assertion). A Scratch is handed to exactly one worker
// goroutine at a time by ForEachScratchContext, so its methods need no
// locking; it must not be shared across concurrently running workers.
type Scratch struct {
	slots map[string]any
}

// Get returns the scratch slot for key, creating it with mk on first use.
// The returned value is whatever mk produced the first time, so callers
// type-assert it to their package's workspace type. mk runs at most once
// per key per Scratch, which makes it a natural hook for workspace-creation
// counters (reuse rate = uses - creations).
func (s *Scratch) Get(key string, mk func() any) any {
	if s.slots == nil {
		s.slots = make(map[string]any)
	}
	v, ok := s.slots[key]
	if !ok {
		v = mk()
		s.slots[key] = v
	}
	return v
}

// Arena owns one Scratch per worker slot and hands the same slot to the
// same worker index on every ForEachScratchContext invocation, so per-worker
// workspaces persist across pool runs (across nets, LR iterations, and —
// when the Arena is held by a serving queue slot — across requests).
// The zero value is ready to use. Arena is safe for use from sequential
// pool invocations; the pool itself guarantees slot i is only touched by
// worker i while a run is in flight.
type Arena struct {
	mu        sync.Mutex
	scratches []*Scratch
}

// NewArena returns an empty arena; scratches are created on demand.
func NewArena() *Arena { return &Arena{} }

// grab returns the first w scratch slots, growing the arena as needed.
func (a *Arena) grab(w int) []*Scratch {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.scratches) < w {
		a.scratches = append(a.scratches, &Scratch{})
	}
	return a.scratches[:w]
}

// ForEachScratchContext is ForEach with the worker's pool index
// (0..Workers-1) and a per-worker *Scratch from the arena passed to fn
// alongside the item index; the sequential path is worker 0. Worker w
// always receives arena slot w, so buffers cached in a Scratch are reused
// across invocations without locks. A nil arena gets a throwaway one (no
// reuse across calls, but the per-call reuse within one pool run still
// applies). The determinism, cancellation and drain contracts of ForEach
// hold: the worker index must only feed telemetry, and scratch contents
// must only affect allocation behaviour, never results.
func ForEachScratchContext(ctx context.Context, a *Arena, n, workers int, fn func(worker int, s *Scratch, i int) error) error {
	if a == nil {
		a = NewArena()
	}
	sc := a.grab(Workers(workers, n))
	return forEach(ctx, n, workers, func(worker, i int) error { return fn(worker, sc[worker], i) })
}

// ForEach runs fn(i) for every i in [0,n) on at most Workers(workers,
// n) goroutines. The first error short-circuits: no new items are
// dispatched, in-flight calls finish, and the error of the lowest failing
// index is returned (deterministic across worker counts). Cancelling ctx
// likewise stops dispatch and returns ctx.Err() unless an item error takes
// precedence. The drain is deterministic: every dispatched fn call runs to
// completion before ForEach returns and every worker goroutine has
// exited by then, so cancellation never leaks goroutines or leaves an item
// half-processed — callers either see all per-index writes of an item or
// none. A panic in fn fails its item like an error; if that is the lowest
// failing index, ForEach re-panics with a *Panic after the drain.
//
// fn must confine its writes to per-index state (results[i]); the pool
// provides a happens-before edge between every fn call and ForEach's
// return, so no further synchronisation is needed for such writes.
func ForEach(ctx context.Context, n int, workers int, fn func(int) error) error {
	return forEach(ctx, n, workers, func(_, i int) error { return fn(i) })
}

// forEach is the shared pool core behind ForEach and ForEachScratchContext.
// With more than one worker, workers claim the next index from an atomic
// counter, so the hand-off is one atomic add per item; the calling goroutine
// is worker 0. Indices are
// claimed in ascending order and a claimed item always runs, so when item i
// fails every lower index has run or is running: the lowest failing index
// is the one a sequential loop would report.
func forEach(ctx context.Context, n int, workers int, fn func(worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := call(fn, 0, i); err != nil {
				return rethrow(err)
			}
		}
		return nil
	}

	r := &run{n: n, fn: fn, done: ctx.Done()}
	for w := 1; w < workers; w++ {
		r.wg.Add(1)
		go r.work(w)
	}
	r.work(0)
	r.wg.Wait()

	if r.firstErr != nil {
		return rethrow(r.firstErr)
	}
	return ctx.Err()
}

// run is the state of one forEach call, shared by its workers.
type run struct {
	n    int
	fn   func(worker, i int) error
	done <-chan struct{}
	next atomic.Int64 // next unclaimed index
	stop atomic.Bool  // an item failed: claim no more
	wg   sync.WaitGroup

	mu       sync.Mutex
	errIdx   int // lowest failing index, once firstErr is set
	firstErr error
}

// work claims and runs items until they run out, one fails or the context
// is done. Workers other than 0 run on their own goroutine.
func (r *run) work(worker int) {
	if worker > 0 {
		defer r.wg.Done()
	}
	for !r.stop.Load() {
		select {
		case <-r.done:
			return
		default:
		}
		i := int(r.next.Add(1) - 1)
		if i >= r.n {
			return
		}
		if err := call(r.fn, worker, i); err != nil {
			r.mu.Lock()
			if r.firstErr == nil || i < r.errIdx {
				r.errIdx, r.firstErr = i, err
			}
			r.mu.Unlock()
			r.stop.Store(true)
		}
	}
}

// call runs fn for one item and turns a panic into a *Panic error carrying
// the item index and this goroutine's stack, so a pool worker survives it,
// keeps draining, and the dispatcher never blocks on a dead worker.
func call(fn func(worker, i int) error, worker, i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &Panic{Index: i, Value: p, Stack: debug.Stack()}
		}
	}()
	return fn(worker, i)
}

// rethrow re-panics a recovered *Panic on the calling goroutine and returns
// any other error unchanged.
func rethrow(err error) error {
	if p, ok := err.(*Panic); ok {
		panic(p)
	}
	return err
}
