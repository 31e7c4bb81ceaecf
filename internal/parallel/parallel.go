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
	return ForEachWorker(ctx, n, workers, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach with the worker's pool index (0..Workers(workers,
// n)-1) passed to fn alongside the item index; the calling goroutine, and so
// the whole sequential path, is worker 0. Each worker runs its items one at a
// time, so a caller may keep per-worker scratch indexed by worker and touch
// it without locks. The determinism, cancellation and drain contracts of
// ForEach hold: the worker index may only feed telemetry and scratch reuse,
// never results.
//
// With more than one worker, workers claim the next index from an atomic
// counter, so the hand-off is one atomic add per item. Indices are claimed
// in ascending order and a claimed item always runs, so when item i fails
// every lower index has run or is running: the lowest failing index is the
// one a sequential loop would report.
func ForEachWorker(ctx context.Context, n int, workers int, fn func(worker, i int) error) error {
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

// run is the state of one ForEachWorker call, shared by its workers.
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
