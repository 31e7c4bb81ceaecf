package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 237
		seen := make([]int32, n)
		if err := ForEach(context.Background(), n, workers, func(i int) error {
			atomic.AddInt32(&seen[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachWorkerIDsInRangeAndComplete(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		n := 97
		seen := make([]int32, n)
		byWorker := make([]int32, workers)
		if err := ForEachWorker(context.Background(), n, workers, func(w, i int) error {
			if w < 0 || w >= workers {
				return fmt.Errorf("worker %d out of range", w)
			}
			atomic.AddInt32(&byWorker[w], 1)
			atomic.AddInt32(&seen[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		var total int32
		for _, c := range byWorker {
			total += c
		}
		if total != int32(n) {
			t.Fatalf("workers=%d: worker counts sum to %d", workers, total)
		}
		// The sequential path attributes everything to worker 0.
		if workers == 1 && byWorker[0] != int32(n) {
			t.Fatal("sequential path did not report worker 0")
		}
	}
}

func TestForEachDeterministicResults(t *testing.T) {
	n := 100
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 3, 16} {
		got := make([]int, n)
		if err := ForEach(context.Background(), n, workers, func(i int) error {
			got[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got[%d]=%d", workers, i, got[i])
			}
		}
	}
}

// TestForEachShortCircuits is the regression test for the old eachNet
// behaviour, which kept draining every remaining item after the first
// error: a poisoned item must cancel the outstanding work.
func TestForEachShortCircuits(t *testing.T) {
	const n = 10000
	for _, workers := range []int{1, 4} {
		var calls int32
		err := ForEach(context.Background(), n, workers, func(i int) error {
			atomic.AddInt32(&calls, 1)
			if i == 10 {
				return fmt.Errorf("poisoned net %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "poisoned net 10" {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		// In-flight items may finish, but the bulk of the 10k items must
		// never have been dispatched.
		if c := atomic.LoadInt32(&calls); c > n/10 {
			t.Fatalf("workers=%d: %d of %d items ran after poisoning", workers, c, n)
		}
	}
}

// TestForEachLowestIndexError checks the error is deterministic across
// worker counts: always the lowest failing index, as a sequential loop
// would report.
func TestForEachLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for trial := 0; trial < 20; trial++ {
			err := ForEach(context.Background(), 500, workers, func(i int) error {
				if i == 41 || i == 42 || i == 400 {
					return fmt.Errorf("fail %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "fail 41" {
				t.Fatalf("workers=%d: err = %v, want fail 41", workers, err)
			}
		}
	}
}

// TestForEachPanicReachesCaller panics inside fn at several indices: the
// pool must drain, re-panic on the calling goroutine with the lowest
// panicking index (as for errors), carry the worker's stack, and leave no
// worker goroutine behind.
func TestForEachPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		var p any
		func() {
			defer func() { p = recover() }()
			_ = ForEach(context.Background(), 500, workers, func(i int) error {
				if i == 41 || i == 42 || i == 400 {
					panic(fmt.Sprintf("boom %d", i))
				}
				return nil
			})
		}()
		pp, ok := p.(*Panic)
		if !ok {
			t.Fatalf("workers=%d: recovered %T %v, want *Panic", workers, p, p)
		}
		if pp.Index != 41 || pp.Value != "boom 41" {
			t.Fatalf("workers=%d: panic index %d value %v, want 41 / boom 41", workers, pp.Index, pp.Value)
		}
		if !strings.Contains(string(pp.Stack), "TestForEachPanicReachesCaller") {
			t.Fatalf("workers=%d: stack does not show the panicking fn:\n%s", workers, pp.Stack)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines after the panic, %d before", workers, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestForEachContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls int32
	err := ForEach(ctx, 100000, 2, func(i int) error {
		if atomic.AddInt32(&calls, 1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c := atomic.LoadInt32(&calls); c > 1000 {
		t.Fatalf("%d items ran after cancellation", c)
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestWorkers(t *testing.T) {
	if w := Workers(4, 2); w != 2 {
		t.Errorf("Workers(4,2) = %d", w)
	}
	if w := Workers(2, 100); w != 2 {
		t.Errorf("Workers(2,100) = %d", w)
	}
	if w := Workers(0, 100); w < 1 {
		t.Errorf("Workers(0,100) = %d", w)
	}
}
