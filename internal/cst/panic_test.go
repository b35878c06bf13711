package cst

import (
	"sync/atomic"
	"testing"
	"time"
)

// runWithPanicGuard runs fn on its own goroutine and returns the value it
// panicked with (nil for a clean return), failing the test if fn is still
// blocked after the timeout — the pre-barrier deadlock this file pins down.
func runWithPanicGuard(t *testing.T, timeout time.Duration, fn func()) any {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		fn()
	}()
	select {
	case r := <-done:
		return r
	case <-time.After(timeout):
		t.Fatalf("partitioner still blocked after %v: worker panic deadlocked the drain", timeout)
		return nil
	}
}

// TestWorkerPanicOrderedDrainNoDeadlock: a panic inside a speculative
// restrict task must not strand the ordered drain. Before the recover
// barrier the dying worker skipped both its pool bookkeeping and the
// close of its split-tree ready channel, so the caller's drain — and every
// sibling worker waiting on the pool condition — blocked forever. Now the
// node's ready close is deferred, the pool aborts like a cancellation, and
// the panic is re-thrown on the caller once the workers have quiesced, as a
// *WorkerPanic carrying the original value and the worker's stack.
func TestWorkerPanicOrderedDrainNoDeadlock(t *testing.T) {
	c, o, cfg := ldbcCST(t, "q3")
	var fired atomic.Bool
	testOrderedHook = func(event string) {
		if event == "chunk-restrict" && fired.CompareAndSwap(false, true) {
			panic("boom in restrict task")
		}
	}
	defer func() { testOrderedHook = nil }()
	r := runWithPanicGuard(t, 30*time.Second, func() {
		PartitionConcurrent(c, o, cfg, 4, func(p *CST) {})
	})
	wp, ok := r.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %v (%T), want *WorkerPanic", r, r)
	}
	if wp.Value != "boom in restrict task" {
		t.Fatalf("WorkerPanic value = %v, want the original panic value", wp.Value)
	}
	if len(wp.Stack) == 0 {
		t.Fatal("WorkerPanic carries no worker stack")
	}
}

// TestDrainPanicQuiescesWorkers: a panic thrown by the ordered drain's own
// process callback (the caller's goroutine) aborts the speculating workers
// before propagating, so no pool goroutine outlives the call.
func TestDrainPanicQuiescesWorkers(t *testing.T) {
	c, o, cfg := ldbcCST(t, "q1")
	r := runWithPanicGuard(t, 30*time.Second, func() {
		first := true
		PartitionConcurrent(c, o, cfg, 4, func(p *CST) {
			if first {
				first = false
				panic("boom in drain process")
			}
		})
	})
	if r != "boom in drain process" {
		t.Fatalf("recovered %v, want the drain's own panic value", r)
	}
}
