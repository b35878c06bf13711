package host

import (
	"context"
	"sync"
	"sync/atomic"

	"fastmatch/graph"
	"fastmatch/internal/cst"
	"fastmatch/internal/faultinject"
	"fastmatch/internal/order"
)

// runControl carries one Match call's cancellation, result-limit and
// streaming state across every layer that loops: the partition producer
// polls cancelled between restrict steps, the kernel polls it between batch
// rounds and reserves result slots through take, and the CPU δ-share drain
// does both per embedding. One control is shared by all goroutines of a
// call, which is what makes Limit exact (min(Limit, total) embeddings are
// counted no matter how many workers race for the last slots) and Emit
// serialized.
type runControl struct {
	done        <-chan struct{} // ctx.Done(); nil when the context can never fire
	ctxErr      func() error
	limit       int64
	taken       atomic.Int64
	stopped     atomic.Bool
	stopCh      chan struct{} // closed by halt; lets blocked waits observe non-ctx stops
	stopOnce    sync.Once
	interrupted atomic.Bool // the context fired while work remained

	emitMu  sync.Mutex
	emit    func(graph.Embedding) error
	emitErr error // guarded by emitMu

	// Fault-tolerance state: the injector evaluated at the kernel and
	// δ-share sites (nil injects nothing), the resolved retry policy, and
	// the run's fault-handling tallies.
	faults *faultinject.Injector
	retry  RetryPolicy
	fstats faultStats
}

func newRunControl(ctx context.Context, cfg Config) *runControl {
	ct := &runControl{
		limit:  cfg.Limit,
		emit:   cfg.Emit,
		stopCh: make(chan struct{}),
		faults: cfg.Faults,
		retry:  cfg.Retry.withDefaults(),
	}
	if ctx != nil {
		ct.done = ctx.Done()
		ct.ctxErr = ctx.Err
	}
	return ct
}

// halt records that the run stopped — context, limit or emit failure — and
// closes stopCh so goroutines blocked in a select (a pool acquire) observe
// stops that have no context channel behind them.
func (ct *runControl) halt() {
	ct.stopped.Store(true)
	ct.stopOnce.Do(func() { close(ct.stopCh) })
}

// active reports whether any per-call feature — a context that can fire, a
// limit or a stream — needs the result-slot reservation and the per-embedding
// budget checks. An inactive control skips them, so a plain Match counts on
// the allocation-free paths.
func (ct *runControl) active() bool {
	return ct.done != nil || ct.limit > 0 || ct.emit != nil
}

// cancelled is the pipeline's stop poll: true once the context fired, the
// limit was exhausted, or the streaming callback returned an error.
func (ct *runControl) cancelled() bool {
	if ct.stopped.Load() {
		return true
	}
	if ct.done != nil {
		select {
		case <-ct.done:
			ct.interrupted.Store(true)
			ct.halt()
			return true
		default:
		}
	}
	return false
}

// take reserves one result slot. Refusal (the run is cancelled, or the
// reservation would exceed Limit) stops the pipeline; every granted
// reservation corresponds to exactly one counted embedding, so the final
// count is deterministic.
func (ct *runControl) take() bool {
	if ct.cancelled() {
		return false
	}
	if ct.limit > 0 && ct.taken.Add(1) > ct.limit {
		ct.halt()
		return false
	}
	return true
}

// acquirePool takes one token from a shared worker pool, abandoning the
// wait if the run stops first — the context firing, the limit filling, or
// the stream callback failing. On a saturated multi-tenant budget a call
// whose work is already over must return promptly, not queue behind other
// tenants' kernel runs. Returns false when the run stopped. With neither
// stop source armed (done nil, stopCh never closed — a plain Match) the
// select reduces to the blocking send.
func (ct *runControl) acquirePool(pool chan struct{}) bool {
	select {
	case pool <- struct{}{}:
		return true
	case <-ct.done:
		ct.interrupted.Store(true)
		ct.halt()
		return false
	case <-ct.stopCh:
		return false
	}
}

// send streams one embedding to the caller. Calls are serialized — the
// callback never runs concurrently with itself — and a callback error stops
// the run.
func (ct *runControl) send(e graph.Embedding) bool {
	if ct.emit == nil {
		return true
	}
	ct.emitMu.Lock()
	defer ct.emitMu.Unlock()
	if ct.emitErr != nil {
		return false
	}
	if err := ct.emit(e); err != nil {
		ct.emitErr = err
		ct.halt()
		return false
	}
	return true
}

// partial reports whether the run stopped before exhausting the search
// space. A run that completes all its work returns false even if the
// context expires afterwards — a completed-then-cancelled call keeps its
// full counts.
func (ct *runControl) partial() bool { return ct.stopped.Load() }

// abortive reports whether the stop threw work away: a context firing or a
// failed stream callback aborts kernels mid-flight, whereas a limit stop
// just means the result budget was filled — every kernel's delivered
// embeddings were wanted, so those runs are not tallied as aborts.
func (ct *runControl) abortive() bool {
	if ct.interrupted.Load() {
		return true
	}
	ct.emitMu.Lock()
	defer ct.emitMu.Unlock()
	return ct.emitErr != nil
}

// err returns what interrupted the run: the context's error when
// cancellation fired mid-run, else the streaming callback's error, else nil
// — a limit stop is a bounded query succeeding, not a failure.
func (ct *runControl) err() error {
	if ct.interrupted.Load() && ct.ctxErr != nil {
		if err := ct.ctxErr(); err != nil {
			return err
		}
	}
	ct.emitMu.Lock()
	defer ct.emitMu.Unlock()
	return ct.emitErr
}

// enumerators pools prepared cst.Enumerator state across δ-share drains —
// and across Match calls, the pool being package-level — so steady-state
// serving re-derives no per-drain check lists and the count-only paths run
// allocation-free.
var enumerators = sync.Pool{New: func() any { return new(cst.Enumerator) }}

// enumerateShare drains one CPU δ-share partition under the control's
// budget and returns the number of embeddings counted. The count-only paths
// never materialise an embedding; the emitting paths keep the
// fresh-embedding contract (callers may retain what they receive).
//
// The drain runs under the run's recover barrier: a panicking enumeration
// (or an injected fault at the δ-share site) becomes a *KernelPanicError or
// *DeviceFaultError, and the pooled Enumerator the panic may have left
// inconsistent is dropped instead of being returned to the pool. The fault
// is evaluated before the enumerator runs, so a faulted drain has consumed
// no result slots and emitted nothing.
//
//fastmatch:recoverbarrier
func enumerateShare(ct *runControl, p *cst.CST, o order.Order, collect bool, sink *[]graph.Embedding) (n int64, err error) {
	e := enumerators.Get().(*cst.Enumerator)
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(faultinject.SiteEnumerate, r)
			return
		}
		e.Release()
		enumerators.Put(e)
	}()
	if out := ct.faults.Eval(faultinject.SiteEnumerate); out.Fault {
		if out.Kind == faultinject.Panic {
			panic(out.Error())
		}
		// The CPU path has no retry semantics — any injected fault here is
		// terminal, reported as a fault-class error so Match keeps the
		// partial counts.
		return 0, &DeviceFaultError{Site: faultinject.SiteEnumerate, Attempts: 1, Err: out.Error()}
	}
	e.Reset(p, o)
	if !ct.active() {
		if !collect {
			return e.Run(nil), nil
		}
		return e.Run(func(em graph.Embedding) bool {
			*sink = append(*sink, em)
			return true
		}), nil
	}
	if !collect && ct.emit == nil {
		return e.RunCounted(ct.take), nil
	}
	e.Run(func(em graph.Embedding) bool {
		if !ct.take() {
			return false
		}
		n++
		if collect {
			*sink = append(*sink, em)
		}
		return ct.send(em)
	})
	return n, nil
}
