package host

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"fastmatch/internal/core"
	"fastmatch/internal/cst"
	"fastmatch/internal/faultinject"
	"fastmatch/internal/fpgasim"
	"fastmatch/internal/order"
)

// RetryPolicy bounds the exponential backoff applied to transient device
// faults (fpgasim.ErrTransient — injected PCIe hiccups and failed kernel
// launches). Attempt n waits min(Base·2ⁿ, Cap) before retrying, up to Max
// retries; the wait is interruptible by the run's cancellation. The zero
// value means the defaults below; Max < 0 disables retries entirely (every
// transient fault is terminal).
//
// Retries never change results: a transient fault fires before the kernel
// does any work, so re-running it cannot double-count or double-emit.
type RetryPolicy struct {
	Max  int
	Base time.Duration
	Cap  time.Duration
}

// Default retry bounds: three retries spread over a few milliseconds —
// enough to ride out a modelled hiccup, bounded enough that a card failing
// hard degrades the call fast.
const (
	DefaultRetryMax  = 3
	DefaultRetryBase = time.Millisecond
	DefaultRetryCap  = 50 * time.Millisecond
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Max < 0 {
		return RetryPolicy{Max: 0}
	}
	if p.Max == 0 {
		p.Max = DefaultRetryMax
	}
	if p.Base <= 0 {
		p.Base = DefaultRetryBase
	}
	if p.Cap <= 0 {
		p.Cap = DefaultRetryCap
	}
	return p
}

// backoff returns the wait before retry attempt n (0-based).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.Base
	for i := 0; i < attempt && d < p.Cap; i++ {
		d *= 2
	}
	if d > p.Cap {
		d = p.Cap
	}
	return d
}

// KernelPanicError reports a panic recovered inside the pipeline — a kernel
// execution, a CPU δ-share enumeration, or the partition producer. The
// panic is isolated to the work item that raised it: pooled scratch state
// it may have corrupted is discarded instead of returned, sibling workers
// are unaffected, and the Match call returns its partial Report with this
// error instead of crashing the process.
type KernelPanicError struct {
	// Site names where the panic surfaced: faultinject.SiteKernel,
	// faultinject.SiteEnumerate, or "partition".
	Site string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (e *KernelPanicError) Error() string {
	return fmt.Sprintf("host: panic in %s: %v", e.Site, e.Value)
}

// DeviceFaultError reports a device fault the retry budget could not
// absorb: the site kept failing through Attempts attempts (the first try
// plus the policy's retries). The run returns its partial Report with this
// error — the degraded-run contract (identical counts) only covers faults
// that retry or redistribution could absorb.
type DeviceFaultError struct {
	// Site is the faulting site: faultinject.SiteKernel,
	// faultinject.SiteEnumerate, or for staging the faultinject.SiteDeviceStage
	// of the last card tried.
	Site string
	// Attempts counts tries made, the first plus every retry.
	Attempts int
	// Err is the final attempt's error.
	Err error
}

func (e *DeviceFaultError) Error() string {
	return fmt.Sprintf("host: %s failed after %d attempts: %v", e.Site, e.Attempts, e.Err)
}

func (e *DeviceFaultError) Unwrap() error { return e.Err }

// errRunHalted reports that a work item was abandoned because the run
// stopped while it was waiting — for card DRAM, or backing off between retry
// attempts. It is a skip signal, not a failure: the control's own state (or
// the pipeline's first error) carries the reason.
var errRunHalted = errors.New("host: work abandoned: run halted")

// errAllDevicesDead reports that no healthy card remains to stage on; the
// caller degrades the partition to the CPU enumeration path.
var errAllDevicesDead = errors.New("host: all devices failed")

// isFaultError reports whether err is a fault-class failure — a recovered
// panic or an exhausted retry budget — for which Match keeps the partial
// Report (counts covering the work done) instead of discarding it.
func isFaultError(err error) bool {
	var pe *KernelPanicError
	var de *DeviceFaultError
	return errors.As(err, &pe) || errors.As(err, &de)
}

// isTransientFault reports whether err is retryable: an injected transient
// device fault or kernel-launch fault.
func isTransientFault(err error) bool {
	return errors.Is(err, fpgasim.ErrTransient) || errors.Is(err, faultinject.ErrInjected)
}

// newPanicError wraps a recovered panic value as a KernelPanicError,
// capturing the recovering goroutine's stack.
func newPanicError(site string, r any) *KernelPanicError {
	return &KernelPanicError{Site: site, Value: r, Stack: debug.Stack()}
}

// faultStats aggregates a run's fault-handling activity across goroutines;
// folded into the Report once the pipelines drain.
type faultStats struct {
	retries       atomic.Int64
	deviceDeaths  atomic.Int64
	redistributed atomic.Int64
}

func (fs *faultStats) fold(rep *Report) {
	rep.Retries += fs.retries.Load()
	rep.DeviceFailures += int(fs.deviceDeaths.Load())
	rep.Redistributed += int(fs.redistributed.Load())
}

// sleep waits d, abandoning the wait when the run stops first; it reports
// whether the run is still live. With no context armed the timer is the
// only wake source, exactly like a plain time.Sleep.
func (ct *runControl) sleep(d time.Duration) bool {
	if d <= 0 {
		return !ct.cancelled()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return !ct.cancelled()
	case <-ct.done:
		ct.interrupted.Store(true)
		ct.halt()
		return false
	case <-ct.stopCh:
		return false
	}
}

// stage wraps the card scan with the worker-level retry loop: the scan runs
// under the device mutex and cannot sleep there, so a transient fault
// surfaces here, where the worker backs off outside the lock and rescans (a
// rescan may land on a different card — that is redistribution working, not
// a bug). Device death is handled inside the scan; non-fault failures (DRAM
// overflow keeps its hard-failure semantics) return immediately; an
// exhausted retry budget returns a *DeviceFaultError naming the last card
// tried.
func (p *pipeline) stage(piece *cst.CST) (*fpgasim.Device, error) {
	for attempt := 0; ; attempt++ {
		if p.halted() {
			return nil, errRunHalted
		}
		dev, err := p.scanCards(piece)
		if err == nil || !isTransientFault(err) {
			return dev, err
		}
		if attempt >= p.ct.retry.Max {
			return nil, &DeviceFaultError{Site: faultinject.SiteDeviceStage(dev.ID), Attempts: attempt + 1, Err: err}
		}
		p.ct.fstats.retries.Add(1)
		if !p.ct.sleep(p.ct.retry.backoff(attempt)) {
			return nil, errRunHalted
		}
	}
}

// scanCards stages piece on the healthy card with the least accumulated
// work, falling through to the next one when a card dies or has no room, and
// waiting for a release when none has room but pieces are in flight. On a
// staging error it also returns the card that raised it, so an exhausted
// retry budget can name the site. It fails only when the piece would not fit
// an idle card (or the card faulted with nothing in flight) — which on one
// goroutine, where nothing is ever in flight, is every error, at once.
func (p *pipeline) scanCards(piece *cst.CST) (*fpgasim.Device, error) {
	p.devMu.Lock()
	defer p.devMu.Unlock()
	for {
		// Re-checked on every wake-up: a halted run stops staging new pieces
		// (in-flight kernels abort between rounds and release their DRAM, so
		// waiters always wake).
		if p.halted() {
			return nil, errRunHalted
		}
		// Try healthy cards in ascending accumulated-load order via a
		// selection scan — alloc-free under the contended lock, and NumFPGAs
		// is tiny (the bitmask caps it at 64 cards, far beyond any modelled
		// deployment).
		var tried uint64
		var last *fpgasim.Device
		var lastErr error
		for t := 0; t < len(p.devices) && t < 64; t++ {
			best := -1
			for i, d := range p.devices {
				if i >= 64 || tried&(1<<uint(i)) != 0 || !d.Healthy() {
					continue
				}
				if best < 0 || d.Busy()+p.transfer[i] < p.devices[best].Busy()+p.transfer[best] {
					best = i
				}
			}
			if best < 0 {
				break // every healthy card tried
			}
			tried |= 1 << uint(best)
			dur, err := p.devices[best].StageDRAM(piece.SizeBytes())
			if err == nil {
				p.transfer[best] += dur
				p.inflight++
				return p.devices[best], nil
			}
			if errors.Is(err, fpgasim.ErrDeviceFailed) {
				// The death moment — the card was healthy when picked; scan
				// on across the survivors.
				p.ct.fstats.deviceDeaths.Add(1)
				continue
			}
			// Transient faults and DRAM overflows both land here: with
			// nothing in flight the error goes to the caller (which backs off
			// and retries a transient outside this lock); otherwise wait for
			// a release and rescan.
			last, lastErr = p.devices[best], err
		}
		if lastErr == nil {
			// No healthy card, or every card scanned died under us. Dead
			// cards never come back mid-run, so the caller degrades the piece
			// to the CPU enumeration path instead of waiting on releases that
			// cannot help.
			return nil, errAllDevicesDead
		}
		if p.inflight == 0 {
			return last, lastErr
		}
		p.devCond.Wait()
	}
}

// release retires a staged piece: the kernel's cycles are charged to the
// card (as an abort when the run threw the work away), its DRAM is freed, and
// a worker waiting for room is woken.
func (p *pipeline) release(dev *fpgasim.Device, piece *cst.CST, cycles int64, aborted bool) {
	p.devMu.Lock()
	if cycles > 0 {
		if aborted {
			dev.AbortKernel(cycles)
		} else {
			dev.RunKernel(cycles)
		}
	}
	dev.ReleaseDRAM(piece.SizeBytes())
	p.inflight--
	p.devCond.Broadcast()
	p.devMu.Unlock()
}

// runKernelWithRetry executes one kernel under the run's retry policy:
// injected launch faults (which fire before the kernel does any work, so a
// retry cannot double-emit) back off and re-run; a recovered kernel panic
// is terminal (the kernel may have emitted before dying — re-running could
// double-count); an exhausted budget returns a *DeviceFaultError.
func runKernelWithRetry(ct *runControl, p *cst.CST, o order.Order, kopts core.Options) (core.Result, error) {
	for attempt := 0; ; attempt++ {
		if ct.cancelled() {
			return core.Result{}, errRunHalted
		}
		res, err := runKernel(p, o, kopts, ct.faults)
		if err == nil || !isTransientFault(err) {
			return res, err
		}
		if attempt >= ct.retry.Max {
			return res, &DeviceFaultError{Site: faultinject.SiteKernel, Attempts: attempt + 1, Err: err}
		}
		ct.fstats.retries.Add(1)
		if !ct.sleep(ct.retry.backoff(attempt)) {
			return core.Result{}, errRunHalted
		}
	}
}
