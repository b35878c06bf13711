package fast

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrBreakerOpen reports a call rejected because the tenant's circuit
// breaker is open: recent calls failed hard back to back, and the router is
// fast-failing new ones for the cooldown instead of feeding a tenant whose
// engine keeps blowing up. Errors returned by the Router wrap it, so
// errors.Is(err, ErrBreakerOpen) identifies breaker sheds regardless of the
// message; the HTTP front end maps it to 503 "breaker_open".
var ErrBreakerOpen = errors.New("circuit breaker open")

// Breaker defaults: BreakerOptions zero values mean a breaker that trips
// after DefaultBreakerThreshold consecutive hard failures and probes again
// after DefaultBreakerCooldown.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = time.Second
)

// BreakerOptions configures the per-tenant circuit breaker every routed
// call passes through. The breaker watches hard failures only — a call that
// returns no usable Result for a reason that is the engine's fault, such as
// a recovered kernel panic or an exhausted device-retry budget. Partial
// results, deadline and cancellation cut-offs, and admission sheds are
// service under load, not evidence of a broken engine, and never move the
// breaker.
//
// State machine: Threshold consecutive hard failures trip the breaker open;
// open calls are shed immediately with ErrBreakerOpen; after Cooldown one
// probe call is admitted (half-open) — if it succeeds the breaker closes
// and the failure streak resets, if it fails hard the breaker re-opens for
// another cooldown.
type BreakerOptions struct {
	// Threshold is the consecutive hard-failure count that trips the
	// breaker. 0 means DefaultBreakerThreshold; negative disables the
	// breaker entirely.
	Threshold int
	// Cooldown is how long an open breaker sheds before admitting a probe.
	// 0 means DefaultBreakerCooldown.
	Cooldown time.Duration
}

// breaker state constants, exported through GraphStats.BreakerState.
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half_open"
)

// breaker is one tenant's circuit breaker. A nil *breaker is a disabled
// breaker: allow admits everything and records nothing. It lives on the
// routerGraph next to the counters, so it survives SwapGraph — a swap
// replaces the graph, not the evidence that the tenant's serving path was
// just failing.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests

	mu          sync.Mutex
	state       string
	consecutive int       // hard failures in a row while closed
	openedAt    time.Time // when the breaker last tripped
	probing     bool      // a half-open probe is in flight
	opens       int64     // times the breaker tripped open (incl. re-opens)
	shed        int64     // calls rejected with ErrBreakerOpen
}

// newBreaker builds a breaker from opts, or nil when opts disables it.
func newBreaker(opts BreakerOptions) *breaker {
	if opts.Threshold < 0 {
		return nil
	}
	b := &breaker{threshold: opts.Threshold, cooldown: opts.Cooldown, now: time.Now, state: breakerClosed}
	if b.threshold == 0 {
		b.threshold = DefaultBreakerThreshold
	}
	if b.cooldown <= 0 {
		b.cooldown = DefaultBreakerCooldown
	}
	return b
}

// allow gates one routed call. On admission it returns a done callback the
// caller MUST invoke exactly once with the call's final error (nil for
// success); on rejection done is nil and err wraps ErrBreakerOpen. A nil
// breaker admits everything with a nil done.
func (b *breaker) allow() (done func(error), err error) {
	if b == nil {
		return nil, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			b.shed++
			return nil, ErrBreakerOpen
		}
		// Cooldown over: this call becomes the half-open probe.
		b.state = breakerHalfOpen
		b.probing = true
		return b.finishProbe, nil
	case breakerHalfOpen:
		if b.probing {
			b.shed++
			return nil, ErrBreakerOpen
		}
		b.probing = true
		return b.finishProbe, nil
	default:
		return b.finish, nil
	}
}

// breakerVerdict classifies a routed call's outcome for the breaker.
type breakerVerdict int

const (
	verdictSuccess breakerVerdict = iota
	verdictNeutral                // shed, deadline, cancellation: no evidence either way
	verdictFailure                // hard failure: the engine's fault
)

// classify maps a routed call's final error to a breaker verdict. Hard
// failure means the engine blew up — a recovered panic, an exhausted device
// retry budget, anything that is not the caller's own deadline,
// cancellation or oversize query, or an admission-controller shed.
func classify(err error) breakerVerdict {
	switch {
	case err == nil:
		return verdictSuccess
	case errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, ErrQueryTooLarge),
		errors.Is(err, ErrQueueFull),
		errors.Is(err, ErrDeadlineDoomed),
		errors.Is(err, ErrQueueTimeout):
		return verdictNeutral
	}
	return verdictFailure
}

// finish records a closed-state call's outcome.
func (b *breaker) finish(callErr error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch classify(callErr) {
	case verdictSuccess:
		b.consecutive = 0
	case verdictFailure:
		b.consecutive++
		if b.consecutive >= b.threshold {
			b.trip()
		}
	}
}

// finishProbe records the half-open probe's outcome.
func (b *breaker) finishProbe(callErr error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if b.state != breakerHalfOpen {
		return // a concurrent trip already moved the state
	}
	switch classify(callErr) {
	case verdictSuccess:
		b.state = breakerClosed
		b.consecutive = 0
	case verdictFailure:
		b.trip()
	default:
		// The probe was cut short by its caller: no evidence either way,
		// stay half-open and let the next call probe.
	}
}

// trip opens the breaker. Callers hold b.mu.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.openedAt = b.now()
	b.consecutive = 0
	b.opens++
}

// snapshot reports the breaker's state for GraphStats. A nil breaker is
// closed with zero counters (disabled breakers never shed).
func (b *breaker) snapshot() (state string, opens, shed int64) {
	if b == nil {
		return breakerClosed, 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// An open breaker whose cooldown has lapsed reports half-open: the next
	// call will probe, and dashboards should see the recovery attempt.
	state = b.state
	if state == breakerOpen && b.now().Sub(b.openedAt) >= b.cooldown {
		state = breakerHalfOpen
	}
	return state, b.opens, b.shed
}
