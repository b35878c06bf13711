package fast

import (
	"context"
	"fmt"
	"time"

	"fastmatch/internal/host"
)

// ErrCanceled is the error a context-cancelled match returns alongside its
// partial Result. It aliases context.Canceled, so errors.Is works against
// either name; a deadline expiry returns context.DeadlineExceeded instead.
var ErrCanceled = context.Canceled

// MatchOption is a per-call override for MatchContext, Engine.MatchContext,
// Engine.MatchStream, Engine.MatchBatchContext and the Router's Match
// methods. Per-call options change only how one call executes — budget,
// deadline, materialisation — never the query plan, so one Engine serves
// callers with different budgets without re-planning.
type MatchOption func(*callOptions)

// callOptions is the resolved per-call state. Pointer fields and set flags
// distinguish "not set" from an explicit zero — that is what makes
// WithDelta(0) (force everything to the FPGA) and WithLimit(0) (lift a
// tenant's default limit back to unlimited) expressible where a bare zero
// value historically could not be.
type callOptions struct {
	limit     int64
	limitSet  bool
	timeout   time.Duration
	collect   *bool
	delta     *float64
	weight    int
	weightSet bool
}

// WithLimit stops the call after n embeddings. The count is exact and
// deterministic — min(n, total) — regardless of Workers. A limit stop is a
// bounded query succeeding: the Result comes back with Partial set and a nil
// error. n == 0 means unlimited, and is an explicit override: under a Router
// graph's default limit, WithLimit(0) lifts the call back to unlimited. A
// negative n fails the call up front, before any planning — it is never
// silently normalised.
func WithLimit(n int64) MatchOption {
	return func(c *callOptions) {
		c.limit = n
		c.limitSet = true
	}
}

// WithTimeout bounds the call's wall-clock time, on top of whatever
// deadline the caller's context already carries (the effective deadline is
// the earlier of the two). An expired budget stops the pipeline at its next
// check point and the call returns the partial Result with
// context.DeadlineExceeded. d == 0 means no per-call timeout; it does not
// lift a Router graph's default timeout — a tenant deadline is an SLO
// ceiling, callers can only tighten it. A negative d fails the call up
// front, before any planning — it is never silently ignored.
func WithTimeout(d time.Duration) MatchOption {
	return func(c *callOptions) { c.timeout = d }
}

// WithWeight sets a graph's share weight of the Router's worker budget,
// used as an AddGraph default: under contention each tenant is guaranteed
// a slice of the budget proportional to its weight (at least one slot),
// enforced by the Router's admission controller. w must be >= 1.
// Unregistered weights default to 1 (symmetric sharing). As a per-call
// option it validates but has no effect — admission weights belong to the
// tenant, not the call.
func WithWeight(w int) MatchOption {
	return func(c *callOptions) {
		c.weight = w
		c.weightSet = true
	}
}

// WithCollect overrides Options.CollectEmbeddings for this call:
// WithCollect(true) materialises matches in Result.Embeddings,
// WithCollect(false) keeps only the count.
func WithCollect(collect bool) MatchOption {
	return func(c *callOptions) { c.collect = &collect }
}

// WithDelta overrides the CPU workload share δ for this call, including
// the explicit zero: WithDelta(0) sends everything to the FPGA even when
// the engine's variant defaults to DefaultDelta. δ outside [0, 1) fails
// the call up front, before any planning.
func WithDelta(d float64) MatchOption {
	return func(c *callOptions) { c.delta = &d }
}

// resolveCall folds a call's options into one callOptions and validates the
// values, so an invalid call fails with a fast:-prefixed error before any
// planning work — in particular before an Engine records a plan-cache miss
// or occupies a cache slot for a call that can never run.
func resolveCall(opts []MatchOption) (callOptions, error) {
	var c callOptions
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	if c.limitSet && c.limit < 0 {
		return c, fmt.Errorf("fast: WithLimit(%d): negative limit (use 0 for unlimited)", c.limit)
	}
	if c.timeout < 0 {
		return c, fmt.Errorf("fast: WithTimeout(%v): negative timeout (use 0 for none)", c.timeout)
	}
	if c.delta != nil && (*c.delta < 0 || *c.delta >= 1) {
		return c, fmt.Errorf("fast: WithDelta(%v): delta outside [0,1)", *c.delta)
	}
	if c.weightSet && c.weight < 1 {
		return c, fmt.Errorf("fast: WithWeight(%d): weight must be >= 1", c.weight)
	}
	return c, nil
}

// over lays the call's explicit settings on top of base (a Router graph's
// resolved defaults): fields the call set win, fields it left alone keep the
// tenant default. The set flags are what make the merge unambiguous — a
// caller's explicit WithLimit(0) must lift the default, not vanish into it.
func (c callOptions) over(base callOptions) callOptions {
	out := base
	if c.limitSet {
		out.limit, out.limitSet = c.limit, true
	}
	// A default timeout is an SLO ceiling: the caller's budget applies only
	// where it is tighter, so a generous per-call WithTimeout cannot loosen
	// the tenant deadline.
	if c.timeout > 0 && (base.timeout == 0 || c.timeout < base.timeout) {
		out.timeout = c.timeout
	}
	if c.collect != nil {
		out.collect = c.collect
	}
	if c.delta != nil {
		out.delta = c.delta
	}
	if c.weightSet {
		out.weight, out.weightSet = c.weight, true
	}
	return out
}

// asOption re-wraps an already-merged callOptions as a single MatchOption,
// so the Router can hand a call's defaults-plus-overrides to the Engine's
// public entry points as one resolved value.
func (c callOptions) asOption() MatchOption {
	return func(dst *callOptions) { *dst = c }
}

// apply lays the per-call overrides over the host configuration.
func (c callOptions) apply(cfg *host.Config) {
	if c.limitSet {
		cfg.Limit = c.limit
	}
	if c.collect != nil {
		cfg.Collect = *c.collect
	}
	if c.delta != nil {
		cfg.Delta = *c.delta
	}
}

// callContext normalises ctx and applies WithTimeout. The returned cancel
// must be called when the match returns.
func (c callOptions) callContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.timeout > 0 {
		return context.WithTimeout(ctx, c.timeout)
	}
	return ctx, func() {}
}
