package fast

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fastmatch/graph"
	"fastmatch/internal/host"
)

// ErrUnknownGraph reports a Router call naming a graph that is not (or no
// longer) registered. Errors returned by the Router wrap it, so
// errors.Is(err, ErrUnknownGraph) identifies routing misses regardless of
// the message.
var ErrUnknownGraph = errors.New("unknown graph")

// RouterOptions configures a Router.
type RouterOptions struct {
	// Workers is the global kernel-work budget: one token bucket of this
	// size is shared by every graph's engine, so N graphs serving traffic
	// at once cannot oversubscribe the host the way N independent engines
	// (each sized to the machine) would. 0 means runtime.NumCPU().
	Workers int
	// Engine is the default engine Options template for graphs added with
	// a nil per-graph *Options. nil means VariantShare on the default
	// device. Workers left zero defaults to the router's shared budget size.
	Engine *Options
	// MaxQueue bounds each tenant's admission queue: calls beyond a
	// tenant's weighted budget share wait in a per-tenant FIFO of at most
	// this many entries, and arrivals past it are shed immediately with
	// ErrQueueFull. 0 means DefaultMaxQueue; negative disables queuing
	// entirely (any call that cannot be granted on arrival is shed).
	MaxQueue int
	// Breaker configures the per-tenant circuit breaker (see
	// BreakerOptions): consecutive hard failures trip it, open tenants shed
	// with ErrBreakerOpen until a cooldown probe succeeds. The zero value
	// enables it with the defaults; Threshold < 0 disables it.
	Breaker BreakerOptions
}

// Router is a multi-graph serving front end: a registry of named data
// graphs, each backed by a lazily constructed Engine, all drawing kernel
// work from one shared worker budget. It is the multi-tenant shape the
// paper's host/coordinator role scales to — per-tenant SLOs ride on the
// per-call option surface (default MatchOptions per graph, overridable per
// call), and graphs can be added, removed and hot-swapped while traffic is
// in flight.
//
// In front of the engines sits an explicit admission controller: each call
// takes one grant from a weighted token dispenser sized to the shared
// budget before it runs. Per-tenant weights (WithWeight as an AddGraph
// default) guarantee each graph a proportional share of the budget under
// contention, excess calls wait in a bounded per-tenant FIFO, and a call is
// shed immediately — ErrQueueFull, or ErrDeadlineDoomed when its deadline
// cannot survive the estimated queue wait plus the tenant's observed p50
// service time — instead of queue-blindly blocking. Queue depth, shed and
// latency figures surface through Stats.
//
// A Router is safe for concurrent use. SwapGraph is atomic: calls that
// already resolved the name finish on the old graph and its cached plans;
// calls that resolve after the swap see the new graph with a fresh plan
// cache. Counts stay deterministic per graph regardless of how many tenants
// run concurrently — the budget changes scheduling, never results.
type Router struct {
	workers int
	pool    chan struct{}
	tmpl    *Options
	adm     *admitter
	brkOpts BreakerOptions

	mu     sync.RWMutex
	graphs map[string]*routerGraph
}

// routerGraph is one named tenant: its engine options (fixed at AddGraph),
// resolved default call options, counters that survive SwapGraph, and the
// current serving state, which SwapGraph replaces wholesale.
type routerGraph struct {
	opts     *Options
	defaults callOptions
	counters *graphCounters
	brk      *breaker    // per-tenant circuit breaker; nil when disabled
	state    *graphState // replaced by SwapGraph/ApplyDelta under Router.mu

	// mutMu serializes structural mutation of this tenant — ApplyDelta
	// batches and Subscribe registrations — so every standing query observes
	// an unbroken epoch sequence: registered at epoch E, notified for E+1,
	// E+2, … with no gap and no duplicate. SwapGraph deliberately does NOT
	// take it (a swap must not wait behind a long delta); ApplyDelta detects
	// the interleave by re-checking its state snapshot at commit. Lock
	// order: mutMu before Router.mu; never the reverse. The order is
	// machine-checked by the lockorder analyzer (internal/lint) through the
	// declarations below.
	//
	//fastmatch:lockorder routerGraph.mutMu < Router.mu
	mutMu sync.Mutex

	// Standing continuous queries (subscribe.go), guarded by subMu, which
	// nests inside both mutMu and Router.mu and takes no lock itself.
	//
	//fastmatch:lockorder Router.mu < routerGraph.subMu
	//fastmatch:lockorder routerGraph.mutMu < routerGraph.subMu
	subMu   sync.Mutex
	subs    map[int64]*Subscription
	nextSub int64
}

// closeSubs terminates every standing query on this tenant with reason
// (graph swapped or removed). Each drain goroutine flushes what was already
// queued and exits; the subscriptions unregister themselves.
func (ent *routerGraph) closeSubs(reason error) {
	ent.subMu.Lock()
	subs := make([]*Subscription, 0, len(ent.subs))
	for _, s := range ent.subs {
		subs = append(subs, s)
	}
	ent.subMu.Unlock()
	for _, s := range subs {
		s.close(reason)
	}
}

// graphState binds one data graph to its lazily built Engine. In-flight
// matches hold the state they resolved, so a swap never yanks a graph or a
// plan out from under a running call.
type graphState struct {
	g *graph.Graph
	// carry seeds the lazily built engine's plan cache with the previous
	// epoch's planning decisions (ApplyDelta sets it when the delta keeps
	// the label set; see Engine.planSeeds). Written before the state is
	// published, read only inside once.
	carry map[string]*host.Plan
	once  sync.Once
	eng   atomic.Pointer[Engine]
	err   error // set by once; read only after once.Do returns
}

// engine returns the state's Engine, building it on first use. Construction
// is a singleflight: concurrent first calls share one build.
func (st *graphState) engine(opts *Options, pool chan struct{}) (*Engine, error) {
	st.once.Do(func() {
		eng, err := newEngine(st.g, opts, pool)
		if err != nil {
			st.err = err
			return
		}
		eng.seeds = st.carry
		st.eng.Store(eng)
	})
	if st.err != nil {
		return nil, st.err
	}
	return st.eng.Load(), nil
}

// graphCounters aggregates one tenant's serving history across swaps.
type graphCounters struct {
	calls         atomic.Int64
	partials      atomic.Int64
	failures      atomic.Int64
	kernelAborts  atomic.Int64
	swaps         atomic.Int64
	deltas        atomic.Int64
	notifications atomic.Int64
}

// record tallies one routed call. A hard failure yields no Result; a call
// cut short by a limit, deadline or cancellation keeps its partial Result
// and counts as a Partial, not a Failure — a tenant whose SLO fires on
// every query is being served as designed, and the batch path (which has
// only the nil-result signal) counts the same way.
func (c *graphCounters) record(res *Result, err error) {
	c.calls.Add(1)
	if res == nil {
		if err != nil {
			c.failures.Add(1)
		}
		return
	}
	if res.Partial {
		c.partials.Add(1)
	}
	c.kernelAborts.Add(int64(res.KernelAborts))
}

// GraphStats is one graph's slice of Router.Stats: serving counters
// accumulated across swaps, plus the current engine's plan-cache state
// (zero until the first match builds the engine; reset by SwapGraph, which
// rotates the plan cache with the graph).
type GraphStats struct {
	// Calls counts every routed match (batch queries count individually);
	// Partials those that returned a partial Result (limit, deadline or
	// cancellation — an SLO firing is service, not failure), Failures those
	// that failed outright with no Result, and KernelAborts the modelled
	// kernel executions cancellation threw away.
	Calls, Partials, Failures, KernelAborts int64
	// Swaps counts SwapGraph replacements since AddGraph.
	Swaps int64
	// Dynamics (delta.go in package graph; dynamic.go/subscribe.go here).
	// Epoch is the current graph snapshot's epoch — 0 for a freshly added
	// or swapped graph, +1 per applied delta batch (a swap resets it with
	// the graph). Deltas counts ApplyDelta batches committed across the
	// tenant's lifetime; Subscriptions the standing queries currently
	// registered; Notifications the MatchDelta records computed for
	// subscribers (one per subscription per committed batch).
	Epoch         uint64
	Deltas        int64
	Subscriptions int
	Notifications int64
	// Plan-cache state of the graph's current engine.
	PlanCacheHits, PlanCacheMisses, PlanCacheEvictions int64
	CachedPlans                                        int
	// Admission-controller state. Weight is the tenant's registered budget
	// share weight (1 unless WithWeight was given at AddGraph); QueueDepth
	// the calls currently waiting for a grant. Admitted counts calls that
	// received a grant (a batch is one admission however many queries it
	// carries — Calls counts the queries); ShedQueueFull and ShedDoomed
	// count calls rejected on arrival, QueueTimeouts calls whose context
	// fired while queued. Shed and queue-timed-out calls never ran, so they
	// appear here and not in Calls/Failures.
	Weight        int
	QueueDepth    int
	Admitted      int64
	ShedQueueFull int64
	ShedDoomed    int64
	QueueTimeouts int64
	// Service-latency quantiles of admitted calls (log₂-bucket upper
	// bounds; zero until the first call completes). The p50 also steers the
	// deadline-doomed shed estimate.
	P50Latency time.Duration
	P99Latency time.Duration
	// Circuit-breaker state (breaker.go). BreakerState is "closed", "open"
	// or "half_open" (a disabled breaker reports "closed" forever);
	// BreakerOpens counts trips including re-opens after a failed probe;
	// ShedBreakerOpen counts calls rejected with ErrBreakerOpen. Like the
	// other counters, breaker state survives SwapGraph: a swap replaces the
	// graph, not the evidence that the tenant's serving path was failing.
	BreakerState    string
	BreakerOpens    int64
	ShedBreakerOpen int64
}

// NewRouter creates an empty Router with its shared worker budget.
func NewRouter(opts RouterOptions) *Router {
	w := opts.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	return &Router{
		workers: w,
		pool:    make(chan struct{}, w),
		tmpl:    opts.Engine,
		adm:     newAdmitter(w, opts.MaxQueue),
		brkOpts: opts.Breaker,
		graphs:  make(map[string]*routerGraph),
	}
}

// Workers returns the size of the shared worker budget.
func (r *Router) Workers() int { return r.workers }

// AddGraph registers g under name. opts configures the graph's engine (nil
// means the router's Engine template, else the package default); Workers
// left zero defaults to the shared budget size, and the engine always draws
// its kernel tokens from the router's budget whatever it is set to. defaults
// are the graph's standing MatchOptions — the tenant's SLO, e.g.
// WithLimit/WithTimeout — applied under any per-call overrides (an explicit
// WithLimit(0) lifts a default limit; a default timeout can only be
// tightened, not lifted).
//
// The engine itself is built lazily on the first match, so registering many
// graphs is cheap. AddGraph fails if name is already registered — use
// SwapGraph to replace a graph in place.
func (r *Router) AddGraph(name string, g *graph.Graph, opts *Options, defaults ...MatchOption) error {
	if name == "" {
		return fmt.Errorf("fast: Router.AddGraph: empty graph name")
	}
	if g == nil {
		return fmt.Errorf("fast: Router.AddGraph %q: nil graph", name)
	}
	def, err := resolveCall(defaults)
	if err != nil {
		return fmt.Errorf("fast: Router.AddGraph %q: invalid defaults: %w", name, err)
	}
	o := r.engineOptions(opts)
	// Surface a bad variant or device now, at registration, not as a
	// surprise on the tenant's first query.
	if _, err := o.hostConfig(); err != nil {
		return fmt.Errorf("fast: Router.AddGraph %q: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[name]; ok {
		return fmt.Errorf("fast: Router.AddGraph: graph %q already registered (use SwapGraph to replace it)", name)
	}
	r.graphs[name] = &routerGraph{
		opts:     o,
		defaults: def,
		counters: &graphCounters{},
		brk:      newBreaker(r.brkOpts),
		state:    &graphState{g: g},
	}
	// Register the admission tenant inside the same critical section, so a
	// concurrent call can never resolve the graph and then miss its tenant.
	// WithWeight among the defaults sets the tenant's budget share weight
	// (resolveCall already validated it); unset means 1.
	weight := 1
	if def.weightSet {
		weight = def.weight
	}
	r.adm.register(name, weight)
	return nil
}

// engineOptions resolves the per-graph engine options: an explicit opts
// wins, else the router's template, else the package default — copied, so
// later mutation by the caller cannot leak into the registry — with zero
// Workers defaulting to the shared budget size (newEngine derives that from
// the pool's capacity).
func (r *Router) engineOptions(opts *Options) *Options {
	var o Options
	switch {
	case opts != nil:
		o = *opts
	case r.tmpl != nil:
		o = *r.tmpl
	default:
		o = Options{Variant: VariantShare}
	}
	return &o
}

// RemoveGraph unregisters name. Calls that already resolved the name finish
// on the removed graph; new calls fail with ErrUnknownGraph, and standing
// queries on the graph terminate with an error wrapping ErrUnknownGraph.
func (r *Router) RemoveGraph(name string) error {
	r.mu.Lock()
	ent, ok := r.graphs[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("fast: Router.RemoveGraph %q: %w", name, ErrUnknownGraph)
	}
	delete(r.graphs, name)
	// Queued waiters fail with ErrUnknownGraph; in-flight grants release
	// normally through their tenant reference.
	r.adm.unregister(name)
	r.mu.Unlock()
	ent.closeSubs(fmt.Errorf("fast: graph %q removed: %w", name, ErrUnknownGraph))
	return nil
}

// SwapGraph atomically replaces name's data graph: in-flight matches finish
// on the old graph and its cached plans, calls that resolve after the swap
// see g behind a fresh engine — the plan cache rotates with the graph, so
// no plan built over the old graph can ever serve the new one. The graph's
// engine options, default MatchOptions and counters carry over.
//
// A swap also resets the tenant's delta lineage: the epoch counter restarts
// with the new graph (a constructor-fresh graph is epoch 0), an ApplyDelta
// computed against the pre-swap snapshot fails its commit with
// ErrGraphSwapped instead of resurrecting the old lineage, and standing
// queries terminate with an error wrapping ErrGraphSwapped — their epoch
// sequence ended with the graph they were watching.
func (r *Router) SwapGraph(name string, g *graph.Graph) error {
	if g == nil {
		return fmt.Errorf("fast: Router.SwapGraph %q: nil graph", name)
	}
	r.mu.Lock()
	ent, ok := r.graphs[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("fast: Router.SwapGraph %q: %w", name, ErrUnknownGraph)
	}
	ent.state = &graphState{g: g}
	ent.counters.swaps.Add(1)
	r.mu.Unlock()
	ent.closeSubs(fmt.Errorf("fast: graph %q swapped: %w", name, ErrGraphSwapped))
	return nil
}

// Graphs lists the registered graph names, sorted.
func (r *Router) Graphs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.graphs))
	for name := range r.graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// resolve snapshots a graph's serving state and merges the call's options
// over its defaults. The snapshot is what makes SwapGraph atomic: the
// returned state keeps serving this call even if the registry moves on.
func (r *Router) resolve(method, name string, opts []MatchOption) (*routerGraph, *graphState, callOptions, error) {
	call, err := resolveCall(opts)
	if err != nil {
		return nil, nil, callOptions{}, err
	}
	r.mu.RLock()
	ent, ok := r.graphs[name]
	var st *graphState
	if ok {
		st = ent.state
	}
	r.mu.RUnlock()
	if !ok {
		return nil, nil, callOptions{}, fmt.Errorf("fast: Router.%s %q: %w", method, name, ErrUnknownGraph)
	}
	return ent, st, call.over(ent.defaults), nil
}

// admit takes one admission grant for a routed call. ctx must already carry
// the call's effective deadline (callContext applied), so queue time burns
// the caller's own budget. On success the grant is returned; on a shed or
// queue timeout the grant is nil and (res, err) are what the Router method
// should return — sheds carry no Result, a queue timeout carries the zero
// partial Result a cut-short running call has, with an error wrapping both
// ErrQueueTimeout and the context's own error.
func (r *Router) admit(ctx context.Context, method, name string) (grant *admGrant, res *Result, err error) {
	grant, err = r.adm.admit(ctx, name)
	if err == nil {
		return grant, nil, nil
	}
	wrapped := fmt.Errorf("fast: Router.%s %q: %w", method, name, err)
	if errors.Is(err, ErrQueueTimeout) {
		return nil, &Result{Partial: true}, wrapped
	}
	return nil, nil, wrapped
}

// MatchContext routes one match to the named graph, under the graph's
// default options with the call's laid on top. Cancellation and budget
// semantics are Engine.MatchContext's, behind the router's admission
// controller: the call may be shed (ErrQueueFull, ErrDeadlineDoomed) or
// time out in the admission queue (ErrQueueTimeout) before any matching
// work starts.
func (r *Router) MatchContext(ctx context.Context, graphName string, q *graph.Query, opts ...MatchOption) (*Result, error) {
	ent, st, call, err := r.resolve("MatchContext", graphName, opts)
	if err != nil {
		return nil, err
	}
	bdone, err := ent.brk.allow()
	if err != nil {
		return nil, fmt.Errorf("fast: Router.MatchContext %q: %w", graphName, err)
	}
	eng, err := st.engine(ent.opts, r.pool)
	if err != nil {
		breakerDone(bdone, err)
		return nil, err
	}
	ctx, cancel := call.callContext(ctx)
	defer cancel()
	grant, shedRes, err := r.admit(ctx, "MatchContext", graphName)
	if grant == nil {
		breakerDone(bdone, err)
		return shedRes, err
	}
	res, err := eng.MatchContext(ctx, q, call.asOption())
	r.adm.release(grant)
	breakerDone(bdone, err)
	ent.counters.record(res, err)
	return res, err
}

// breakerDone settles a breaker admission with the call's final error; a
// nil done (breaker disabled) is a no-op.
func breakerDone(done func(error), err error) {
	if done != nil {
		done(err)
	}
}

// MatchStream routes a streaming match to the named graph; semantics are
// Engine.MatchStream's under the graph's default options, behind the same
// admission control as MatchContext. The grant is held for the stream's
// whole duration — a slow consumer occupies budget, which is what makes a
// saturated router shed rather than stack up blocked streams.
func (r *Router) MatchStream(ctx context.Context, graphName string, q *graph.Query, emit func(graph.Embedding) error, opts ...MatchOption) (*Result, error) {
	ent, st, call, err := r.resolve("MatchStream", graphName, opts)
	if err != nil {
		return nil, err
	}
	bdone, err := ent.brk.allow()
	if err != nil {
		return nil, fmt.Errorf("fast: Router.MatchStream %q: %w", graphName, err)
	}
	eng, err := st.engine(ent.opts, r.pool)
	if err != nil {
		breakerDone(bdone, err)
		return nil, err
	}
	ctx, cancel := call.callContext(ctx)
	defer cancel()
	grant, shedRes, err := r.admit(ctx, "MatchStream", graphName)
	if grant == nil {
		breakerDone(bdone, err)
		return shedRes, err
	}
	res, err := eng.MatchStream(ctx, q, emit, call.asOption())
	r.adm.release(grant)
	breakerDone(bdone, err)
	ent.counters.record(res, err)
	return res, err
}

// MatchBatchContext routes a whole batch to the named graph; semantics are
// Engine.MatchBatchContext's (aligned results, errors.Join aggregate,
// submission short-circuits once ctx fires), with the graph's defaults
// under every query's options. The batch takes one admission grant however
// many queries it carries; each query still counts as one call in Stats,
// and failures/partials are attributed per query from the batch's own
// per-index errors — never from the joined aggregate, which would charge
// one query's failure to its batch-mates.
func (r *Router) MatchBatchContext(ctx context.Context, graphName string, qs []*graph.Query, opts ...MatchOption) ([]*Result, error) {
	ent, st, call, err := r.resolve("MatchBatchContext", graphName, opts)
	if err != nil {
		return nil, err
	}
	bdone, err := ent.brk.allow()
	if err != nil {
		return nil, fmt.Errorf("fast: Router.MatchBatchContext %q: %w", graphName, err)
	}
	eng, err := st.engine(ent.opts, r.pool)
	if err != nil {
		breakerDone(bdone, err)
		return nil, err
	}
	ctx, cancel := call.callContext(ctx)
	defer cancel()
	grant, shedRes, err := r.admit(ctx, "MatchBatchContext", graphName)
	if grant == nil {
		breakerDone(bdone, err)
		if shedRes == nil {
			return nil, err // shed on arrival: nothing ran
		}
		// Queue timeout: aligned partial zero results, like a batch whose
		// ctx fired before submission.
		results := make([]*Result, len(qs))
		for i := range results {
			results[i] = &Result{Partial: true}
		}
		return results, err
	}
	results, errs := eng.matchBatch(ctx, qs, []MatchOption{call.asOption()})
	r.adm.release(grant)
	// The batch is one breaker admission; settle it with the worst per-query
	// verdict, so one hard failure is not laundered by a batch-mate's
	// deadline in the joined aggregate.
	var bErr error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if bErr == nil {
			bErr = e
		}
		if classify(e) == verdictFailure {
			bErr = e
			break
		}
	}
	breakerDone(bdone, bErr)
	for i, res := range results {
		ent.counters.record(res, errs[i])
	}
	return results, joinBatchErrors(qs, errs)
}

// Stats reports every registered graph's serving counters and its current
// engine's plan-cache state. The map is a copy; mutating it is safe.
func (r *Router) Stats() map[string]GraphStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]GraphStats, len(r.graphs))
	for name, ent := range r.graphs {
		s := GraphStats{
			Calls:         ent.counters.calls.Load(),
			Partials:      ent.counters.partials.Load(),
			Failures:      ent.counters.failures.Load(),
			KernelAborts:  ent.counters.kernelAborts.Load(),
			Swaps:         ent.counters.swaps.Load(),
			Deltas:        ent.counters.deltas.Load(),
			Notifications: ent.counters.notifications.Load(),
			Epoch:         ent.state.g.Epoch(),
		}
		ent.subMu.Lock()
		s.Subscriptions = len(ent.subs)
		ent.subMu.Unlock()
		s.BreakerState, s.BreakerOpens, s.ShedBreakerOpen = ent.brk.snapshot()
		// The engine pointer is set exactly once per state; a nil load means
		// no match has reached this graph since it was added or swapped.
		if eng := ent.state.eng.Load(); eng != nil {
			s.PlanCacheHits, s.PlanCacheMisses = eng.PlanCacheStats()
			s.PlanCacheEvictions = eng.PlanCacheEvictions()
			s.CachedPlans = eng.CachedPlans()
		}
		if as, ok := r.adm.stats(name); ok {
			s.Weight = as.weight
			s.QueueDepth = as.queueDepth
			s.Admitted = as.admitted
			s.ShedQueueFull = as.shedQueueFull
			s.ShedDoomed = as.shedDoomed
			s.QueueTimeouts = as.queueTimeouts
			s.P50Latency = as.p50
			s.P99Latency = as.p99
		}
		out[name] = s
	}
	return out
}
