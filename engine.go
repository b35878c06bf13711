package fast

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"fastmatch/graph"
	"fastmatch/internal/host"
)

// DefaultPlanCacheSize is the plan-cache entry cap an Engine uses when
// Options.PlanCacheSize is 0. Plans are small (a matching order plus a CST
// over the shared graph), but arbitrary traffic can present unboundedly many
// query structures, so serving needs a ceiling; 128 comfortably covers the
// benchmark workloads many times over.
const DefaultPlanCacheSize = 128

// Engine is the reusable, concurrent entry point for serving matching
// traffic against one data graph. Where the one-shot Match plans every call
// from scratch and runs partitions sequentially, an Engine
//
//   - owns a bounded worker pool that fans each query's CST partitions out
//     across goroutines (the software analogue of the paper's multi-PE
//     parallelism) and is shared by every concurrent Match/MatchBatch call,
//     so simultaneous queries cannot oversubscribe the host; and
//   - keeps a bounded LRU query-plan cache (root, BFS tree, matching order
//     and CST, keyed by a structural fingerprint of the query), so repeated
//     queries skip Phase 1 entirely — the dominant host-side cost for small
//     result sets — while arbitrary traffic cannot grow the cache without
//     limit (Options.PlanCacheSize; evicted plans are re-planned on demand).
//
// An Engine is safe for concurrent use. Counts are deterministic: the same
// query returns the same Result.Count regardless of Workers, of
// PartitionWorkers, or of how many goroutines call in at once.
type Engine struct {
	g    *graph.Graph
	opts Options
	cfg  host.Config
	pool chan struct{}

	// seeds carries planning decisions (root, BFS tree, matching order — no
	// CST) from the engine this one replaced across an ApplyDelta whose
	// label set is unchanged: a plan-cache miss with a seed rebuilds only
	// the CST via host.PrepareSeeded instead of re-planning from scratch.
	// Written once before the engine is published, read-only after.
	seeds map[string]*host.Plan

	mu        sync.Mutex
	plans     map[string]*list.Element // values are *planEntry; list order is LRU
	lru       *list.List               // front = most recently used
	planCap   int                      // <= 0 means unbounded
	hits      int64
	miss      int64
	evictions int64
}

// planEntry is a singleflight slot: concurrent first requests for the same
// fingerprint share one host.Prepare instead of each rebuilding the CST —
// Phase 1 is the dominant host-side cost the cache exists to avoid. An
// entry evicted while a holder is still preparing or matching stays valid
// for that holder; it is merely no longer findable in the cache.
type planEntry struct {
	key  string
	once sync.Once
	plan *host.Plan
	err  error
	// ready is set (inside once) when plan/err are final; planSeeds uses it
	// to skip entries still being prepared without blocking on their once.
	ready atomic.Bool
}

// NewEngine creates an Engine over g. opts follows Match's semantics, with
// two differences: Workers defaults to runtime.NumCPU() instead of 1,
// because an Engine exists to exploit parallelism, and PartitionWorkers
// defaults to Workers so the partition producer scales with the kernel
// fan-out it feeds. A nil opts means VariantShare on the default device.
func NewEngine(g *graph.Graph, opts *Options) (*Engine, error) {
	return newEngine(g, opts, nil)
}

// newEngine builds an Engine, optionally around an externally owned worker
// pool — the Router's shared budget. With an external pool the engine does
// not size its own: Workers defaults to the pool's capacity, and the pool is
// installed whatever Workers is, so even a sequential engine draws its
// kernel tokens from the shared budget instead of adding load beside it.
func newEngine(g *graph.Graph, opts *Options, pool chan struct{}) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("fast: NewEngine: nil graph")
	}
	if opts == nil {
		opts = &Options{Variant: VariantShare}
	}
	o := *opts
	if o.Workers <= 0 {
		if pool != nil {
			o.Workers = cap(pool)
		} else {
			o.Workers = runtime.NumCPU()
		}
	}
	if o.PartitionWorkers == 0 {
		o.PartitionWorkers = o.Workers
	}
	cfg, err := o.hostConfig()
	if err != nil {
		return nil, err
	}
	planCap := o.PlanCacheSize
	if planCap == 0 {
		planCap = DefaultPlanCacheSize
	}
	e := &Engine{
		g:       g,
		opts:    o,
		cfg:     cfg,
		plans:   make(map[string]*list.Element),
		lru:     list.New(),
		planCap: planCap,
	}
	switch {
	case pool != nil:
		e.pool = pool
		e.cfg.Pool = pool
	case o.Workers > 1:
		e.pool = make(chan struct{}, o.Workers)
		e.cfg.Pool = e.pool
	}
	return e, nil
}

// Match finds all embeddings of q in the engine's graph, reusing the cached
// plan when q (by structural fingerprint) has been matched before. It is
// MatchContext with context.Background() and no per-call options.
func (e *Engine) Match(q *graph.Query) (*Result, error) {
	return e.MatchContext(context.Background(), q)
}

// MatchContext finds embeddings of q under ctx and the per-call options,
// reusing the cached plan when q (by structural fingerprint) has been
// matched before. Per-call options never invalidate the plan — a plan is
// the matching order plus the CST, independent of limits, deadlines, δ and
// collection — so one Engine serves callers with different budgets without
// re-planning.
//
// Cancellation semantics match the package-level MatchContext: a cancelled
// or deadlined call returns its partial Result (Partial set) with
// ErrCanceled or context.DeadlineExceeded, a WithLimit stop returns the
// partial Result with a nil error, and an already-expired ctx returns
// promptly without planning or matching.
func (e *Engine) MatchContext(ctx context.Context, q *graph.Query, opts ...MatchOption) (*Result, error) {
	return e.matchContext(ctx, q, nil, opts)
}

// MatchStream finds embeddings of q and hands each one to emit as it is
// found, while the pipeline keeps running — the serving shape for callers
// that want first results before the full count. emit is never called
// concurrently with itself. Returning a non-nil error from emit stops
// enumeration early; MatchStream then returns that error with the partial
// Result. Context cancellation stops the stream with
// ErrCanceled/context.DeadlineExceeded the same way.
//
// With Workers <= 1 and deterministic plans the emission order is
// deterministic too (FPGA-bound partitions in producer order, then the CPU
// δ-share); with Workers > 1 embeddings arrive in unspecified order (calls
// are still serialized). Embeddings are only materialised into
// Result.Embeddings when WithCollect(true) (or the engine's
// CollectEmbeddings) asks for it.
func (e *Engine) MatchStream(ctx context.Context, q *graph.Query, emit func(graph.Embedding) error, opts ...MatchOption) (*Result, error) {
	if emit == nil {
		return nil, fmt.Errorf("fast: Engine.MatchStream: nil emit callback")
	}
	return e.matchContext(ctx, q, emit, opts)
}

func (e *Engine) matchContext(ctx context.Context, q *graph.Query, emit func(graph.Embedding) error, opts []MatchOption) (*Result, error) {
	call, err := resolveCall(opts)
	if err != nil {
		// An invalid per-call value fails here, before the plan cache: it
		// must not burn a host.Prepare or occupy a cache slot for a call
		// that can never run.
		return nil, err
	}
	if q == nil {
		return nil, fmt.Errorf("fast: Engine.Match: nil query")
	}
	ctx, cancel := call.callContext(ctx)
	defer cancel()
	if err := ctx.Err(); err != nil {
		return &Result{Partial: true}, err
	}
	plan, err := e.plan(q)
	if err != nil {
		return nil, err
	}
	cfg := e.cfg
	cfg.Plan = plan
	cfg.Emit = emit
	call.apply(&cfg)
	return matchReport(host.Match(ctx, q, e.g, cfg))
}

// enginePrepare is Engine.plan's planning hook. Tests stub it to model
// host.Prepare failures — the singleflight retry path is otherwise
// unreachable with options NewEngine already validated.
var enginePrepare = host.Prepare

// enginePrepareSeeded is the seeded variant's hook, stubbed by the delta
// tests to observe seed reuse.
var enginePrepareSeeded = host.PrepareSeeded

// plan returns q's cached plan, planning it (once, even under concurrent
// first requests) on a miss. Planning runs detached from any caller's
// context: Prepare is not cancellable mid-build, and one caller's ctx must
// not poison the shared singleflight slot for everyone else — callers check
// their own context before and after.
func (e *Engine) plan(q *graph.Query) (*host.Plan, error) {
	key := fingerprint(q)
	e.mu.Lock()
	var ent *planEntry
	if el, ok := e.plans[key]; ok {
		e.hits++
		e.lru.MoveToFront(el)
		ent = el.Value.(*planEntry)
	} else {
		e.miss++
		ent = &planEntry{key: key}
		e.plans[key] = e.lru.PushFront(ent)
		if e.planCap > 0 {
			for e.lru.Len() > e.planCap {
				oldest := e.lru.Back()
				e.lru.Remove(oldest)
				delete(e.plans, oldest.Value.(*planEntry).key)
				e.evictions++
			}
		}
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		if seed := e.seeds[key]; seed != nil {
			ent.plan, ent.err = enginePrepareSeeded(context.Background(), q, e.g, e.cfg, seed)
		} else {
			ent.plan, ent.err = enginePrepare(context.Background(), q, e.g, e.cfg)
		}
		ent.ready.Store(true)
	})
	if ent.err != nil {
		// Drop the failed slot so a later call can retry planning.
		e.mu.Lock()
		if el, ok := e.plans[key]; ok && el.Value.(*planEntry) == ent {
			e.lru.Remove(el)
			delete(e.plans, key)
		}
		e.mu.Unlock()
		return nil, ent.err
	}
	return ent.plan, nil
}

// MatchBatch runs every query concurrently with no cancellation or per-call
// bounds — MatchBatchContext with context.Background().
func (e *Engine) MatchBatch(qs []*graph.Query) ([]*Result, error) {
	return e.MatchBatchContext(context.Background(), qs)
}

// MatchBatchContext runs every query concurrently — each on its own
// producer goroutine, all sharing the engine's worker pool — and returns
// results aligned with qs. ctx and the per-call options govern every query
// in the batch; cancelling ctx stops all of them at their next check point,
// so one cancelled batch does not leak goroutines. Submission itself also
// stops: once ctx has fired, queries not yet started are never scheduled —
// their slots are filled with a partial zero Result and the context's error
// — so a cancelled 10k-query batch does not spawn 10k no-op goroutines.
//
// Every query runs to its own completion (or cancellation) regardless of
// other queries' failures. The returned error aggregates all per-query
// failures via errors.Join, each wrapped with its index and query name, in
// index order — so the lowest-index failure stays first (the error
// MatchBatch historically returned alone) and errors.Is/As see every
// underlying cause.
func (e *Engine) MatchBatchContext(ctx context.Context, qs []*graph.Query, opts ...MatchOption) ([]*Result, error) {
	results, errs := e.matchBatch(ctx, qs, opts)
	return results, joinBatchErrors(qs, errs)
}

// matchBatch is MatchBatchContext's engine: it runs the batch and returns
// the raw per-index errors, unwrapped and unjoined, so callers that account
// per query (the Router's counters, which must attribute a Failure to the
// query that failed and not to its batch-mates) see each query's own error
// instead of the aggregate.
func (e *Engine) matchBatch(ctx context.Context, qs []*graph.Query, opts []MatchOption) ([]*Result, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]*Result, len(qs))
	errs := make([]error, len(qs))
	// Bound in-flight queries: the shared pool already bounds kernel
	// compute at Workers, so query-level concurrency beyond a handful only
	// buys buffered partition memory (each in-flight Match keeps its own
	// worker goroutines and channel buffers). The cap keeps the batch's
	// footprint linear in Workers instead of quadratic.
	inflight := min(e.opts.Workers, 8)
	if inflight < 1 {
		inflight = 1
	}
	sem := make(chan struct{}, inflight)
	// cancelFrom marks queries the short-circuit never submitted: each gets
	// a partial zero Result and the context's error, the same shape a
	// submitted-then-cancelled query reports.
	cancelFrom := func(i int) {
		err := ctx.Err()
		for j := i; j < len(qs); j++ {
			results[j] = &Result{Partial: true}
			errs[j] = err
		}
	}
	var wg sync.WaitGroup
submit:
	for i, q := range qs {
		if ctx.Err() != nil {
			cancelFrom(i)
			break
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			cancelFrom(i)
			break submit
		}
		wg.Add(1)
		go func(i int, q *graph.Query) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = e.MatchContext(ctx, q, opts...)
		}(i, q)
	}
	wg.Wait()
	return results, errs
}

// joinBatchErrors wraps each per-query error with its index and query name
// and aggregates them via errors.Join, in index order — so the lowest-index
// failure stays first and errors.Is/As see every underlying cause. The
// per-index slice is left untouched.
func joinBatchErrors(qs []*graph.Query, errs []error) error {
	var wrapped []error
	for i, err := range errs {
		if err == nil {
			continue
		}
		name := "<nil>"
		if qs[i] != nil {
			name = qs[i].Name()
		}
		wrapped = append(wrapped, fmt.Errorf("fast: MatchBatch query %d (%s): %w", i, name, err))
	}
	return errors.Join(wrapped...)
}

// planSeeds harvests the cached plans' planning decisions for carrying into
// a successor engine after ApplyDelta: per fingerprint the root, BFS tree
// and matching order — not the CST, which belongs to the old epoch and must
// be rebuilt against the new graph. Entries still mid-preparation are
// skipped (they just re-plan in the successor); the ready flag makes that a
// non-blocking check.
func (e *Engine) planSeeds() map[string]*host.Plan {
	e.mu.Lock()
	entries := make([]*planEntry, 0, len(e.plans))
	for _, el := range e.plans {
		entries = append(entries, el.Value.(*planEntry))
	}
	e.mu.Unlock()
	seeds := make(map[string]*host.Plan, len(entries))
	for _, ent := range entries {
		if !ent.ready.Load() || ent.err != nil || ent.plan == nil {
			continue
		}
		seeds[ent.key] = &host.Plan{Root: ent.plan.Root, Tree: ent.plan.Tree, Order: ent.plan.Order}
	}
	return seeds
}

// sameLabelSet reports whether the set of labels with at least one live
// vertex is identical in a and b. ApplyDelta carries plan seeds only when it
// is: a label appearing or vanishing changes which candidate sets are empty,
// and with them the planning heuristics' inputs, so those deltas invalidate
// the plan cache outright.
func sameLabelSet(a, b *graph.Graph) bool {
	na, nb := a.NumLabels(), b.NumLabels()
	n := na
	if nb > n {
		n = nb
	}
	for l := 0; l < n; l++ {
		if (a.LabelFrequency(graph.Label(l)) > 0) != (b.LabelFrequency(graph.Label(l)) > 0) {
			return false
		}
	}
	return true
}

// PlanCacheStats reports plan-cache hits and misses since the engine was
// created. A query whose plan was evicted and re-planned counts as a miss
// again, so hits+misses always equals the number of Match calls that reached
// the cache.
func (e *Engine) PlanCacheStats() (hits, misses int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits, e.miss
}

// PlanCacheEvictions reports how many cached plans the LRU bound has evicted
// since the engine was created.
func (e *Engine) PlanCacheEvictions() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.evictions
}

// PlanCacheCap returns the plan-cache entry bound (<= 0 means unbounded).
func (e *Engine) PlanCacheCap() int { return e.planCap }

// CachedPlans returns the number of distinct query plans currently cached;
// it never exceeds PlanCacheCap when that bound is positive.
func (e *Engine) CachedPlans() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.plans)
}

// Workers returns the engine's worker-pool size.
func (e *Engine) Workers() int { return e.opts.Workers }

// fingerprint canonically encodes a query's structure — vertex labels,
// adjacency and edge labels (the name is deliberately excluded, so two
// structurally identical queries share one plan). Query graphs are tiny, so
// a plain string key is cheap and collision-free.
func fingerprint(q *graph.Query) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n%d", q.NumVertices())
	for u := 0; u < q.NumVertices(); u++ {
		fmt.Fprintf(&b, "|%d:", q.Label(u))
		for _, v := range q.Neighbors(u) {
			fmt.Fprintf(&b, "%d/%d,", v, q.EdgeLabel(u, v))
		}
	}
	return b.String()
}
