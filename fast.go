// Package fast is the public API of this reproduction of "FAST: FPGA-based
// Subgraph Matching on Massive Graphs" (ICDE 2021). It exposes the
// CPU–FPGA co-designed matching pipeline (CST construction, partitioning,
// workload-balanced scheduling, and the pipelined FAST kernel running on a
// cycle-model FPGA device), the paper's CPU and GPU-style baseline
// algorithms, and the LDBC-like benchmark workloads — everything the
// examples, command-line tools and benchmark harness consume.
//
// Quick start — the API is context-first: pass a context to cancel or
// deadline any call, and per-call options to bound it:
//
//	g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, Seed: 42})
//	q, _ := ldbc.QueryByName("q2")
//	res, err := fast.MatchContext(ctx, q, g, nil)
//	fmt.Println(res.Count, res.Total)
//
//	// Bounded: at most 100 embeddings, at most 50 ms.
//	res, err = fast.MatchContext(ctx, q, g, nil,
//	    fast.WithLimit(100), fast.WithTimeout(50*time.Millisecond))
//	if res != nil && res.Partial {
//	    // deadline or limit cut the run short; res holds the partial counts
//	}
//
// Match, Count and MatchBatch are thin wrappers over context.Background()
// and keep compiling unchanged; they are equivalent to the context forms
// with an unbounded call.
//
// # Concurrency and serving
//
// MatchContext with Options.Workers > 1 fans the scheduler's FPGA-side
// partition queue out across that many goroutines while the CPU δ-share is
// enumerated concurrently, mirroring the paper's multi-PE parallelism and
// CPU–FPGA co-processing; counts are identical to the sequential run, and
// cancellation is observed inside the fan-out (workers drain and exit
// cleanly). For serving traffic — repeated and simultaneous queries against
// one graph, each under its own budget — construct an Engine: it shares one
// bounded worker pool across all concurrent calls and caches query plans
// (matching order + CST) keyed by query fingerprint, so one Engine serves
// callers with different limits, deadlines and δ overrides without
// re-planning:
//
//	eng, _ := fast.NewEngine(g, &fast.Options{Workers: 8})
//	res, err := eng.MatchContext(ctx, q, fast.WithLimit(1000))
//	res, err = eng.MatchStream(ctx, q, func(e graph.Embedding) error {
//	    return send(e) // first results stream out while the run continues
//	})
//	results, err := eng.MatchBatchContext(ctx, queries) // concurrent, pool-shared
//
// A cancelled or deadlined call stops mid-flight — between partitions,
// between kernel batch rounds, between δ-share embeddings — and returns
// the partial Result (Partial set) with ErrCanceled or
// context.DeadlineExceeded.
//
// # Multi-graph serving
//
// To serve several data graphs — multiple tenants, or one corpus sharded
// into named graphs — construct a Router: a registry of named graphs, each
// behind a lazily built Engine, all drawing kernel work from one shared
// worker budget, so N graphs cannot oversubscribe the host the way N
// independent engines would. Per-graph default MatchOptions are the tenant
// SLO (a standing limit or deadline, overridable per call — WithLimit(0)
// lifts a default limit), and SwapGraph hot-swaps a graph atomically:
// in-flight matches finish on the old graph and its cached plans, new
// calls see the new graph behind a fresh plan cache:
//
//	router := fast.NewRouter(fast.RouterOptions{Workers: 8})
//	router.AddGraph("acme", acmeGraph, nil)
//	router.AddGraph("globex", globexGraph, nil, fast.WithLimit(1000))
//	res, err := router.MatchContext(ctx, "acme", q)
//	router.SwapGraph("globex", reingested) // atomic; traffic keeps flowing
//	stats := router.Stats()                // per-graph calls, partials, plan cache
//
// Routed calls pass through an explicit admission controller in front of
// the shared budget: each tenant holds a weighted share (WithWeight as an
// AddGraph default), waits in a bounded per-tenant queue when the budget is
// saturated, and is shed immediately — ErrQueueFull, or ErrDeadlineDoomed
// when its deadline cannot survive the estimated queue wait — instead of
// blocking indefinitely. Stats reports queue depths, shed counters and
// p50/p99 service latency per graph.
//
// # Dynamic graphs and continuous queries
//
// Router.ApplyDelta mutates a served graph in place — batched vertex/edge
// inserts and deletes — by installing a copy-on-write epoch snapshot
// (graph.ApplyDelta). The epoch-consistency contract:
//
//   - Every routed call executes entirely against the single epoch current
//     when it resolved; a call admitted before ApplyDelta returns counts
//     and streams exactly what that epoch contains, no matter how many
//     batches commit while it runs.
//   - Calls resolving after ApplyDelta returns see the new epoch. Epochs
//     increment by one per committed batch; SwapGraph and RemoveGraph end
//     the lineage (a pending delta computed over the pre-swap snapshot
//     fails its commit with ErrGraphSwapped rather than resurrecting it).
//   - Batches for one graph serialize; a label-set-preserving batch seeds
//     the new epoch's plan cache with the previous epoch's planning
//     decisions, so repeat queries skip re-planning and rebuild only the
//     candidate space.
//
// Router.Subscribe registers a standing (continuous) query: from its
// registration epoch on, every committed batch delivers one MatchDelta —
// the embeddings the batch created and destroyed, matched from the edges
// the batch changed and delivered in strict epoch order — until the subscription's context fires, Close is called,
// or the graph is swapped or removed:
//
//	sub, _ := router.Subscribe(ctx, "acme", q, func(md fast.MatchDelta) error {
//		handle(md.Epoch, md.Added, md.Removed)
//		return nil
//	})
//	router.ApplyDelta("acme", graph.Delta{AddEdges: [][2]graph.VertexID{{u, v}}})
//	sub.Close()
//
// # Network serving
//
// Server wraps a Router as an http.Handler — unary counts, NDJSON
// streaming, graph list/stats/swap admin endpoints, mutation
// (POST .../delta) and standing-query NDJSON streams (GET .../subscribe),
// and a Prometheus-text /metrics — with admission verdicts mapped to
// machine-readable HTTP errors (429 queue_full, 504
// deadline_doomed/queue_timeout). cmd/fastserve runs it from the command
// line; cmd/fastload replays open-loop workloads against it, and
// cmd/fastmutate replays delta workloads while watching a subscription:
//
//	server := fast.NewServer(router, fast.ServerOptions{QueryByName: ldbc.QueryByName})
//	log.Fatal(http.ListenAndServe(":8080", server))
//
// # Fault tolerance
//
// The pipeline survives partial failure under a degraded-run contract: a
// run whose faults are all absorbed — transient device faults retried away
// under Options.Retry, a dead card's partitions redistributed to surviving
// devices or the CPU path — returns counts byte-identical to the
// fault-free run, just slower, with Result.Retries/DeviceFailures/
// Redistributed recording what happened. Only exhausted retries and worker
// panics surface, always as a typed error (*DeviceFaultError,
// *KernelPanicError) on a Partial result; a panic never kills the process.
// Options.Chaos injects deterministic fault schedules for testing. The
// Router gives each tenant a circuit breaker (RouterOptions.Breaker):
// consecutive hard failures shed the tenant's calls with ErrBreakerOpen
// until a half-open probe succeeds after the cooldown. Server.Shutdown
// drains in-flight matches and ends subscription streams with a terminal
// "draining" line; handler panics become 500 internal via the recovery
// middleware.
package fast

import (
	"context"
	"fmt"
	"time"

	"fastmatch/graph"
	"fastmatch/internal/baseline"
	"fastmatch/internal/core"
	"fastmatch/internal/cst"
	"fastmatch/internal/fpgasim"
	"fastmatch/internal/host"
	"fastmatch/internal/order"
)

// Variant selects the kernel implementation being modelled (Section VI).
type Variant string

// Kernel variants, in ascending optimisation order. VariantShare is the
// paper's final configuration ("FAST"): the SEP kernel plus a CPU share of
// δ = 0.1 (Fig. 13's sweet spot).
const (
	VariantDRAM  Variant = "dram"
	VariantBasic Variant = "basic"
	VariantTask  Variant = "task"
	VariantSep   Variant = "sep"
	VariantShare Variant = "share"
)

// DefaultDelta is the CPU workload share used by VariantShare.
const DefaultDelta = 0.1

// AllVariants lists the kernel variants in ascending optimisation order.
func AllVariants() []Variant {
	return []Variant{VariantDRAM, VariantBasic, VariantTask, VariantSep, VariantShare}
}

func (v Variant) toCore() (core.Variant, float64, error) {
	switch v {
	case VariantDRAM:
		return core.VariantDRAM, 0, nil
	case VariantBasic:
		return core.VariantBasic, 0, nil
	case VariantTask:
		return core.VariantTask, 0, nil
	case VariantSep, "":
		return core.VariantSep, 0, nil
	case VariantShare:
		return core.VariantSep, DefaultDelta, nil
	}
	return 0, 0, fmt.Errorf("fast: unknown variant %q", v)
}

// DeviceConfig describes the simulated FPGA card. The zero value means the
// paper's Alveo U200 setup (300 MHz, 35 MB BRAM, 64 GB DRAM, PCIe gen3×16).
type DeviceConfig struct {
	ClockMHz    float64
	BRAMBytes   int64
	DRAMBytes   int64
	PortMax     int
	BatchSize   int // the paper's No: partial results expanded per round
	DRAMLatency int // cycles per random DRAM read (paper: 7–8)
	PCIeGBps    float64
}

// DefaultDevice returns the U200-like configuration.
func DefaultDevice() DeviceConfig {
	d := fpgasim.DefaultConfig()
	return DeviceConfig{
		ClockMHz:    d.ClockMHz,
		BRAMBytes:   d.BRAMBytes,
		DRAMBytes:   d.DRAMBytes,
		PortMax:     d.PortMax,
		BatchSize:   d.No,
		DRAMLatency: d.DRAMLatency,
		PCIeGBps:    d.PCIeGBps,
	}
}

func (dc DeviceConfig) toSim() fpgasim.Config {
	cfg := fpgasim.DefaultConfig()
	if dc.ClockMHz > 0 {
		cfg.ClockMHz = dc.ClockMHz
	}
	if dc.BRAMBytes > 0 {
		cfg.BRAMBytes = dc.BRAMBytes
	}
	if dc.DRAMBytes > 0 {
		cfg.DRAMBytes = dc.DRAMBytes
	}
	if dc.PortMax > 0 {
		cfg.PortMax = dc.PortMax
	}
	if dc.BatchSize > 0 {
		cfg.No = dc.BatchSize
	}
	if dc.DRAMLatency > 0 {
		cfg.DRAMLatency = dc.DRAMLatency
	}
	if dc.PCIeGBps > 0 {
		cfg.PCIeGBps = dc.PCIeGBps
	}
	return cfg
}

// ErrQueryTooLarge is returned, before any CST is built, for a query whose
// partial-results buffer alone exceeds the card's BRAM: no kernel could ever
// admit it. It is the caller's error, so it never counts against a tenant's
// circuit breaker, and the HTTP layer answers it with 400 bad_request.
var ErrQueryTooLarge = host.ErrQueryTooLarge

// Options configures Match. A nil *Options means VariantShare on the
// default device.
type Options struct {
	Variant  Variant
	Device   DeviceConfig
	NumFPGAs int
	// Delta overrides the CPU workload share δ (the VariantShare default is
	// DefaultDelta). A positive Delta always applies; an explicit δ = 0
	// (force everything to the FPGA) is only distinguishable from "unset"
	// when DeltaSet is true — or use the per-call WithDelta(0), which needs
	// no flag. A Delta outside [0,1) is rejected, with or without DeltaSet.
	Delta float64
	// DeltaSet marks Delta as an explicit override even when it is zero.
	// Without it a zero Delta means "use the variant's default", which made
	// δ = 0 silently inexpressible through this struct.
	DeltaSet bool
	// Order picks the matching-order strategy: "path" (default), "cfl",
	// "daf", "ceci".
	Order string
	// CollectEmbeddings materialises matches in Result.Embeddings.
	CollectEmbeddings bool
	// Workers > 1 runs CST partitions across that many goroutines with the
	// CPU δ-share processed concurrently; 0 or 1 keeps the sequential
	// pipeline. Counts do not depend on Workers.
	Workers int
	// PartitionWorkers has no effect: nothing reads it. It remains only
	// because the benchmark harness still sets it, and is removed by the next
	// change to that harness.
	PartitionWorkers int
	// PlanCacheSize bounds Engine's plan cache (distinct query structures):
	// > 0 is an explicit entry cap, 0 means DefaultPlanCacheSize, and < 0
	// keeps the cache unbounded. Least-recently-used plans are evicted and
	// transparently re-planned if the query recurs. Match ignores it.
	PlanCacheSize int
	// Chaos, when non-nil, injects deterministic faults into the pipeline
	// (see ChaosConfig for the degraded-run contract). nil injects nothing.
	Chaos *ChaosConfig
	// Retry bounds the backoff-retry applied to transient device faults.
	// The zero value means the host defaults; Max < 0 disables retries.
	Retry RetryPolicy
}

// hostConfig translates Options into the internal pipeline configuration.
func (o *Options) hostConfig() (host.Config, error) {
	variant, delta, err := o.Variant.toCore()
	if err != nil {
		return host.Config{}, err
	}
	// Range-check the engine-level override here, where NewEngine and
	// Router.AddGraph validate, so a bad δ fails at construction or
	// registration — not as a host: error after a query has already burned a
	// Prepare and a plan-cache slot. A negative δ is rejected whether or not
	// DeltaSet marks it as an override.
	if o.Delta < 0 || o.Delta >= 1 {
		return host.Config{}, fmt.Errorf("fast: Options.Delta %v outside [0,1)", o.Delta)
	}
	if o.DeltaSet || o.Delta > 0 {
		delta = o.Delta
	}
	faults, err := o.Chaos.toInjector()
	if err != nil {
		return host.Config{}, err
	}
	cfg := host.Config{
		Device:   o.Device.toSim(),
		NumFPGAs: o.NumFPGAs,
		Variant:  variant,
		Delta:    delta,
		Strategy: host.OrderStrategy(o.Order),
		Collect:  o.CollectEmbeddings,
		Workers:  o.Workers,
		Faults:   faults,
		Retry:    o.Retry.toHost(),
	}
	if cfg.Strategy == "" {
		cfg.Strategy = host.OrderPath
	}
	return cfg, nil
}

// Result reports one end-to-end match.
type Result struct {
	Count      int64
	Embeddings []graph.Embedding

	// Phase timings (see host.Report for composition semantics).
	BuildTime     time.Duration
	PartitionTime time.Duration
	TransferTime  time.Duration
	FPGATime      time.Duration
	CPUShareTime  time.Duration
	Total         time.Duration

	Partitions    int
	CPUPartitions int
	KernelCycles  int64
	CSTBytes      int64
	DataBytes     int64

	// Partial reports that the run stopped before exhausting the search
	// space — the context was cancelled, the deadline or WithTimeout budget
	// expired, a WithLimit bound was reached, or a MatchStream callback
	// returned an error. Count and the statistics cover the work done up to
	// that point.
	Partial bool
	// KernelAborts counts simulated kernel executions that a cancellation
	// interrupted between batch rounds — modelled work the budget threw
	// away.
	KernelAborts int

	// Fault-handling tallies (zero unless faults occurred or were injected).
	// A run that absorbed its faults — transients retried away, dead
	// devices' partitions redistributed — still completes with full,
	// byte-identical counts and no error; these counters are how it shows
	// it degraded. Retries counts backoff-retry attempts, DeviceFailures
	// counts devices observed dying, and Redistributed counts partitions
	// that fell back to the CPU enumeration path.
	Retries        int64
	DeviceFailures int
	Redistributed  int
}

// Match finds all embeddings of q in g using the CPU–FPGA pipeline. It is
// MatchContext with context.Background() and no per-call options — an
// unbounded, uncancellable call, kept for existing callers.
func Match(q *graph.Query, g *graph.Graph, opts *Options) (*Result, error) {
	return MatchContext(context.Background(), q, g, opts)
}

// MatchContext finds embeddings of q in g under ctx and the per-call
// options. Cancellation — ctx firing, a WithTimeout budget expiring, a
// WithLimit bound being reached — stops the pipeline at its next check
// point: between CST partitions, between kernel batch rounds, and between
// CPU δ-share embeddings, so a deadline interrupts a pathological query
// mid-flight.
//
// A cancelled call returns the partial Result (Partial set, counts covering
// the work done) together with ErrCanceled or context.DeadlineExceeded; a
// limit stop returns the partial Result with a nil error. An
// already-expired ctx returns promptly without planning. Callers that need
// repeated queries against one graph should use an Engine instead.
func MatchContext(ctx context.Context, q *graph.Query, g *graph.Graph, opts *Options, callOpts ...MatchOption) (*Result, error) {
	if opts == nil {
		opts = &Options{Variant: VariantShare}
	}
	call, err := resolveCall(callOpts)
	if err != nil {
		return nil, err
	}
	cfg, err := opts.hostConfig()
	if err != nil {
		return nil, err
	}
	call.apply(&cfg)
	ctx, cancel := call.callContext(ctx)
	defer cancel()
	return matchReport(host.Match(ctx, q, g, cfg))
}

// matchReport converts host.Match's (report, error) into the public shape:
// hard failures (bad configuration, device overflow) yield a nil Result,
// while an interrupted run keeps its partial Result alongside the error.
func matchReport(rep host.Report, err error) (*Result, error) {
	if err != nil && !rep.Partial {
		return nil, err
	}
	return resultFromReport(rep), err
}

// resultFromReport converts the internal report to the public Result.
func resultFromReport(rep host.Report) *Result {
	return &Result{
		Count:          rep.Embeddings,
		Embeddings:     rep.Collected,
		BuildTime:      rep.BuildTime,
		PartitionTime:  rep.PartitionTime,
		TransferTime:   rep.TransferTime,
		FPGATime:       rep.FPGATime,
		CPUShareTime:   rep.CPUShareTime,
		Total:          rep.Total,
		Partitions:     rep.NumPartitions,
		CPUPartitions:  rep.CPUPartitions,
		KernelCycles:   rep.KernelCycles,
		CSTBytes:       rep.CSTBytes,
		DataBytes:      rep.DataBytes,
		Partial:        rep.Partial,
		KernelAborts:   rep.KernelAborts,
		Retries:        rep.Retries,
		DeviceFailures: rep.DeviceFailures,
		Redistributed:  rep.Redistributed,
	}
}

// Count returns only the number of embeddings of q in g, using the default
// pipeline.
func Count(q *graph.Query, g *graph.Graph) (int64, error) {
	res, err := Match(q, g, nil)
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}

// Baseline names a comparison algorithm from the paper's evaluation.
type Baseline string

// The comparison algorithms of Section VII.
const (
	BaselineBacktrack Baseline = "backtrack" // plain backtracking oracle
	BaselineCFL       Baseline = "CFL"       // CFL-Match-like (edge verification)
	BaselineDAF       Baseline = "DAF"       // DAF-like (candidate space, adaptive order)
	BaselineCECI      Baseline = "CECI"      // CECI-like (intersection based)
	BaselineGpSM      Baseline = "GpSM"      // GPU-style edge joins
	BaselineGSI       Baseline = "GSI"       // GPU-style prealloc-combine joins
)

// AllBaselines lists the comparison algorithms.
func AllBaselines() []Baseline {
	return []Baseline{BaselineBacktrack, BaselineCFL, BaselineDAF, BaselineCECI, BaselineGpSM, BaselineGSI}
}

// BaselineOptions configures RunBaseline.
type BaselineOptions struct {
	// Threads > 1 wraps the algorithm with root-candidate partitioning
	// (the paper's DAF-8 / CECI-8).
	Threads int
	// MemoryBudget bounds the join algorithms' device memory (bytes);
	// exceeding it returns ErrOOM like a real GPU allocation failure.
	MemoryBudget int64
	// Timeout aborts with ErrTimeout (the paper's INF marker).
	Timeout           time.Duration
	CollectEmbeddings bool
}

// Sentinel errors surfaced from baselines.
var (
	ErrOOM     = baseline.ErrOOM
	ErrTimeout = baseline.ErrTimeout
)

// BaselineResult reports a baseline run.
type BaselineResult struct {
	Count      int64
	Embeddings []graph.Embedding
	Elapsed    time.Duration
	PeakMemory int64
}

// RunBaseline executes one comparison algorithm and measures wall time.
func RunBaseline(name Baseline, q *graph.Query, g *graph.Graph, opts BaselineOptions) (*BaselineResult, error) {
	alg, ok := baseline.Registry()[string(name)]
	if !ok {
		return nil, fmt.Errorf("fast: unknown baseline %q", name)
	}
	if opts.Threads > 1 {
		alg = baseline.Parallel(alg, opts.Threads)
	}
	start := time.Now()
	res, err := alg(q, g, baseline.Options{
		Collect:      opts.CollectEmbeddings,
		MemoryBudget: opts.MemoryBudget,
		Timeout:      opts.Timeout,
	})
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	return &BaselineResult{
		Count:      res.Count,
		Embeddings: res.Embeddings,
		Elapsed:    elapsed,
		PeakMemory: res.PeakMemory,
	}, nil
}

// EstimateWorkload exposes the paper's workload-estimation DP (Section V-C):
// the number of spanning-tree embeddings in the CST of (q, g), the quantity
// the scheduler balances between CPU and FPGA.
func EstimateWorkload(q *graph.Query, g *graph.Graph) float64 {
	root := order.SelectRoot(q, g)
	tree := order.BuildBFSTree(q, root)
	return cst.EstimateWorkload(cst.Build(q, g, tree))
}

// CSTStats summarises the CST the pipeline would build for (q, g):
// candidate totals, adjacency entries, size in bytes and the maximum
// candidate degree the partitioner bounds.
type CSTStats struct {
	Candidates int
	AdjEntries int
	SizeBytes  int64
	MaxDegree  int
}

// AnalyzeCST builds the CST for (q, g) and reports its statistics.
func AnalyzeCST(q *graph.Query, g *graph.Graph) CSTStats {
	root := order.SelectRoot(q, g)
	tree := order.BuildBFSTree(q, root)
	s := cst.Build(q, g, tree).ComputeStats()
	return CSTStats{
		Candidates: s.CandTotal,
		AdjEntries: s.AdjEntries,
		SizeBytes:  s.SizeBytes,
		MaxDegree:  s.MaxDegree,
	}
}
