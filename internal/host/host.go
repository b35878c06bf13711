// Package host implements the CPU side of the co-designed framework
// (Section IV/V): it builds the CST, partitions it under the device's BRAM
// and port budgets, estimates per-partition workloads, splits work between
// the CPU and one or more simulated FPGA cards under the δ threshold
// (Algorithm 3), offloads partitions over PCIe, runs the FAST kernel on
// each, enumerates the CPU share with the backtracking matcher, and merges
// results into an end-to-end report.
//
// That flow is one pipeline (the pipeline type): a producer that partitions
// and routes, an offload consumer for FPGA-bound partitions, a δ-share
// consumer for CPU-bound ones, and a statistics merge. Config.Workers only
// chooses where the consumers run. At 1 they run on the caller's goroutine:
// each FPGA-bound partition inline as the producer emits it, the δ-share
// when the producer returns. Above 1 the offload consumer runs on that many
// goroutines and the δ-share consumer on one more, all overlapping the
// producer — the software analogue of the paper's multi-PE parallelism and
// CPU–FPGA co-processing (Fig. 13). The producer is Algorithm 2's sequential
// recursion on the caller's goroutine at every width. Counts, the δ split and
// the kernel statistics are the same at every width.
//
// Execution is context-first: Match and Prepare take a context.Context, and
// every layer that loops observes it — the partition producer between
// restrict steps, the kernel between batch rounds, the δ-share drain per
// embedding — so a deadline interrupts a pathological query mid-flight
// instead of after it finishes. A cancelled run returns its partial Report
// (Partial set) together with the context's error. Config.Limit bounds the
// result count and Config.Emit streams embeddings as they are found.
//
// Execution is also fault-tolerant, with a degraded-run contract: a run
// whose faults are all absorbed returns the same counts as the fault-free
// run, just slower. Transient device faults (fpgasim.ErrTransient) are
// retried with bounded exponential backoff under Config.Retry; a dead
// device's queued partitions are redistributed to surviving devices or the
// CPU δ-share path; and every kernel/enumeration worker runs under a
// recover barrier that converts a panic into a *KernelPanicError (stack
// captured, pooled scratch discarded, sibling workers unaffected). A terminal
// error on any stage also stops the producer. Only exhausted retries
// (*DeviceFaultError) and panics surface as errors, always on a Partial
// report; Report.Retries, DeviceFailures and Redistributed record absorbed
// faults. Config.Inject accepts a deterministic faultinject.Injector so any
// failing schedule replays byte-identically.
package host

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fastmatch/graph"
	"fastmatch/internal/core"
	"fastmatch/internal/cst"
	"fastmatch/internal/faultinject"
	"fastmatch/internal/fpgasim"
	"fastmatch/internal/order"
)

// OrderStrategy names a matching-order policy.
type OrderStrategy string

// Matching-order strategies (Fig. 15 compares them).
const (
	OrderPath OrderStrategy = "path" // the paper's default
	OrderCFL  OrderStrategy = "cfl"
	OrderDAF  OrderStrategy = "daf"
	OrderCECI OrderStrategy = "ceci"
)

// Config drives one end-to-end match.
type Config struct {
	// Device is the FPGA card model; NumFPGAs > 1 enables the multi-FPGA
	// extension (Section VII-E). Default: one card, fpgasim.DefaultConfig.
	Device   fpgasim.Config
	NumFPGAs int
	// Variant selects the kernel implementation (default FAST-SEP, the
	// paper's final configuration before CPU sharing).
	Variant core.Variant
	// Delta is δ, the ceiling on the CPU's share of total estimated
	// workload (Algorithm 3); 0 sends everything to the FPGA. The paper
	// finds 0.1 the sweet spot (Fig. 13).
	Delta float64
	// Strategy picks the matching order; ExplicitOrder overrides it when
	// non-nil (used by the Fig. 15 order sweep).
	Strategy      OrderStrategy
	ExplicitOrder order.Order
	// Partition overrides the partition thresholds; zero values derive
	// δS from the device's BRAM budget minus the results buffer, and δD
	// from PortMax.
	Partition cst.PartitionConfig
	// Collect materialises embeddings in the report.
	Collect bool
	// Workers is the width of the consumer side of the pipeline. At 0 or 1
	// the consumers run on the caller's goroutine — no channel, no goroutine:
	// FPGA-bound partitions are offloaded inline in producer order and the
	// CPU δ-share is enumerated when the producer returns, so the emission
	// order is deterministic. Above 1 that many goroutines offload
	// FPGA-bound partitions while one more enumerates the δ-share, all
	// concurrently with the producer. Embedding counts, partition counts,
	// the δ split and the aggregated kernel statistics are identical at
	// every width. The modelled single-card FPGATime and TransferTime are
	// also width-invariant; PartitionTime and CPUShareTime are measured wall
	// times and vary only with machine noise. With NumFPGAs > 1 and
	// Workers > 1 the partition→card assignment depends on completion
	// timing, so per-card modelled times may differ run to run.
	Workers int
	// PartitionWorkers has no effect: nothing reads it. It remains only
	// because the benchmark harness still sets it, and is removed by the next
	// change to that harness.
	PartitionWorkers int
	// Pool, when non-nil, is a shared token bucket: each worker holds one
	// token per FPGA-bound partition it processes, bounding the total
	// concurrent kernel work across simultaneous Match calls that share
	// the channel (fast.Engine hands every Match the same Pool).
	Pool chan struct{}
	// Plan supplies a precomputed matching plan (root, BFS tree, order,
	// CST). Callers that repeat a query against the same graph — the
	// serving scenario — cache the Plan from Prepare and skip Phase 1
	// entirely. The Plan must have been prepared for the same (q, g, cfg
	// order settings); Match does not re-verify that.
	Plan *Plan
	// Limit, when > 0, stops the run after that many embeddings. The count
	// is exact and deterministic — min(Limit, total) — regardless of
	// Workers: every counted embedding holds a slot reserved from one shared
	// budget. A limit stop is not an error; the Report just comes back
	// Partial.
	Limit int64
	// Emit, when non-nil, receives every embedding as it is found. Calls
	// are serialized (the callback never runs concurrently with itself),
	// but with Workers > 1 the arrival order is unspecified. Returning a
	// non-nil error cancels the run; Match returns that error with the
	// partial Report.
	Emit func(graph.Embedding) error
	// Faults, when non-nil, injects scheduled faults into the run: it is
	// handed to every device (staging faults, latency spikes, card death)
	// and evaluated at the kernel-launch and CPU δ-share sites. nil injects
	// nothing and adds no work to the fault-free pipeline.
	Faults *faultinject.Injector
	// Retry bounds the backoff-retry applied to transient device faults.
	// The zero value means the package defaults (DefaultRetryMax etc.);
	// Max < 0 disables retries.
	Retry RetryPolicy
}

func (c Config) withDefaults(q *graph.Query) Config {
	if c.Device.ClockMHz == 0 {
		c.Device = fpgasim.DefaultConfig()
	}
	if c.NumFPGAs < 1 {
		c.NumFPGAs = 1
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Strategy == "" {
		c.Strategy = OrderPath
	}
	def := DefaultPartition(c.Device, q.NumVertices())
	if c.Partition.MaxSizeBytes == 0 {
		c.Partition.MaxSizeBytes = def.MaxSizeBytes
	}
	if c.Partition.MaxCandDegree == 0 {
		c.Partition.MaxCandDegree = def.MaxCandDegree
	}
	return c
}

// ErrQueryTooLarge reports a query whose partial-results buffer alone
// exceeds the card's BRAM. No kernel can admit any piece of such a query's
// CST, however small, so Prepare rejects it before building one. It is the
// caller's error, not the engine's.
var ErrQueryTooLarge = errors.New("host: query too large for the card")

// DefaultPartition derives the partition thresholds of Section V-B from the
// card for a query of nq vertices: δS is the BRAM left once the
// partial-results buffer is placed (floored at 1 KiB when the buffer leaves
// less), δD the port budget.
func DefaultPartition(dev fpgasim.Config, nq int) cst.PartitionConfig {
	size := dev.BRAMBytes - dev.BufferBytes(nq)
	if size < 1024 {
		size = 1024
	}
	return cst.PartitionConfig{MaxSizeBytes: size, MaxCandDegree: dev.PortMax}
}

// kernelScratch pools core.Scratch values across kernel runs — and across
// Match calls, since the pool is package-level — so steady-state serving
// performs no per-run arena allocation: each kernel execution borrows the
// partial-mapping arena for its duration and returns it when done.
var kernelScratch = sync.Pool{New: func() any { return new(core.Scratch) }}

// runKernel executes one kernel over p with a pooled scratch, under the
// run's recover barrier: a panic inside the kernel (injected or real) is
// converted into a *KernelPanicError with the stack captured, and the
// scratch the panicking run may have corrupted is dropped instead of being
// returned to the pool — sibling workers keep their own scratches and are
// unaffected. The fault site is evaluated before core.Run, so a faulted
// launch has produced no embeddings and is safe to retry.
//
//fastmatch:recoverbarrier
func runKernel(p *cst.CST, o order.Order, opts core.Options, faults *faultinject.Injector) (res core.Result, err error) {
	s := kernelScratch.Get().(*core.Scratch)
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(faultinject.SiteKernel, r)
			return
		}
		kernelScratch.Put(s)
	}()
	if out := faults.Eval(faultinject.SiteKernel); out.Fault {
		if out.Kind == faultinject.Panic {
			panic(out.Error())
		}
		// Transient and Death degrade alike to a retryable launch fault —
		// the kernel site has no per-card state to kill.
		return core.Result{}, fmt.Errorf("host: kernel launch: %w", out.Error())
	} else if out.Delay > 0 {
		// A latency spike at the launch site is real host-side time.
		time.Sleep(out.Delay)
	}
	opts.Scratch = s
	return core.Run(p, o, opts)
}

// Plan is the output of Phase 1: everything Match derives from (q, g)
// before partitioning starts. A Plan is immutable after Prepare and safe to
// share between concurrent Match calls — the CST is read-only during
// matching, which is what makes the plan cache sound.
type Plan struct {
	Root  graph.QueryVertex
	Tree  *order.Tree
	Order order.Order
	CST   *cst.CST
}

// Prepare runs Phase 1 (root selection, BFS tree, CST construction —
// Algorithm 1 — and matching-order selection) and returns the reusable
// plan. cfg contributes the order settings (Strategy/ExplicitOrder), the
// build width (Workers) and the card (Device). An already-cancelled ctx
// returns its error before any work, and a query whose partial-results
// buffer exceeds the card's BRAM returns ErrQueryTooLarge; Phase 1 is
// otherwise not interruptible (it is one CST construction, not a loop).
func Prepare(ctx context.Context, q *graph.Query, g *graph.Graph, cfg Config) (*Plan, error) {
	cfg, err := prepareConfig(ctx, q, cfg)
	if err != nil {
		return nil, err
	}
	root := order.SelectRoot(q, g)
	tree := order.BuildBFSTree(q, root)
	c := cst.BuildWorkers(q, g, tree, cfg.Workers)
	o := cfg.ExplicitOrder
	if o == nil {
		switch cfg.Strategy {
		case OrderCFL:
			o = order.CFLLike(tree, c)
		case OrderDAF:
			o = order.DAFLike(tree, c)
		case OrderCECI:
			o = order.CECILike(tree, c)
		default:
			o = order.PathBased(tree, c)
		}
	}
	if err := o.Validate(tree); err != nil {
		return nil, fmt.Errorf("host: %v", err)
	}
	return &Plan{Root: root, Tree: tree, Order: o, CST: c}, nil
}

// PrepareSeeded is Prepare with the planning decisions (root, BFS tree,
// matching order) carried over from a seed plan prepared for the same query
// against an earlier epoch of the same graph: only the CST — the part that
// depends on the data — is rebuilt. Any valid matching order yields the
// identical embedding set (the CST is a complete search space for every
// order over its tree), so seeding trades possibly mildly stale order
// heuristics for skipping root/tree/order selection; the serving layer uses
// it to keep plan caches warm across ApplyDelta batches whose label set is
// unchanged. A nil seed falls back to a full Prepare.
func PrepareSeeded(ctx context.Context, q *graph.Query, g *graph.Graph, cfg Config, seed *Plan) (*Plan, error) {
	if seed == nil {
		return Prepare(ctx, q, g, cfg)
	}
	cfg, err := prepareConfig(ctx, q, cfg)
	if err != nil {
		return nil, err
	}
	c := cst.BuildWorkers(q, g, seed.Tree, cfg.Workers)
	return &Plan{Root: seed.Root, Tree: seed.Tree, Order: seed.Order, CST: c}, nil
}

// prepareConfig applies cfg's defaults after the checks Prepare and
// PrepareSeeded make before building a CST: the context is live, and the
// query's partial-results buffer fits the card's BRAM.
func prepareConfig(ctx context.Context, q *graph.Query, cfg Config) (Config, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return cfg, err
		}
	}
	cfg = cfg.withDefaults(q)
	nq := q.NumVertices()
	if buf := cfg.Device.BufferBytes(nq); buf > cfg.Device.BRAMBytes {
		return cfg, fmt.Errorf("%w: a %d-vertex query needs a %d B partial-results buffer, BRAM holds %d B",
			ErrQueryTooLarge, nq, buf, cfg.Device.BRAMBytes)
	}
	return cfg, nil
}

// Report is the end-to-end outcome of a match.
type Report struct {
	Query      string
	Embeddings int64
	Collected  []graph.Embedding

	// Phase timings. BuildTime and PartitionTime are measured host wall
	// time; TransferTime is the modelled PCIe cost; FPGATime is the
	// slowest card's kernel busy time; CPUShareTime is the measured time
	// spent enumerating the host's share (partitions a total device loss
	// redistributed to the CPU included). Total composes them the way the
	// pipeline runs: build, then partition, then max(card completion, CPU
	// share) since the CPU processes its share while cards drain theirs. With
	// Workers > 1 partitioning additionally overlaps kernel execution
	// (PartitionTime still counts only the partitioner's own work, not
	// waits on busy workers), so real host wall-clock runs ahead of the
	// modelled Total.
	BuildTime     time.Duration
	PartitionTime time.Duration
	TransferTime  time.Duration
	FPGATime      time.Duration
	CPUShareTime  time.Duration
	Total         time.Duration

	// Workload split (Algorithm 3's W_C and W_F).
	CPUWorkload, FPGAWorkload float64
	CPUPartitions             int
	NumPartitions             int

	// Aggregated kernel statistics across all partitions.
	KernelCycles    int64
	KernelPartials  int64 // N
	KernelEdgeTasks int64 // M
	KernelRounds    int64
	CSTBytes        int64 // total across partitions
	DataBytes       int64 // data graph size, for Fig. 9's S_CST/S_G
	MaxBufferUse    int
	Devices         int

	// Partial reports that the run stopped before exhausting the search
	// space — the context fired, the Emit callback failed, Limit was
	// reached, or a fault-class error ended the run — so Embeddings and the
	// statistics cover only the work done.
	Partial bool
	// KernelAborts counts kernel executions cancelled between batch rounds.
	KernelAborts int

	// Fault-handling tallies. A run that absorbed faults — transient
	// staging or launch errors retried away, a dead card's partitions
	// redistributed — still completes with its full, byte-identical counts
	// and no error; these counters are how such a run shows it degraded.
	// Retries counts backoff-retry attempts, DeviceFailures counts cards
	// observed dying, and Redistributed counts partitions that fell back to
	// the CPU enumeration path because no healthy card remained.
	Retries        int64
	DeviceFailures int
	Redistributed  int
}

// Match runs the full CPU–FPGA pipeline for q over g. A nil ctx is treated
// as context.Background(). When ctx is cancelled (or its deadline expires)
// mid-run the pipeline stops at its next check point — between partitions,
// between kernel batch rounds, between δ-share embeddings — and Match
// returns the partial Report (Partial set, counts covering the work done)
// together with the context's error. A run that completed all its work
// before observing the cancellation returns its full Report and no error.
func Match(ctx context.Context, q *graph.Query, g *graph.Graph, cfg Config) (Report, error) {
	cfg = cfg.withDefaults(q)
	if err := cfg.Device.Validate(); err != nil {
		return Report{}, err
	}
	if cfg.Delta < 0 || cfg.Delta >= 1 {
		return Report{}, fmt.Errorf("host: delta %v outside [0,1)", cfg.Delta)
	}
	if ctx == nil {
		ctx = context.Background()
	}

	rep := Report{Query: q.Name(), DataBytes: g.SizeBytes(), Devices: cfg.NumFPGAs}

	// An already-expired context returns promptly, before Phase 1.
	if err := ctx.Err(); err != nil {
		rep.Partial = true
		return rep, err
	}
	ct := newRunControl(ctx, cfg)

	// Phase 1: CST construction (Algorithm 1) on the host — or a plan
	// cache hit, which reduces this phase to nothing.
	buildStart := time.Now()
	plan := cfg.Plan
	if plan == nil {
		var err error
		plan, err = Prepare(ctx, q, g, cfg)
		if err != nil {
			if errors.Is(err, ctx.Err()) && ctx.Err() != nil {
				rep.Partial = true
				return rep, err
			}
			return Report{}, err
		}
	}
	c, o := plan.CST, plan.Order
	rep.BuildTime = time.Since(buildStart)
	if c.IsEmpty() {
		rep.Total = rep.BuildTime
		return rep, nil
	}
	if ct.active() && ct.cancelled() {
		rep.Partial = true
		rep.Total = rep.BuildTime
		return rep, ct.err()
	}

	// Devices.
	devices := make([]*fpgasim.Device, cfg.NumFPGAs)
	transfer := make([]time.Duration, cfg.NumFPGAs)
	for i := range devices {
		d, err := fpgasim.NewDevice(i, cfg.Device)
		if err != nil {
			return Report{}, err
		}
		d.Faults = cfg.Faults
		devices[i] = d
	}

	// Phases 2–5: partition, schedule, execute. A fault-class error — a
	// recovered panic or an exhausted retry budget — keeps the partial
	// Report (the completion accounting below still applies to the work
	// done); any other error keeps the original discard semantics.
	err := newPipeline(cfg, ct, &rep, o, devices, transfer).run(c)
	ct.fstats.fold(&rep)
	if err != nil && !isFaultError(err) {
		return Report{}, err
	}

	// Completion: cards run concurrently with each other and with the
	// CPU's share.
	for i, d := range devices {
		if t := transfer[i] + d.Busy(); t > rep.FPGATime {
			rep.FPGATime = t
		}
		rep.TransferTime += transfer[i]
		rep.KernelAborts += d.Aborts()
	}
	concurrent := rep.FPGATime
	if rep.CPUShareTime > concurrent {
		concurrent = rep.CPUShareTime
	}
	rep.Total = rep.BuildTime + rep.PartitionTime + concurrent
	rep.Partial = ct.partial() || err != nil
	if err != nil {
		return rep, err
	}
	return rep, ct.err()
}

// pipeline is one Match call's phases 2–5, the paper's single CPU-side flow:
// a producer partitions the CST (Algorithm 2) and routes every piece by the δ
// test (Algorithm 3); the offload consumer stages an FPGA-bound piece on a
// card and runs the kernel on it; the share consumer enumerates a CPU-bound
// piece with the backtracking matcher; the per-consumer statistics are merged
// into the Report when everything has drained. Config.Workers selects only
// where the two consumers run (see dispatch) — the producer, the routing and
// both consumers are the same code at every width, which is what makes the
// counts and the δ split independent of it.
type pipeline struct {
	cfg   Config
	ct    *runControl
	rep   *Report
	o     order.Order
	kopts core.Options

	// Producer state, touched only on the producer (the caller's) goroutine.
	sched      scheduler
	workload   *cst.WorkloadTable // the δ estimate's DP table, pooled across Match calls
	lastResume time.Time          // where the PartitionTime clock last started
	cpuQueue   []*cst.CST         // Workers <= 1: the δ-share, drained when the producer returns
	fpgaCh     chan *cst.CST      // Workers > 1: the consumers' bounded queues
	cpuCh      chan *cst.CST
	stats      []consumerStats // [w] is offload worker w's; [0] the inline pool's
	shareStats consumerStats   // the δ-share consumer's

	// Card state, guarded by devMu. Up to Workers pieces are staged at once,
	// so a piece that finds no card with room waits on devCond for an
	// in-flight one to release; inflight > 0 is the guarantee that a release
	// — and with it a wake-up — is coming.
	devMu    sync.Mutex
	devCond  sync.Cond
	devices  []*fpgasim.Device
	transfer []time.Duration
	inflight int

	// First terminal error from any stage; stop tells every other stage.
	stop    atomic.Bool
	errOnce sync.Once
	err     error
}

// consumerStats is one consumer's private accumulator; merging them in index
// order after the consumers drain keeps totals deterministic without shared
// counters.
type consumerStats struct {
	embeddings int64
	cycles     int64
	partials   int64
	edgeTasks  int64
	rounds     int64
	maxBuffer  int
	shareTime  time.Duration // active δ-share enumeration time
	collected  []graph.Embedding
}

func newPipeline(cfg Config, ct *runControl, rep *Report, o order.Order, devices []*fpgasim.Device, transfer []time.Duration) *pipeline {
	p := &pipeline{
		cfg: cfg, ct: ct, rep: rep, o: o,
		sched:   scheduler{delta: cfg.Delta},
		devices: devices, transfer: transfer,
	}
	p.devCond.L = &p.devMu
	// The kernels poll the halt state between batch rounds and the producer
	// between (and inside) restrict steps, so a deadline or a terminal error
	// on any stage interrupts a pathological piece mid-flight and stops the
	// split tree from being walked to the end only to be discarded. The
	// result-slot reservation is installed only for calls that can actually
	// cancel, limit or stream.
	halted := p.halted
	p.kopts = core.Options{Variant: cfg.Variant, Config: cfg.Device, Collect: cfg.Collect, Cancel: halted}
	p.cfg.Partition.Cancel = halted
	if ct.active() {
		p.kopts.Take = ct.take
	}
	if ct.emit != nil {
		p.kopts.Emit = func(e graph.Embedding) { ct.send(e) }
	}
	// FAST-SHARE's partitioning shortcut (Section VII-B): a CST that still
	// violates the BRAM/port thresholds may go straight to the CPU — which
	// has no such constraints — instead of being split further, saving the
	// recursive partitioning cost. The δ budget gates it.
	if cfg.Delta > 0 {
		p.cfg.Partition.Steal = p.steal
	}
	return p
}

// fail records the run's first terminal error and halts every stage.
func (p *pipeline) fail(err error) {
	p.errOnce.Do(func() { p.err = err })
	p.stop.Store(true)
}

// halted folds the two stop sources every stage checks: a terminal error on
// any stage, and the call's cancellation (context, limit, emit failure).
func (p *pipeline) halted() bool { return p.stop.Load() || p.ct.cancelled() }

// run drives phases 2–5 to completion and returns the first terminal error.
// The statistics of the work done are merged into the Report either way, so
// a fault-class error still comes back on a Report covering that work.
func (p *pipeline) run(c *cst.CST) error {
	stats := make([]consumerStats, p.cfg.Workers) // one per offload worker; dispatch reaches [0] through p
	p.stats = stats
	var wg sync.WaitGroup
	if p.cfg.Workers > 1 {
		// Modest buffers: enough to decouple the producer from consumer
		// jitter, capped so the resident pieces a Match can hold (buffers plus
		// one dequeued per worker) stay small — backpressure on the producer
		// is free, its waits are excluded from PartitionTime. After a halt the
		// consumers keep draining without processing, so the producer can
		// never block forever.
		buf := min(p.cfg.Workers*2, 8)
		p.fpgaCh = make(chan *cst.CST, buf)
		p.cpuCh = make(chan *cst.CST, buf)
		for w := 0; w < p.cfg.Workers; w++ {
			wg.Add(1)
			go func(st *consumerStats) {
				defer wg.Done()
				for piece := range p.fpgaCh {
					if !p.halted() {
						p.offload(piece, st)
					}
					piece.Recycle()
				}
			}(&stats[w])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for piece := range p.cpuCh {
				if !p.halted() {
					p.share(piece, &p.shareStats)
				}
				piece.Recycle()
			}
		}()
	}

	if err := p.produce(c); err != nil {
		p.fail(err)
	}
	if p.cfg.Workers > 1 {
		close(p.fpgaCh)
		close(p.cpuCh)
		wg.Wait()
	} else {
		// Section V-C: the CPU processes its cached share once partitioning
		// finishes.
		for _, piece := range p.cpuQueue {
			if !p.halted() {
				p.share(piece, &p.shareStats)
			}
			piece.Recycle()
		}
	}

	for i := range stats {
		p.rep.merge(&stats[i])
	}
	p.rep.merge(&p.shareStats)
	p.rep.CPUWorkload, p.rep.FPGAWorkload = p.sched.wc, p.sched.wf
	return p.err
}

// merge folds one consumer's accumulator into the report.
func (r *Report) merge(st *consumerStats) {
	r.Embeddings += st.embeddings
	r.KernelCycles += st.cycles
	r.KernelPartials += st.partials
	r.KernelEdgeTasks += st.edgeTasks
	r.KernelRounds += st.rounds
	r.MaxBufferUse = max(r.MaxBufferUse, st.maxBuffer)
	r.CPUShareTime += st.shareTime
	if r.Collected == nil {
		r.Collected = st.collected // the common case adopts the slice instead of copying it
	} else {
		r.Collected = append(r.Collected, st.collected...)
	}
}

// produce runs Algorithms 2 and 3 on the caller's goroutine under the run's
// recover barrier: a panic anywhere in the producer — Algorithm 2 itself or
// an inline consumer — becomes a typed error here, before the queues close,
// so the consumers always drain and the WaitGroup always resolves.
//
// PartitionTime accounts only the producer's own work: the clock stops
// around every dispatch, so neither an inline kernel run nor a backpressure
// wait on a full queue (both already counted in FPGATime / CPUShareTime) is
// double-counted into Total.
//
//fastmatch:recoverbarrier
func (p *pipeline) produce(c *cst.CST) (err error) {
	wt := workloadTables.Get().(*cst.WorkloadTable)
	defer workloadTables.Put(wt)
	p.workload = wt
	p.lastResume = time.Now()
	defer func() {
		p.rep.PartitionTime += time.Since(p.lastResume)
		if r := recover(); r != nil {
			err = newPanicError("partition", r)
		}
	}()
	p.rep.NumPartitions = cst.Partition(c, p.o, p.cfg.Partition, p.route)
	return nil
}

// steal is the Partition Steal hook: the non-committing δ test on the price
// of a piece that still violates the thresholds. Only a piece the CPU takes
// is built; a build cut short by the halt declines.
func (p *pipeline) steal(o cst.Offer) bool {
	if !p.sched.tryCPU(o.Workload) {
		return false
	}
	piece := o.Build()
	if piece == nil {
		return false
	}
	p.rep.CSTBytes += piece.SizeBytes()
	p.dispatch(piece, true)
	return true
}

// workloadTables pools the δ estimate's DP table across Match calls, as
// enumerators does the δ-share's Enumerator, so a warm Match regrows none.
var workloadTables = sync.Pool{New: func() any { return new(cst.WorkloadTable) }}

// route is the Partition process callback: the δ test on a finished piece.
func (p *pipeline) route(piece *cst.CST) {
	if p.halted() {
		piece.Recycle()
		return
	}
	w := p.workload.Estimate(piece)
	p.rep.CSTBytes += piece.SizeBytes()
	p.dispatch(piece, p.sched.assignToCPU(w))
}

// dispatch hands a routed piece to its consumer. Workers <= 1 is the
// degenerate pool that runs the consumers on the producer's goroutine — an
// FPGA-bound piece inline, in producer order, the δ-share queued until the
// producer returns — with no channel and no goroutine, which is what keeps a
// cached-plan one-piece Match at a few dozen allocations
// (TestMatchAllocsBounded). Workers > 1 feeds the same consumers through the
// bounded queues. The piece is recycled (cst.Partition's contract) where a
// consumer returns, or where a halted stage drops it: here after the inline
// offload, in the consumer loops, never inside offload or share, so the
// fallback from one to the other recycles once.
func (p *pipeline) dispatch(piece *cst.CST, toCPU bool) {
	p.rep.PartitionTime += time.Since(p.lastResume)
	if toCPU {
		p.rep.CPUPartitions++
	}
	switch {
	case p.fpgaCh == nil && toCPU:
		p.cpuQueue = append(p.cpuQueue, piece)
	case p.fpgaCh == nil:
		p.offload(piece, &p.stats[0])
		piece.Recycle()
	case toCPU:
		p.cpuCh <- piece
	default:
		p.fpgaCh <- piece
	}
	p.lastResume = time.Now()
}

// offload is the FPGA-side consumer for one piece: take a pool token, stage
// the piece on a card, run the kernel, release the card and the token, and
// accumulate into st. Losing the last card degrades the piece to the CPU
// enumeration path on this goroutine — identical counts, just slower; the
// token stays held, it is real work.
func (p *pipeline) offload(piece *cst.CST, st *consumerStats) {
	// A shared Pool bounds kernel work across Match calls. The acquire is
	// cancellable: a deadlined call must not queue behind other tenants on a
	// saturated budget.
	if p.cfg.Pool != nil {
		if !p.ct.acquirePool(p.cfg.Pool) {
			return
		}
		defer func() { <-p.cfg.Pool }()
	}
	dev, err := p.stage(piece)
	switch {
	case err == errAllDevicesDead:
		p.ct.fstats.redistributed.Add(1)
		p.share(piece, st)
		return
	case err == errRunHalted:
		return
	case err != nil:
		p.fail(err)
		return
	}
	res, err := runKernelWithRetry(p.ct, piece, p.o, p.kopts)
	if err != nil {
		p.release(dev, piece, 0, false)
		if err != errRunHalted {
			p.fail(err)
		}
		return
	}
	p.release(dev, piece, res.Cycles, res.Stopped && p.ct.abortive())
	st.embeddings += res.Count
	st.cycles += res.Cycles
	st.partials += res.Partials
	st.edgeTasks += res.EdgeTasks
	st.rounds += res.Rounds
	st.maxBuffer = max(st.maxBuffer, res.BufferHighWater)
	st.collected = append(st.collected, res.Embeddings...)
}

// share is the CPU-side consumer for one piece: enumerate it with the
// backtracking matcher under the control's budget (cancellation and the
// limit are observed per embedding) and accumulate into st.
func (p *pipeline) share(piece *cst.CST, st *consumerStats) {
	start := time.Now()
	n, err := enumerateShare(p.ct, piece, p.o, p.cfg.Collect, &st.collected)
	st.embeddings += n
	st.shareTime += time.Since(start)
	if err != nil {
		p.fail(err)
	}
}

// scheduler is Algorithm 3's running-total state.
type scheduler struct {
	delta  float64
	wc, wf float64
}

// assignToCPU implements the δ test for a finished partition: the CST goes
// to the CPU only while the CPU's share (including it) stays below δ of the
// total; otherwise its workload is committed to the FPGA side.
func (s *scheduler) assignToCPU(w float64) bool {
	if s.tryCPU(w) {
		return true
	}
	s.wf += w
	return false
}

// tryCPU is the non-committing δ test used for the partitioning shortcut:
// a rejected CST will be split further and its pieces accounted when they
// are scheduled, so nothing is added to W_F here.
func (s *scheduler) tryCPU(w float64) bool {
	if s.delta <= 0 {
		return false
	}
	if s.wc+w < s.delta*(s.wc+s.wf+w) {
		s.wc += w
		return true
	}
	return false
}
