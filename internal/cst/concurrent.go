package cst

import (
	"runtime/debug"
	"sync"
	"sync/atomic"

	"fastmatch/internal/order"
)

// partitionPool is a bounded LIFO task pool. LIFO scheduling makes the
// workers expand the split tree depth-first, which keeps the set of live
// intermediate CSTs close to the sequential recursion's footprint instead of
// materialising a whole breadth-first frontier. Every worker owns one
// restrictScratch handed to each task it runs, so the restrict steps reuse
// their bookkeeping buffers across tasks instead of allocating per piece.
type partitionPool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	stack  []func(*restrictScratch)
	active int
	cancel func() bool // the caller's Cancel hook; folded into cancelled with abort

	// abort is set when a task panics (and by the ordered drain when its
	// own delivery panics): remaining tasks shrink to near-no-ops exactly
	// as under a cancellation, so the pool drains fast and every worker
	// exits. panicked records the first worker panic for the caller-side
	// rethrow.
	abort    atomic.Bool
	panicMu  sync.Mutex
	panicked *WorkerPanic
}

func newPartitionPool(cancel func() bool) *partitionPool {
	p := &partitionPool{cancel: cancel}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// cancelled is the pool's stop poll, folding the caller's Cancel hook with
// the panic-abort flag; the producers install it as their PartitionConfig
// Cancel so tasks, restricts and the ordered drain all observe a worker
// panic the way they observe a cancellation.
func (p *partitionPool) cancelled() bool {
	if p.abort.Load() {
		return true
	}
	return p.cancel != nil && p.cancel()
}

// runTask executes one task under the worker's recover barrier: a panic is
// recorded (first one wins) and aborts the pool instead of killing the
// worker, so the pop loop's bookkeeping always runs and waiters never block
// on a dead worker.
func (p *partitionPool) runTask(t func(*restrictScratch), sc *restrictScratch) {
	defer func() {
		if r := recover(); r != nil {
			p.recordPanic(r, debug.Stack())
		}
	}()
	t(sc)
}

func (p *partitionPool) recordPanic(value any, stack []byte) {
	p.abort.Store(true)
	p.panicMu.Lock()
	if p.panicked == nil {
		p.panicked = &WorkerPanic{Value: value, Stack: stack}
	}
	p.panicMu.Unlock()
}

// rethrow re-throws the first recorded worker panic on the calling
// goroutine; the caller must only invoke it after the workers have exited.
func (p *partitionPool) rethrow() {
	p.panicMu.Lock()
	wp := p.panicked
	p.panicMu.Unlock()
	if wp != nil {
		panic(wp)
	}
}

func (p *partitionPool) push(t func(*restrictScratch)) {
	p.mu.Lock()
	p.stack = append(p.stack, t)
	p.mu.Unlock()
	p.cond.Signal()
}

// run is one worker's loop: pop and execute tasks until the stack is empty
// and no task is running anywhere (a running task may still push new ones).
// The pop loop itself must drain the stack to terminate — a cancelled pool
// stops producing because each popped task polls sc.cancel inside restrict,
// shrinking every task to a near-no-op rather than abandoning the stack.
//
//fastmatch:nolint cancelpoll drain protocol: tasks poll sc.cancel internally; the pop loop must empty the stack to release waiters
func (p *partitionPool) run() {
	sc := &restrictScratch{cancel: p.cancelled}
	p.mu.Lock()
	for {
		for len(p.stack) == 0 && p.active > 0 {
			p.cond.Wait()
		}
		if len(p.stack) == 0 {
			p.mu.Unlock()
			return
		}
		t := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		p.active++
		p.mu.Unlock()
		p.runTask(t, sc)
		p.mu.Lock()
		p.active--
		if p.active == 0 && len(p.stack) == 0 {
			p.cond.Broadcast() // drained: wake every idle worker to exit
		}
	}
}

// splitAt mirrors one level of Partition's recursion: the clamped partition
// factor at order position index, or 1 when the CST cannot be split there.
func splitAt(cur *CST, o order.Order, cfg PartitionConfig, index int) (u int, k int) {
	u = o[index]
	k = cfg.partitionFactor(cur)
	if k > len(cur.Cand[u]) {
		k = len(cur.Cand[u])
	}
	return u, k
}

// onode is one node of the concurrent producer's split tree: either a valid piece
// to emit, an empty restriction to skip, or a still-violating CST whose
// Steal offer and children are replayed at drain time. Workers fill a node
// in and close ready; the caller's drain walks the tree in sequential order.
type onode struct {
	ready     chan struct{}
	readyOnce sync.Once // closeReady: panic paths and normal paths may both fire
	piece     *CST      // non-nil: emit (Fits, or atomic with the order exhausted)
	steal     *CST      // non-nil: violating; offer Steal, then descend children
	children  []*onode  // in sequential (chunk) order
	// parent links the node to the split-tree node it was speculated under;
	// stolen is set by the drain when cfg.Steal takes this node. A worker
	// about to compute a node first walks the parent chain: any stolen
	// ancestor means the drain will never visit this subtree, so the
	// restrict work would be pure waste and is skipped (the node reads as
	// an empty restriction; its ready channel still closes).
	parent *onode
	stolen atomic.Bool
}

// closeReady closes the node's ready channel exactly once. Compute paths
// close it as early as they can (so the drain runs concurrently with
// speculation) and additionally guarantee it via defer — a panicking task
// must never leave the drain blocked on a channel nobody will close.
func (n *onode) closeReady() { n.readyOnce.Do(func() { close(n.ready) }) }

// abandoned reports whether this node or any ancestor was taken by Steal.
// The chain is as deep as the split tree, which is logarithmic in practice.
func (n *onode) abandoned() bool {
	for a := n; a != nil; a = a.parent {
		if a.stolen.Load() {
			return true
		}
	}
	return false
}

// testOrderedHook, when non-nil, receives the producer's lifecycle events:
// "chunk-start" before a speculative chunk task's skip checks,
// "chunk-restrict" when the task proceeds to its restrict, and "stolen"
// right after the drain marks a Steal-taken node. Tests install it (before
// the producer starts, removed after it returns) to hold workers at the
// gate until a Steal decision lands, making the speculation-skip behaviour
// deterministic to observe. Always nil in production.
var testOrderedHook func(event string)

// PartitionConcurrent is Partition with the producer itself parallelised:
// Algorithm 2's recursion is unrolled into a bounded task pool of `workers`
// goroutines in which every restrict-and-recurse step on a still-violating
// piece is an independently schedulable task, so on a multi-core host the
// partitioner no longer serialises in front of the kernel fan-out. The
// schedule is Partition's, exactly: the pool computes the split tree while
// the caller's goroutine drains it, so process calls and cfg.Steal offers
// happen on the caller's goroutine, in the order and with the arguments
// Partition would use (restrict is deterministic and the split tree does not
// depend on execution order). host.Match relies on this: Algorithm 3's δ
// routing sees partitions in the same order at every producer width, keeping
// the δ split, partition counts and embedding totals deterministic. The
// return value counts processed plus stolen pieces, exactly like Partition;
// workers <= 1 degrades to Partition itself.
//
// Workers run ahead of Steal decisions speculatively: once the drain lets
// Steal take a node, the node is marked stolen and speculating workers skip
// every descendant not yet computed (pieces already materialised are
// discarded) — the waste is bounded by the restricts in flight at decision
// time instead of the whole stolen subtree.
//
// Speculation is not backpressured: when process is much slower than
// restrict (kernel execution inline, or a blocking channel send), workers
// can materialise the whole split tree ahead of the drain, so peak memory
// approaches the sum of all piece sizes instead of the sequential
// recursion's live path. Fine at the scales this repo models; a bounded
// speculation window that doesn't deadlock against the DFS drain cursor is
// a ROADMAP item before partitioning data graphs that dwarf host RAM.
func PartitionConcurrent(c *CST, o order.Order, cfg PartitionConfig, workers int, process func(*CST)) int {
	if workers <= 1 {
		return Partition(c, o, cfg, process)
	}
	pool := newPartitionPool(cfg.Cancel)
	// Tasks and the drain observe a worker panic the way they observe a
	// cancellation (the pool folds its abort flag into the stop poll), so
	// speculation collapses and the workers quiesce after a panic.
	cfg.Cancel = pool.cancelled

	// computeNode fills n for one rec(cur, index) invocation; computeChunk
	// is one iteration of rec's split loop (the restrict task). Both close
	// n.ready as early as possible on their normal paths and guarantee the
	// close via defer: a panic between node creation and the explicit close
	// must not leave the drain blocked forever — that was the pre-barrier
	// deadlock.
	var computeNode func(sc *restrictScratch, n *onode, cur *CST, index int)
	var computeChunk func(sc *restrictScratch, n *onode, cur *CST, index, i, k int)
	computeNode = func(sc *restrictScratch, n *onode, cur *CST, index int) {
		defer n.closeReady()
		if cfg.cancelled() || n.abandoned() {
			// Abandon speculation: the node reads as an empty restriction.
			return
		}
		if cfg.Fits(cur) || index >= len(o) {
			n.piece = cur
			return
		}
		n.steal = cur
		_, k := splitAt(cur, o, cfg, index)
		if k <= 1 {
			// Sequential rec(cur, index+1): one child node so the drain
			// replays the repeated Steal offer at the next order position.
			child := &onode{ready: make(chan struct{}), parent: n}
			n.children = []*onode{child}
			n.closeReady()
			computeNode(sc, child, cur, index+1)
			return
		}
		// Work from a local snapshot of the children: once ready closes, the
		// n.children field belongs to the drain, which nils it after its
		// visit — without waiting for speculating workers — so no compute
		// path may touch the field (or index through it) past this point.
		children := make([]*onode, k)
		//fastmatch:nolint cancelpoll k is the split fan-out from splitAt (chunk count), not candidate data
		for i := range children {
			children[i] = &onode{ready: make(chan struct{}), parent: n}
		}
		n.children = children
		n.closeReady()
		for i := 1; i < k; i++ {
			child, i := children[i], i
			pool.push(func(sc *restrictScratch) { computeChunk(sc, child, cur, index, i, k) })
		}
		computeChunk(sc, children[0], cur, index, 0, k)
	}
	computeChunk = func(sc *restrictScratch, n *onode, cur *CST, index, i, k int) {
		defer n.closeReady()
		if testOrderedHook != nil {
			testOrderedHook("chunk-start")
		}
		if cfg.cancelled() || n.abandoned() {
			return
		}
		if testOrderedHook != nil {
			testOrderedHook("chunk-restrict")
		}
		u := o[index]
		part := restrict(cur, u, evenChunk(len(cur.Cand[u]), k, i), sc)
		if part == nil {
			// Cancelled mid-restrict: the node reads as an empty restriction.
			return
		}
		if part.IsEmpty() {
			return // empty node: drain skips it
		}
		next := index
		if len(part.Cand[u]) == 1 {
			next = index + 1
		}
		// A fitting part short-circuits to a leaf inside computeNode, so
		// this covers all three arms of the sequential switch.
		computeNode(sc, n, part, next)
	}

	root := &onode{ready: make(chan struct{})}
	pool.push(func(sc *restrictScratch) { computeNode(sc, root, c, 0) })
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.run()
		}()
	}

	count := 0
	var drain func(n *onode)
	drain = func(n *onode) {
		if cfg.cancelled() {
			// Stop delivering. Nodes left unvisited are still filled in (or
			// abandoned) by the workers, which close every ready channel, so
			// nothing below ever blocks on us again.
			return
		}
		<-n.ready
		if n.piece != nil {
			process(n.piece)
			count++
			return
		}
		if n.steal == nil {
			return // empty restriction
		}
		if cfg.Steal != nil && cfg.Steal(n.steal) {
			// Mark before returning: speculating workers poll the chain and
			// stop expanding this subtree; whatever they already built is
			// simply never drained.
			n.stolen.Store(true)
			if testOrderedHook != nil {
				testOrderedHook("stolen")
			}
			count++
			return
		}
		for _, child := range n.children {
			drain(child)
		}
		n.children = nil // release drained pieces promptly
	}
	// A panic out of process (or Steal) on the drain must not strand the
	// speculating workers: abort the pool, wait for them to quiesce, then
	// let the panic continue to the caller.
	func() {
		defer func() {
			if r := recover(); r != nil {
				pool.abort.Store(true)
				wg.Wait()
				panic(r)
			}
		}()
		drain(root)
	}()
	wg.Wait()
	pool.rethrow()
	return count
}
