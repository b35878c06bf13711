// Package core implements FAST, the paper's FPGA subgraph-matching kernel
// (Section VI). The matching process is decomposed into the four pipelined
// modules of Algorithm 4 — Generator, Visited Validator, Edge Validator and
// Synchronizer — which process batches of up to No partial results per
// round instead of one-at-a-time backtracking, because a fully pipelined
// FPGA loop cannot tolerate data dependencies between iterations.
//
// The kernel does the real enumeration work over a CST partition while
// charging cycles to the fpgasim device model. Four variants reproduce the
// paper's ablation: FAST-DRAM (CST stays in DRAM), FAST-BASIC (BRAM, serial
// modules, Eq. 2), FAST-TASK (task parallelism via FIFOs, Eq. 3) and
// FAST-SEP (split tv/tn generators, Eq. 4). All variants return identical
// embedding sets; a variant is only a timing policy (variants.go): where the
// CST lives, and how one round's module costs compose.
//
// Run's edge validation picks an intersection strategy per check slot at
// prepare time — a monotone galloping cursor over the reverse CSR adjacency
// list by default, or a lazily marked candidate bitset (the software
// analogue of the paper's BRAM bitmaps) for high-degree slots; see
// intersect.go for the selection rule. cst.Adj.Has, a plain binary search,
// is the oracle for the strategy property tests. At the last query vertex,
// where most partials are generated and on cyclic queries most of them
// die, a partial's batch is walked from the shortest of its parent row and
// its gallop slots' reverse lists, and the visited scan runs only on
// candidates that pass every edge check. The modelled tallies are charged
// from the batch size, so the cycle model still sees every generated
// partial and every edge-validation task (kernel_oracle_test.go holds Run
// to a per-candidate reference round).
package core

import (
	"fmt"
	"math"
	"time"

	"fastmatch/graph"
	"fastmatch/internal/cst"
	"fastmatch/internal/fpgasim"
	"fastmatch/internal/order"
)

// Result reports one kernel execution over one CST partition.
type Result struct {
	// Count is the number of embeddings found (|M|).
	Count int64
	// Embeddings holds the matches when Options.Collect is set.
	Embeddings []graph.Embedding
	// Cycles is the total modelled cycle count, including CST load and
	// result flush; Duration is Cycles at the configured clock.
	Cycles   int64
	Duration time.Duration
	// LoadCycles / FlushCycles are the DRAM↔BRAM transfer components.
	LoadCycles  int64
	FlushCycles int64
	// Rounds is how many generator rounds ran.
	Rounds int64
	// Partials is N, the total partial results generated; EdgeTasks is M,
	// the total edge-validation tasks — the quantities in Eqs. 1–4.
	Partials  int64
	EdgeTasks int64
	// Pops counts reads from the intermediate results buffer.
	Pops int64
	// Stopped reports that the kernel abandoned the remaining batch rounds
	// early — Options.Cancel fired between rounds, or Options.Take refused
	// an embedding (the caller's result budget ran out). Count and the cycle
	// statistics then cover only the work done up to that point.
	Stopped bool
	// BufferHighWater is the maximum partial-result count resident at any
	// point; the deepest-first strategy bounds it by (|V(q)|−1)·No.
	BufferHighWater int
}

// Options configures a kernel run.
type Options struct {
	Variant Variant
	Config  fpgasim.Config
	// Collect materialises embeddings in Result.Embeddings; otherwise only
	// Count is maintained (flushing ids to DRAM is still modelled).
	Collect bool
	// Emit, when non-nil, receives every embedding as it completes.
	Emit func(graph.Embedding)
	// Cancel, when non-nil, is the host's abort line: the kernel loop polls
	// it between batch rounds (a round is the natural preemption point — the
	// modules drain their FIFOs and the buffer is consistent) and abandons
	// the remaining rounds once it returns true, reporting Stopped.
	Cancel func() bool
	// Take, when non-nil, is consulted once per complete embedding before
	// the Synchronizer counts it. Returning false means the caller's result
	// budget is exhausted: the embedding is not counted or emitted and the
	// kernel stops, reporting Stopped. Hosts use it to make a shared
	// embedding limit exact across concurrently running kernels.
	Take func() bool
	// Scratch, when non-nil, supplies the reusable per-run memory (the
	// partial-mapping arena, level buffers, root index and query-plan
	// tables). A Scratch may be reused across sequential runs — hosts pool
	// them — but never by two runs concurrently. Nil means the run
	// allocates a private one.
	Scratch *Scratch
}

// Scratch is the kernel's reusable memory: a level-major arena backing
// every partial mapping (the software stand-in for the BRAM partial-results
// buffer, which the hardware sizes once at (|V(q)|−1)·No slots and never
// allocates from again), the per-level partial descriptors — pointer-free
// offsets into that arena, so storing one costs no write barrier and the
// collector never scans the buffer — the root index sequence, the bitset
// arena, and the query-plan tables prepare derives from (|V(q)|, the check
// slots). Every table grows monotonically and is rewritten in place, so a
// Run on a warm Scratch allocates nothing at all.
type Scratch struct {
	maps     []cst.CandIndex
	vmaps    []graph.VertexID
	partials []partial
	// Bitset-strategy state (see intersect.go): one bit arena shared by all
	// bitset check slots plus the candidate index each slot currently has
	// marked (-1 when clean). prepare re-derives the slot layout and resets
	// both, so a pooled Scratch can cross runs over different CSTs.
	bitWords []uint64
	markedMj []cst.CandIndex
	plan
}

// plan is one run's query-plan tables, indexed by matching-order position
// d and resolved once in prepare, so round performs zero map lookups, zero
// pointer derefs and zero indirect calls per candidate. It lives in the
// Scratch, and prepare rewrites every entry a run reads — a pooled Scratch
// crosses queries whose size and slot layout both grow and shrink.
type plan struct {
	// pos[u] is query vertex u's position in the matching order.
	pos []int
	// checks[d] lists the earlier non-tree neighbours (by query vertex) the
	// Edge Validator must probe when extending to depth d. Aligned with it:
	// checkPos[d], their order positions; checkRev[d], the reverse CSR views
	// Edge(un → O[d]) the probes run over; checkStrat[d], each slot's
	// strategy (intersect.go); slotOf[d], the global slot id indexing
	// Scratch.markedMj; and checkBits[d], a bitset slot's word window of
	// Scratch.bitWords (nil for a gallop slot). The windows are cut from
	// the slot* backing arrays below, one entry per slot in level order.
	checks     [][]graph.QueryVertex
	checkPos   [][]int32
	checkRev   [][]cst.Adj
	checkStrat [][]strategy
	slotOf     [][]int32
	checkBits  [][][]uint64
	// parentPos[d] is the order position of O[d]'s tree parent, parentAdj[d]
	// the CSR view (two slice headers, copied by value out of the CST's flat
	// arenas) the Generator walks at depth d, and candAt[d] is C(O[d]) for
	// the Visited Validator's id recovery.
	parentPos []int
	parentAdj []cst.Adj
	candAt    [][]graph.VertexID
	// gallop is the cursor state of the level being expanded's gallop
	// slots, reset per partial.
	gallop []gallopState
	// levels[d] holds the partials with d vertices mapped; mapBase[d] is
	// where level d's mapping arena begins in Scratch.maps: slot i of level
	// d is maps[mapBase[d]+i*d : mapBase[d]+(i+1)*d].
	levels  [][]partial
	mapBase []int
	rootIdx []cst.CandIndex // identity sequence over C(root)

	slotLo    []int // level d's slots are [slotLo[d], slotLo[d+1])
	slotQ     []graph.QueryVertex
	slotPos   []int32
	slotRev   []cst.Adj
	slotStrat []strategy
	slotID    []int32
	slotBits  [][]uint64
}

// resize returns s with length n, reallocating only when n exceeds its
// capacity. Reused entries keep stale values; callers rewrite them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// partial is an entry of the intermediate results buffer P, laid out like
// the paper's fixed BRAM slot: off locates its mapping in the arena — a
// partial of level d maps Scratch.maps[off:off+d], the candidate indices by
// matching-order position, and Scratch.vmaps[off:off+d] mirrors them with
// the data vertices, so the Visited Validator scans one contiguous array
// instead of re-deriving each id through candAt (the hardware keeps exactly
// this duplicated column in BRAM). cur is the resume cursor: when a partial
// result has more candidates than the round's remaining No budget, the
// paper maps the first batch and resumes the rest later (Section VI-B).
type partial struct {
	off, cur int32
}

// Run executes the FAST kernel over one CST partition with matching order o.
func Run(c *cst.CST, o order.Order, opts Options) (Result, error) {
	var run runState
	if err := run.init(c, o, opts); err != nil {
		return Result{}, err
	}
	res := run.execute()
	run.release()
	return res, nil
}

// init validates the inputs, admits the run on the modelled card and
// prepares r for it.
func (r *runState) init(c *cst.CST, o order.Order, opts Options) error {
	cfg := opts.Config
	if err := cfg.Validate(); err != nil {
		return err
	}
	sc := opts.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	nq := c.Query.NumVertices()
	sc.pos = resize(sc.pos, nq)
	if err := o.ValidateInto(c.Tree, sc.pos); err != nil {
		return fmt.Errorf("core: %v", err)
	}
	tm := newTiming(opts.Variant, cfg, c.MaxCandDegree())
	if err := tm.admit(cfg, c.SizeBytes(), nq); err != nil {
		return err
	}
	if slots := int64(cfg.No) * int64(nq*(nq-1)/2); slots > math.MaxInt32 {
		return fmt.Errorf("core: partial-mapping arena (%d slots) exceeds int32 offsets; lower No", slots)
	}

	*r = runState{
		plan:    &sc.plan,
		c:       c,
		o:       o,
		opts:    opts,
		scratch: sc,
		timing:  tm,
	}
	r.prepare()
	return nil
}

// runState carries one kernel execution. Its query-plan tables are the
// Scratch's (plan); the rest is the run's own tallies.
type runState struct {
	*plan
	c       *cst.CST
	o       order.Order
	opts    Options
	scratch *Scratch
	timing  timing
	cycles  int64 // modelled cycles so far: load + Σ rounds + flush

	count     int64
	collected []graph.Embedding
	rounds    int64
	partials  int64
	edgeTasks int64
	pops      int64
	highWater int
	stopped   bool
}

// cancelled polls the host abort line.
func (r *runState) cancelled() bool {
	return r.opts.Cancel != nil && r.opts.Cancel()
}

// takeOne reserves one slot of the caller's result budget; refusal stops
// the kernel.
func (r *runState) takeOne() bool {
	if r.opts.Take != nil && !r.opts.Take() {
		r.stopped = true
		return false
	}
	return true
}

// prepare runs once per Run before the round loop and fills the Scratch's
// plan tables, arenas and levels in place: on a warm Scratch it allocates
// nothing. Its loops are bounded by query-plan size (order, slots, per-level
// check tables) or are straight-line candidate-array fills, so cancellation
// is first observed in execute.
//
//fastmatch:nolint cancelpoll one-shot query-plan-sized setup; execute polls per round
func (r *runState) prepare() {
	nq := r.c.Query.NumVertices()
	no := r.opts.Config.No
	sc, p := r.scratch, r.plan

	// The check slots, level by level: one per earlier non-tree neighbour.
	// Strategy (intersect.go): slots whose lists are long on average pay
	// off a per-mj bitset mark; the rest gallop a cursor over the reverse
	// list. Both directions of a CST edge hold the same number of targets,
	// so the reverse view prices the slot.
	p.candAt = resize(p.candAt, nq)
	p.parentPos = resize(p.parentPos, nq)
	p.parentAdj = resize(p.parentAdj, nq)
	p.slotLo = resize(p.slotLo, nq+1)
	p.slotQ, p.slotPos, p.slotRev = p.slotQ[:0], p.slotPos[:0], p.slotRev[:0]
	p.slotStrat, p.slotID, p.slotBits = p.slotStrat[:0], p.slotID[:0], p.slotBits[:0]
	words := 0
	for d, u := range r.o {
		p.candAt[d] = r.c.Candidates(u)
		up := r.c.Tree.Parent[u]
		if d > 0 {
			p.parentPos[d] = p.pos[up]
			p.parentAdj[d] = r.c.Edge(up, u)
		}
		p.slotLo[d] = len(p.slotQ)
		nc := len(p.candAt[d])
		for _, un := range r.c.Query.Neighbors(u) {
			if un == up || p.pos[un] >= d {
				continue
			}
			rev := r.c.Edge(un, u)
			strat := stratGallop
			if nc > 0 && len(rev.Targets) >= bitsetMinAvgDeg*nc {
				strat = stratBitset
				words += bitsetWords(nc)
			}
			p.slotID = append(p.slotID, int32(len(p.slotQ)))
			p.slotQ = append(p.slotQ, un)
			p.slotPos = append(p.slotPos, int32(p.pos[un]))
			p.slotRev = append(p.slotRev, rev)
			p.slotStrat = append(p.slotStrat, strat)
			p.slotBits = append(p.slotBits, nil)
		}
	}
	nSlots := len(p.slotQ)
	p.slotLo[nq] = nSlots

	// Bitset arena: each bitset slot owns a window of words over C(O[d]);
	// gallop slots occupy none. The arena and the marked indices are reset
	// here because a pooled Scratch crosses runs whose slot layouts differ.
	sc.bitWords = resize(sc.bitWords, words)
	clear(sc.bitWords)
	sc.markedMj = resize(sc.markedMj, nSlots)
	for i := range sc.markedMj {
		sc.markedMj[i] = -1
	}

	// Cut each level's windows once; the probe loop then indexes stable
	// slices instead of re-deriving arena offsets.
	p.checks = resize(p.checks, nq)
	p.checkPos = resize(p.checkPos, nq)
	p.checkRev = resize(p.checkRev, nq)
	p.checkStrat = resize(p.checkStrat, nq)
	p.slotOf = resize(p.slotOf, nq)
	p.checkBits = resize(p.checkBits, nq)
	maxChecks, base := 0, 0
	for d := range r.o {
		lo, hi := p.slotLo[d], p.slotLo[d+1]
		maxChecks = max(maxChecks, hi-lo)
		for s := lo; s < hi; s++ {
			if p.slotStrat[s] == stratBitset {
				n := bitsetWords(len(p.candAt[d]))
				p.slotBits[s] = sc.bitWords[base : base+n : base+n]
				base += n
			}
		}
		p.checks[d] = p.slotQ[lo:hi:hi]
		p.checkPos[d] = p.slotPos[lo:hi:hi]
		p.checkRev[d] = p.slotRev[lo:hi:hi]
		p.checkStrat[d] = p.slotStrat[lo:hi:hi]
		p.slotOf[d] = p.slotID[lo:hi:hi]
		p.checkBits[d] = p.slotBits[lo:hi:hi]
	}
	p.gallop = resize(p.gallop, maxChecks)

	// Partial-mapping arena: level d holds at most No partials (one round's
	// output) of mapping width d, and deepest-first scheduling guarantees a
	// level is empty whenever a round refills it, so level-major slots are
	// reused round after round with no per-partial allocation.
	p.mapBase = resize(p.mapBase, nq)
	total := 0
	for d := range nq {
		p.mapBase[d] = total
		total += no * d
	}
	sc.maps = resize(sc.maps, total)
	sc.vmaps = resize(sc.vmaps, total)
	sc.partials = resize(sc.partials, 1+(nq-1)*no)

	nroot := len(r.c.Candidates(r.o[0]))
	p.rootIdx = resize(p.rootIdx, nroot)
	for i := range p.rootIdx {
		p.rootIdx[i] = cst.CandIndex(i)
	}

	// Level 0 is a single empty partial whose cursor walks C(root),
	// so arbitrarily large root candidate sets respect the No bound.
	p.levels = resize(p.levels, nq)
	sc.partials[0] = partial{}
	p.levels[0] = sc.partials[0:1:1]
	for d := 1; d < nq; d++ {
		lo := 1 + (d-1)*no
		p.levels[d] = sc.partials[lo : lo : lo+no]
	}
	if r.c.IsEmpty() {
		p.levels[0] = nil
	}
}

// release drops the plan's references into the run's CST, so a pooled
// Scratch does not keep the last piece it ran alive.
func (r *runState) release() {
	clear(r.candAt)
	clear(r.parentAdj)
	clear(r.slotRev)
	clear(r.gallop)
}

// execute is Algorithm 4's main loop: while the buffer has work, run one
// round at the deepest non-empty level.
func (r *runState) execute() Result {
	cfg := r.opts.Config
	loadCycles := r.timing.loadCycles(cfg, r.c.SizeBytes())
	r.cycles += loadCycles

	for {
		if r.cancelled() {
			r.stopped = true
			break
		}
		d := r.deepestLevel()
		if d < 0 {
			break
		}
		r.round(d)
		if r.stopped {
			break
		}
	}
	return r.result(loadCycles)
}

// result flushes the complete results and reports the run.
func (r *runState) result(loadCycles int64) Result {
	cfg := r.opts.Config
	// Flush complete results from BRAM to card DRAM (4 bytes per mapped
	// vertex id).
	flushCycles := cfg.LoadCycles(r.count * int64(len(r.o)) * 4)
	r.cycles += flushCycles

	res := Result{
		Count:           r.count,
		Embeddings:      r.collected,
		Cycles:          r.cycles,
		LoadCycles:      loadCycles,
		FlushCycles:     flushCycles,
		Rounds:          r.rounds,
		Partials:        r.partials,
		EdgeTasks:       r.edgeTasks,
		Pops:            r.pops,
		Stopped:         r.stopped,
		BufferHighWater: r.highWater,
	}
	res.Duration = cfg.CyclesToDuration(res.Cycles)
	return res
}

func (r *runState) deepestLevel() int {
	for d := len(r.levels) - 1; d >= 0; d-- {
		if len(r.levels[d]) > 0 {
			return d
		}
	}
	return -1
}

// round expands the partials at level d into level d+1 (Algorithms 5–8),
// then charges the round's cycles per the variant's composition.
//
// A partial's batch is the next take candidates of its Generator list,
// ascending in ci. Every candidate of it is one generated partial result
// and |checks| edge-validation tasks to the cycle model, whether or not it
// survives; the host only walks as much of the batch as the verdicts need,
// and charges the tallies per partial from take (or, when Take refuses,
// from the refused candidate's position in the batch).
//
// Cancellation is polled once per round by execute before each call: a round
// emits at most No partials, so cancel latency stays bounded without putting
// a branch in the probe loop.
//
//fastmatch:nolint cancelpoll execute polls per round; a round is bounded by No
//fastmatch:hotpath
func (r *runState) round(d int) {
	cfg := r.opts.Config
	u := r.o[d]
	complete := d+1 == len(r.o)
	level := r.levels[d]
	maps, vmaps := r.scratch.maps, r.scratch.vmaps
	var (
		pops     int64
		nextLv   []partial
		nextBase int
		nPo      int64
		nTn      int64
	)
	if !complete {
		nextLv = r.levels[d+1][:0]
		nextBase = r.mapBase[d+1]
	}

	// Hoist the level's per-check state out of the candidate loop: slice
	// headers for the candidate array and probe metadata, plus the scratch
	// bitset arena — the loops below touch only contiguous locals.
	nChecks := len(r.checks[d])
	candHere := r.candAt[d]
	parentAdj, parentPos := r.parentAdj[d], r.parentPos[d]
	checkPos := r.checkPos[d]
	checkStrat := r.checkStrat[d]
	checkRev := r.checkRev[d]
	checkBits := r.checkBits[d]
	slots := r.slotOf[d]
	marked := r.scratch.markedMj
	gallop := r.gallop
	// With no Take, Collect or Emit a complete result is only counted, so
	// the loop skips the Synchronizer call per embedding.
	countOnly := r.opts.Take == nil && !r.opts.Collect && r.opts.Emit == nil

	budget := int64(cfg.No)
	i := 0
	for i < len(level) && nPo < budget {
		p := &level[i]
		m := maps[p.off : int(p.off)+d]
		mv := vmaps[p.off : int(p.off)+d]
		// Per-partial probe setup (Algorithm 7's batch form): every check's
		// counterpart mapping mj is fixed for the whole batch, and the
		// candidates below arrive in strictly ascending ci order. Gallop
		// slots pin the reverse list of mj and reset their cursor; bitset
		// slots mark mj's reverse list once, cached across partials that
		// share the mapping (markedMj) — clearing walks the old list, so the
		// arena never needs a full wipe between partials.
		for k := range checkPos {
			mj := m[checkPos[k]]
			if checkStrat[k] == stratGallop {
				gallop[k] = gallopState{rl: checkRev[k].Neighbors(mj)}
				continue
			}
			slot := slots[k]
			if marked[slot] == mj {
				continue
			}
			bits := checkBits[k]
			if old := marked[slot]; old >= 0 {
				for _, cj := range checkRev[k].Neighbors(old) {
					bits[cj>>6] &^= 1 << (uint(cj) & 63)
				}
			}
			for _, cj := range checkRev[k].Neighbors(mj) {
				bits[cj>>6] |= 1 << (uint(cj) & 63)
			}
			marked[slot] = mj
		}
		cands := r.rootIdx
		if d > 0 {
			cands = parentAdj.Neighbors(m[parentPos])
		}
		avail := cands[p.cur:]
		pops++
		space := budget - nPo
		take := int64(len(avail))
		resumed := false
		if take > space {
			take = space
			resumed = true
		}
		batch := avail[:take]
		// The batch's survivors lie in the batch and in every gallop slot's
		// reverse list. At the last level, where most candidates die, walk
		// the shortest of those lists, clipped to the batch's ci range, and
		// probe the others — the batch itself through a gallop cursor when
		// a reverse list drives. Elsewhere the batch drives.
		drive, kd := batch, -1
		if complete && take > 0 {
			lo, hi := batch[0], batch[take-1]
			for k := range checkPos {
				if checkStrat[k] != stratGallop {
					continue
				}
				rl := gallop[k].rl
				a := gallopTo(rl, 0, lo)
				rl = rl[a:gallopTo(rl, a, hi+1)]
				gallop[k].rl = rl
				if len(rl) < len(drive) {
					drive, kd = rl, k
				}
			}
		}
		parent := gallopState{rl: batch}
		charged := take
	drain:
		for j, ci := range drive {
			if kd >= 0 && !parent.probe(ci) {
				continue
			}
			// Edge validation (Algorithm 7): the candidate must be
			// CST-adjacent to every earlier non-tree neighbour's mapping —
			// each probe one bitset word test or one monotone cursor
			// advance, never a per-candidate binary search.
			for k := range checkPos {
				if k == kd {
					continue
				}
				if checkStrat[k] == stratBitset {
					if checkBits[k][ci>>6]&(1<<(uint(ci)&63)) == 0 {
						continue drain
					}
				} else if !gallop[k].probe(ci) {
					continue drain
				}
			}
			// Visited validation (Algorithm 6) on edge-check survivors only.
			v := candHere[ci]
			if mapped(mv, v) {
				continue
			}
			// Synchronizer (Algorithm 8): report a complete result, or
			// store the partial back into the next level's arena slot.
			if complete {
				if countOnly {
					r.count++
					continue
				}
				if !r.report(mv, u, v) {
					// Charge the batch up to the refused candidate.
					charged = int64(j) + 1
					if kd >= 0 {
						charged = int64(parent.cur) + 1
					}
					break
				}
				continue
			}
			off := nextBase + len(nextLv)*(d+1)
			copy(maps[off:], m)
			copy(vmaps[off:], mv)
			maps[off+d] = ci
			vmaps[off+d] = v
			nextLv = append(nextLv, partial{off: int32(off)})
		}
		nPo += charged
		nTn += charged * int64(nChecks)
		if r.stopped {
			break // result budget refused an embedding; abandon the run
		}
		if resumed {
			p.cur += int32(take)
			break // budget exhausted; this partial resumes next round
		}
		i++
	}
	// Retain unconsumed partials (including a resumed head).
	//fastmatch:nolint hotpathalloc compaction into level's own backing array (level[:0]); never grows
	r.levels[d] = append(level[:0], level[i:]...)
	if !complete {
		r.levels[d+1] = nextLv
	}

	r.rounds++
	r.partials += nPo
	r.edgeTasks += nTn
	r.pops += pops
	r.cycles += r.timing.chargeRound(nPo, nTn, nChecks)

	if hw := r.resident(); hw > r.highWater {
		r.highWater = hw
	}
}

// report is the Synchronizer's complete-result path (Algorithm 8): it
// reserves one slot of the caller's result budget, counts the embedding
// mv + (u ↦ v), and materialises it only when Collect or Emit opted in.
// False means Take refused: the embedding is dropped and the run stops.
func (r *runState) report(mv []graph.VertexID, u graph.QueryVertex, v graph.VertexID) bool {
	if !r.takeOne() {
		return false
	}
	r.count++
	if r.opts.Collect || r.opts.Emit != nil {
		//fastmatch:nolint hotpathalloc one embedding per emitted match, only when Collect/Emit opted in
		e := make(graph.Embedding, len(r.o))
		for pos, w := range mv {
			e[r.o[pos]] = w
		}
		e[u] = v
		if r.opts.Collect {
			//fastmatch:nolint hotpathalloc collected grows only under the WithCollect opt-in
			r.collected = append(r.collected, e)
		}
		if r.opts.Emit != nil {
			r.opts.Emit(e)
		}
	}
	return true
}

// mapped is the Visited Validator (Algorithm 6): it reports whether data
// vertex v already appears in a partial's mapped vertices mv.
func mapped(mv []graph.VertexID, v graph.VertexID) bool {
	for _, w := range mv {
		if w == v {
			return true
		}
	}
	return false
}

// resident counts partials currently buffered (level 0's root cursor is
// bookkeeping, not a buffered partial).
func (r *runState) resident() int {
	total := 0
	for d := 1; d < len(r.levels); d++ {
		total += len(r.levels[d])
	}
	return total
}
