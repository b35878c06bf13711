package cst

import (
	"fastmatch/graph"
	"fastmatch/internal/order"
)

// PartitionConfig carries the partition thresholds of Section V-B.
type PartitionConfig struct {
	// MaxSizeBytes is δS, the BRAM budget a partition must fit in.
	MaxSizeBytes int64
	// MaxCandDegree is δD, the longest candidate adjacency list the FPGA's
	// partitioned-array ports can probe in one cycle (Port_max).
	MaxCandDegree int
	// FixedK, when > 0, overrides the greedy partition factor with a fixed
	// k — the Fig. 8 k-determination experiment.
	FixedK int
	// Steal, when non-nil, is offered every CST that still violates a
	// threshold before it is split further. Returning true takes ownership
	// of the CST (the caller will process it elsewhere — FAST-SHARE hands
	// such pieces to the CPU, "reducing the cost of partitioning" as
	// Section VII-B explains) and stops its recursion.
	Steal func(*CST) bool
	// Cancel, when non-nil, is polled between restrict-and-recurse steps and,
	// amortised, inside restrict itself. Once it returns true Partition stops
	// producing: no further process calls or Steal offers are made. The piece
	// count returned by a cancelled run reflects only the pieces delivered
	// before cancellation was observed.
	Cancel func() bool
}

// cancelled reports whether a Cancel hook is installed and has fired.
func (cfg PartitionConfig) cancelled() bool {
	return cfg.Cancel != nil && cfg.Cancel()
}

// Fits reports whether c satisfies both thresholds.
func (cfg PartitionConfig) Fits(c *CST) bool {
	return c.SizeBytes() <= cfg.MaxSizeBytes && c.MaxCandDegree() <= cfg.MaxCandDegree
}

// Partition splits c into pieces that each satisfy cfg, following
// Algorithm 2: walk the matching order; at vertex u = O[index], choose the
// partition factor k (greedy: the violation ratio; or cfg.FixedK), split
// C(u) into k even chunks, restrict the CST to each chunk, and recurse when
// a piece still violates a threshold. Pieces are passed to process in the
// order they become valid, which is how the scheduler overlaps partitioning
// with FPGA execution. The partitions' search spaces are disjoint and their
// union is exactly c's search space (tested property).
func Partition(c *CST, o order.Order, cfg PartitionConfig, process func(*CST)) int {
	count := 0
	// One scratch serves the whole recursion; it carries the cancel hook
	// into restrict itself (amortised poll), so even a single huge restrict
	// observes cancellation promptly.
	sc := &restrictScratch{cancel: cfg.Cancel}
	var rec func(cur *CST, index int)
	rec = func(cur *CST, index int) {
		if cfg.cancelled() {
			return
		}
		if cfg.Fits(cur) || index >= len(o) {
			// index can run off the end when every C(u) is a singleton and
			// the CST still violates a threshold; it cannot be split
			// further, so it is processed as-is (the kernel falls back to
			// a multi-cycle probe for over-long lists).
			process(cur)
			count++
			return
		}
		if cfg.Steal != nil && cfg.Steal(cur) {
			count++
			return
		}
		u := o[index]
		k := cfg.partitionFactor(cur)
		if k > len(cur.Cand[u]) {
			k = len(cur.Cand[u])
		}
		if k <= 1 {
			// Cannot split at u; move to the next order position.
			rec(cur, index+1)
			return
		}
		for i := 0; i < k; i++ {
			if cfg.cancelled() {
				return
			}
			chunk := evenChunk(len(cur.Cand[u]), k, i)
			part := restrict(cur, u, chunk, sc)
			if part == nil {
				return // cancelled mid-restrict: stop producing
			}
			if part.IsEmpty() {
				continue // restriction stranded a branch: no embeddings here
			}
			switch {
			case cfg.Fits(part):
				process(part)
				count++
			case len(part.Cand[u]) == 1:
				rec(part, index+1)
			default:
				rec(part, index)
			}
		}
	}
	rec(c, 0)
	return count
}

// partitionFactor implements line 2 of Algorithm 2: the larger of the two
// violation ratios, rounded up.
func (cfg PartitionConfig) partitionFactor(c *CST) int {
	if cfg.FixedK > 0 {
		return cfg.FixedK
	}
	k := 1
	if cfg.MaxSizeBytes > 0 {
		if r := ceilDiv(c.SizeBytes(), cfg.MaxSizeBytes); int(r) > k {
			k = int(r)
		}
	}
	if cfg.MaxCandDegree > 0 {
		if r := ceilDiv(c.MaxCandDegree(), cfg.MaxCandDegree); r > k {
			k = r
		}
	}
	return k
}

// ceilDiv returns ⌈a/b⌉ for b > 0.
func ceilDiv[T int | int64](a, b T) T { return (a + b - 1) / b }

// evenChunk returns the half-open index range [lo,hi) of the i-th of k even
// chunks of n items.
func evenChunk(n, k, i int) [2]int {
	base, rem := n/k, n%k
	lo := i*base + min(i, rem)
	hi := lo + base
	if i < rem {
		hi++
	}
	return [2]int{lo, hi}
}

// restrictScratch holds restrict's per-call working state so that the
// recursion's repeated restrict steps reuse buffers instead of allocating
// them per piece. Only bookkeeping lives here; everything that escapes into
// the produced CST is freshly allocated. A scratch is single-goroutine state,
// owned by one Partition call.
type restrictScratch struct {
	inSub    []bool
	changed  []bool
	kept     [][]bool      // per vertex in u's subtree: which candidate indices survive
	keptList [][]CandIndex // kept indices, discovery order
	remap    [][]CandIndex // old index -> new index or -1
	tgtBuf   []CandIndex   // adjAssembler grow buffer, recycled across pieces

	// cancel is the owning Partition call's PartitionConfig.Cancel, threaded
	// into restrict itself so a single huge restrict step observes
	// cancellation mid-loop instead of only between pieces. ticks amortises
	// the poll (the internal/baseline deadline tick pattern): the hook —
	// typically a ctx.Err() check behind an atomic — runs once per 4096
	// loop iterations, keeping the hot loops branch-cheap. The counter
	// deliberately persists across restrict calls on the same scratch, so
	// many small pieces amortise exactly like one large one.
	cancel func() bool
	ticks  uint32
}

// polled reports whether the owning Partition call was cancelled, checking
// the hook only every 4096th call.
func (sc *restrictScratch) polled() bool {
	if sc.cancel == nil {
		return false
	}
	sc.ticks++
	if sc.ticks&4095 != 1 {
		return false
	}
	return sc.cancel()
}

// grow sizes the scratch for an n-vertex query and clears the per-vertex
// flags; the inner buffers are cleared lazily where they are (re)used.
func (sc *restrictScratch) grow(n int) {
	if cap(sc.inSub) < n {
		sc.inSub = make([]bool, n)
		sc.changed = make([]bool, n)
		sc.kept = make([][]bool, n)
		sc.keptList = make([][]CandIndex, n)
		sc.remap = make([][]CandIndex, n)
	}
	sc.inSub = sc.inSub[:n]
	sc.changed = sc.changed[:n]
	sc.kept = sc.kept[:n]
	sc.keptList = sc.keptList[:n]
	sc.remap = sc.remap[:n]
	clear(sc.inSub)
	clear(sc.changed)
}

// clearedBools returns b resized to n with all entries false, reusing its
// capacity when possible.
func clearedBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// restrict builds a new CST from cur with C(u) limited to the given index
// chunk. Vertices preceding u in the order keep all candidates (lines 7-8 of
// Algorithm 2); vertices in u's tree subtree keep only candidates that can
// reach the chunk through tree edges (lines 9-12) — every other vertex
// trivially reaches the chunk through the unrestricted prefix. Adjacency
// lists are rebuilt against the kept candidates (line 13).
//
// restrict polls sc's amortised cancel hook inside its reachability and
// rebuild loops and returns nil once it fires, so a cancelled partitioner's
// latency is bounded by ~4096 candidate rows rather than by one full
// restrict over a huge piece. Callers must treat a nil return as "stop
// producing", never as an empty piece.
func restrict(cur *CST, u graph.QueryVertex, chunk [2]int, sc *restrictScratch) *CST {
	t := cur.Tree
	n := cur.Query.NumVertices()

	sc.grow(n)
	// inSub[w] marks u's tree subtree: only those vertices carry
	// per-candidate bookkeeping at all (everything else keeps its whole
	// candidate set).
	inSub := sc.inSub
	markSubtree(t, u, inSub)
	kept, keptList := sc.kept, sc.keptList
	for w := 0; w < n; w++ {
		if inSub[w] {
			kept[w] = clearedBools(kept[w], len(cur.Cand[w]))
			keptList[w] = keptList[w][:0]
		}
	}
	for i := chunk[0]; i < chunk[1]; i++ {
		if sc.polled() {
			return nil
		}
		kept[u][i] = true
		keptList[u] = append(keptList[u], CandIndex(i))
	}
	// Top-down reachability through tree edges inside u's subtree. Only
	// the kept parent candidates are walked, so a piece costs work
	// proportional to its own size rather than the whole CST — this is
	// what keeps recursive partitioning of large CSTs near-linear.
	for _, w := range t.BFSOrder {
		if !inSub[w] || w == u {
			continue
		}
		wp := t.Parent[w] // wp is in the subtree too (only u's parent is outside)
		adj := cur.Edge(wp, w)
		kw, lw := kept[w], keptList[w]
		for _, pi := range keptList[wp] {
			if sc.polled() {
				return nil
			}
			for _, ci := range adj.Neighbors(pi) {
				if !kw[ci] {
					kw[ci] = true
					lw = append(lw, ci)
				}
			}
		}
		keptList[w] = lw
	}

	// Materialise the restricted CST: remap candidate indices, then filter
	// every adjacency list through the remap. Vertices outside u's subtree
	// keep their candidate sets verbatim, so any adjacency list between
	// two unchanged vertices is shared with the parent CST rather than
	// copied (its views alias the parent's arenas) — CSTs are immutable
	// after construction, and this turns the recursive partitioning of a
	// large CST from quadratic copying into work proportional to the
	// restricted subtrees only. Everything the piece owns lands in per-piece
	// arenas — one candidate arena, one offsets arena, one targets arena —
	// so a restrict step performs O(1) allocations regardless of how many
	// vertices changed; the targets grow buffer is recycled through sc.
	part := newCST(cur.Query, t)
	changed, remap := sc.changed, sc.remap
	totalKept := 0
	for w := 0; w < n; w++ {
		// keptList holds distinct indices, so full length means all kept.
		if inSub[w] && len(keptList[w]) != len(cur.Cand[w]) {
			changed[w] = true
			totalKept += len(keptList[w])
		}
	}
	candArena := make([]graph.VertexID, 0, totalKept)
	for w := 0; w < n; w++ {
		if !changed[w] {
			part.Cand[w] = cur.Cand[w]
			continue
		}
		if cap(remap[w]) < len(cur.Cand[w]) {
			remap[w] = make([]CandIndex, len(cur.Cand[w]))
		}
		remap[w] = remap[w][:len(cur.Cand[w])]
		lo := len(candArena)
		for i, v := range cur.Cand[w] {
			if sc.polled() {
				return nil
			}
			if kept[w][i] {
				remap[w][i] = CandIndex(len(candArena) - lo)
				candArena = append(candArena, v)
			} else {
				remap[w][i] = -1
			}
		}
		part.Cand[w] = candArena[lo:len(candArena):len(candArena)]
	}
	for _, cands := range part.Cand {
		part.sizeBytes += int64(len(cands)) * 4
	}

	// Adjacency: share untouched edges (folding their size and cached
	// longest-list into the piece's partition stats in O(1)), rebuild the
	// rest through the remap into the piece's own arenas.
	offTotal, rebuilt := 0, 0
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			a := cur.edgeRef(from, to)
			if !a.Valid() {
				continue
			}
			if !changed[from] && !changed[to] {
				part.setAdj(from, to, *a) // share: both endpoints untouched
				part.sizeBytes += int64(len(a.Offsets))*4 + int64(len(a.Targets))*4
				if int(a.maxDeg) > part.maxDeg {
					part.maxDeg = int(a.maxDeg)
				}
				continue
			}
			offTotal += len(part.Cand[from]) + 1
			rebuilt++
		}
	}
	asm := newAdjAssembler(offTotal, sc.tgtBuf, rebuilt)
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			a := cur.edgeRef(from, to)
			if !a.Valid() || (!changed[from] && !changed[to]) {
				continue
			}
			off := asm.begin(len(part.Cand[from]))
			tgtLo := len(asm.tgt)
			for i := range cur.Cand[from] {
				if sc.polled() {
					return nil
				}
				ni := CandIndex(i)
				if changed[from] {
					ni = remap[from][i]
					if ni < 0 {
						continue
					}
				}
				for _, j := range a.Neighbors(CandIndex(i)) {
					nj := j
					if changed[to] {
						nj = remap[to][j]
						if nj < 0 {
							continue
						}
					}
					asm.tgt = append(asm.tgt, nj)
				}
				off[ni+1] = int32(len(asm.tgt) - tgtLo)
			}
			var maxDeg int32
			for r := 0; r+1 < len(off); r++ {
				if d := off[r+1] - off[r]; d > maxDeg {
					maxDeg = d
				}
			}
			asm.commit(from, to, len(part.Cand[from]), tgtLo, maxDeg)
		}
	}
	sc.tgtBuf = asm.finish(part)
	return part
}

// markSubtree sets in[w] for u and all its tree descendants; in must be
// pre-cleared and len(in) == |V(q)|.
func markSubtree(t *order.Tree, u graph.QueryVertex, in []bool) {
	in[u] = true
	// BFSOrder lists parents before children, so one pass suffices.
	for _, w := range t.BFSOrder {
		if w != t.Root && in[t.Parent[w]] {
			in[w] = true
		}
	}
	in[u] = true
}
