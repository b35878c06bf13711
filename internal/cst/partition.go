package cst

import (
	"math/bits"
	"slices"

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
	inSub   []bool // u's tree subtree
	changed []bool // vertices that lose candidates in this piece
	// kept[w] marks, per vertex in u's subtree, the candidate indices that
	// survive; keptList[w] lists them, in discovery order until the rebuild
	// sorts the changed vertices' lists ascending.
	kept     [][]bool
	keptList [][]CandIndex
	remap    [][]CandIndex // old index -> new index, written for kept entries only
	// pairs holds the rebuilt query edges, each oriented from the changed
	// endpoint whose rows are walked; cursor is the transpose's write
	// cursor; stage holds the forward rows between the counting and the
	// writing pass (the one buffer that grows with the pieces).
	pairs  [][2]graph.QueryVertex
	cursor []uint32
	stage  []CandIndex

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
// the hook only every 4096th call; a scratch without a hook (Build's) never
// is. It stays within the inlining budget, so the per-row loops pay one
// branch for it.
func (sc *restrictScratch) polled() bool {
	if sc.cancel == nil {
		return false
	}
	sc.ticks++
	return sc.ticks&4095 == 1 && sc.cancel()
}

// grow sizes the scratch for an n-vertex query and clears the per-vertex
// flags; the inner buffers are cleared lazily where they are (re)used.
func (sc *restrictScratch) grow(n int) {
	sc.inSub, sc.changed = resized(sc.inSub, n), resized(sc.changed, n)
	clear(sc.inSub)
	clear(sc.changed)
	sc.kept, sc.keptList, sc.remap = resized(sc.kept, n), resized(sc.keptList, n), resized(sc.remap, n)
}

// resized returns s with length n, reusing its capacity, and the contents
// within it, when possible.
func resized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// sortKept orders keptList[w] ascending: by sorting it when it is small
// against |C(w)|, otherwise by one scan of the kept bitmap. It reports false
// when the cancel hook fired.
func (sc *restrictScratch) sortKept(w graph.QueryVertex) bool {
	kl, kw := sc.keptList[w], sc.kept[w]
	if len(kl)*bits.Len(uint(len(kl))) < len(kw) {
		slices.Sort(kl)
		return true
	}
	// The kept entries are dense here, so polling per kept entry still
	// polls every few bitmap entries.
	n := 0
	for i, ok := range kw {
		if ok {
			if sc.polled() {
				return false
			}
			kl[n] = CandIndex(i)
			n++
		}
	}
	return true
}

// restrict builds a new CST from cur with C(u) limited to the given index
// chunk. Vertices preceding u in the order keep all candidates (lines 7-8 of
// Algorithm 2); vertices in u's tree subtree keep only candidates that can
// reach the chunk through tree edges (lines 9-12) — every other vertex
// trivially reaches the chunk through the unrestricted prefix. Adjacency
// lists are rebuilt against the kept candidates (line 13).
//
// A piece costs work in proportion to its own size: reachability and the
// rebuild walk only kept rows, and each changed query edge is walked in one
// direction, the other being its transpose. Per vertex w of u's subtree two
// O(|C(w)|) passes remain — clearing kept[w], and, when the kept share is
// large, the bitmap scan that lists the kept candidates ascending — and an
// edge into an unchanged vertex t carries all |C(t)|+1 of its offsets.
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
			kept[w] = resized(kept[w], len(cur.Cand[w]))
			clear(kept[w])
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
	// the kept parent candidates are walked.
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

	// Materialise the restricted CST. Vertices outside u's subtree keep
	// their candidate sets verbatim, so any adjacency list between two
	// unchanged vertices is shared with the parent CST rather than copied
	// (its views alias the parent's arenas) — CSTs are immutable after
	// construction. A changed vertex's kept candidates are listed ascending
	// (u's list is the chunk already) and only they get a remap entry; the
	// kept bitmap says which entries are valid.
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
	candArena := make([]graph.VertexID, totalKept)
	for w := 0; w < n; w++ {
		if !changed[w] {
			part.Cand[w] = cur.Cand[w]
			continue
		}
		if w != u && !sc.sortKept(w) {
			return nil
		}
		kl := keptList[w]
		remap[w] = resized(remap[w], len(cur.Cand[w]))
		cands := candArena[:len(kl):len(kl)]
		candArena = candArena[len(kl):]
		for r, i := range kl {
			if sc.polled() {
				return nil
			}
			remap[w][i] = CandIndex(r)
			cands[r] = cur.Cand[w][i]
		}
		part.Cand[w] = cands
	}
	for _, cands := range part.Cand {
		part.sizeBytes += int64(len(cands)) * 4
	}

	// Adjacency: share untouched edges (folding their size and cached
	// longest row into the piece's partition stats in O(1)); rebuild each
	// other query edge in one direction only, from a changed endpoint f —
	// the one keeping fewer candidates when both changed — whose kept rows
	// are walked in ascending order, filtering the targets through the
	// other endpoint's kept bitmap and remap when it changed too. The
	// reverse direction is the transpose. Everything the piece owns lands
	// in three arenas — candidates, offsets, targets — so a restrict step
	// performs O(1) allocations however many vertices changed.
	sc.pairs = appendEdgePairs(sc.pairs[:0], t)
	pairs := sc.pairs[:0]
	maxTo, maxStage := 0, 0
	for _, e := range sc.pairs {
		if sc.polled() {
			return nil
		}
		a, b := e[0], e[1]
		if !changed[a] && !changed[b] {
			for _, v := range [2]Adj{cur.Edge(a, b), cur.Edge(b, a)} {
				part.sizeBytes += int64(len(v.Offsets))*4 + int64(len(v.Targets))*4
				part.maxDeg = max(part.maxDeg, int(v.maxDeg))
			}
			part.setAdj(a, b, cur.Edge(a, b))
			part.setAdj(b, a, cur.Edge(b, a))
			continue
		}
		if !changed[a] || (changed[b] && len(part.Cand[b]) < len(part.Cand[a])) {
			a, b = b, a
		}
		pairs = append(pairs, [2]graph.QueryVertex{a, b})
		maxTo = max(maxTo, len(part.Cand[b]))
		maxStage += len(cur.Edge(a, b).Targets)
	}
	sc.cursor = resized(sc.cursor, maxTo)
	// The counting pass stages the forward rows in sc.stage, sized once for
	// the parent's edges; the writing pass copies them into the piece's
	// arena.
	stage, staged := slices.Grow(sc.stage[:0], maxStage), 0
	ok := part.writeAdjacency(pairs, sc.cursor, sc, func(f, to graph.QueryVertex, fwd, rev []int32, tgt []CandIndex) (int32, bool) {
		if tgt != nil {
			staged += copy(tgt, stage[staged:])
			return 0, true
		}
		parent := cur.Edge(f, to)
		filter, keptTo, remapTo := changed[to], kept[to], remap[to]
		lo := len(stage)
		var maxDeg int32
		for r, i := range keptList[f] {
			if sc.polled() {
				return 0, false
			}
			row := parent.Neighbors(i)
			if filter {
				for _, j := range row {
					if keptTo[j] {
						nj := remapTo[j]
						stage = append(stage, nj)
						rev[nj+1]++
					}
				}
			} else {
				stage = append(stage, row...)
				for _, j := range row {
					rev[j+1]++
				}
			}
			fwd[r+1] = int32(len(stage) - lo)
			maxDeg = max(maxDeg, fwd[r+1]-fwd[r])
		}
		return maxDeg, true
	})
	sc.stage = stage
	if !ok {
		return nil
	}
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
