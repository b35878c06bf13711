package cst

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

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
	// Steal, when non-nil, is offered every piece that still violates a
	// threshold before it is split further, priced by its W_CST. Returning
	// true takes ownership of the piece (the caller will process it
	// elsewhere — FAST-SHARE hands such pieces to the CPU, "reducing the
	// cost of partitioning" as Section VII-B explains) and stops its
	// recursion; a taker builds the piece with Offer.Build and, like the
	// callee of process, recycles it once done with it (CST.Recycle). A
	// declined offer costs no allocation, and the piece it priced is never
	// built unless it is handed out later.
	Steal func(Offer) bool
	// Cancel, when non-nil, is polled between restrict-and-recurse steps and,
	// amortised, inside restrict itself. Once it returns true Partition stops
	// producing: no further process calls or Steal offers are made. The piece
	// count returned by a cancelled run reflects only the pieces delivered
	// before cancellation was observed.
	Cancel func() bool
}

// Offer is a piece that Partition offers to PartitionConfig.Steal.
type Offer struct {
	// Workload is the piece's W_CST: EstimateWorkload of the piece Build
	// returns, computed without building it.
	Workload float64
	s        *partitionScratch
}

// Build materialises the offered piece. It may be called only inside the
// Steal call that received the offer; it returns nil when the partition was
// cancelled, and the same piece when called again. The hook that takes the
// piece holds it: it calls Recycle on it exactly once, when nothing reads
// it any more.
func (o Offer) Build() *CST {
	s := o.s
	if s.offered == nil {
		s.offered = s.sc.build()
	}
	return s.offered
}

// cancelled reports whether a Cancel hook is installed and has fired.
func (cfg PartitionConfig) cancelled() bool {
	return cfg.Cancel != nil && cfg.Cancel()
}

// Fits reports whether c satisfies both thresholds.
func (cfg PartitionConfig) Fits(c *CST) bool {
	return cfg.fits(c.SizeBytes(), c.MaxCandDegree())
}

// fits reports whether a piece of the given size and longest list
// satisfies both thresholds.
func (cfg PartitionConfig) fits(size int64, maxDeg int) bool {
	return size <= cfg.MaxSizeBytes && maxDeg <= cfg.MaxCandDegree
}

// Partition splits c into pieces that each satisfy cfg, following
// Algorithm 2: walk the matching order; at vertex u = O[index], choose the
// partition factor k (greedy: the violation ratio; or cfg.FixedK), split
// C(u) into k even chunks, restrict the CST to each chunk, and recurse when
// a piece still violates a threshold. Pieces are passed to process in the
// order they become valid, which is how the scheduler overlaps partitioning
// with FPGA execution. The partitions' search spaces are disjoint and their
// union is exactly c's search space (tested property).
//
// Only pieces that are handed out are built: one that fits, one a Steal
// hook takes, and one whose C(u) is a singleton (or cannot be split) and
// moves to the next order position. A piece that is split again at the same
// position is only counted — its size, longest list and, when offered, its
// W_CST — and its chunks are cut from the last built ancestor, since
// restricting a restriction at the same u is restricting the ancestor to
// the composed range.
//
// A piece is built into the shell and arenas of a recycled one when its
// scratch has one spare, so the holder of every piece process receives
// calls Recycle on it exactly once, when nothing reads it any more. A piece
// aliases the arenas of the built piece it was cut from, so that ancestor
// is recycled only once the producer has finished splitting it and every
// piece cut from it is recycled. A piece never recycled is left to the
// garbage collector, and keeps its ancestors from reuse. c is its caller's
// throughout: even handed out whole, it is not reused.
func Partition(c *CST, o order.Order, cfg PartitionConfig, process func(*CST)) int {
	s := partitionScratches.Get().(*partitionScratch)
	defer partitionScratches.Put(s)
	return s.partition(c, o, cfg, process)
}

// partition is Partition on the scratch s, which it leaves released.
func (s *partitionScratch) partition(c *CST, o order.Order, cfg PartitionConfig, process func(*CST)) int {
	defer s.release()
	// The scratch carries the cancel hook into restrict itself (amortised
	// poll), so even a single huge restrict observes cancellation promptly.
	s.sc.cancel, s.sc.degLimit = cfg.Cancel, cfg.MaxCandDegree
	if c.spare != nil {
		c.spare.refs.Add(1) // the producer's hold on a piece partitioned again; its holder keeps theirs
	}
	p := partitioner{cfg: cfg, o: o, partitionScratch: s}
	p.rec(process, c, 0)
	return p.count
}

// partitionScratches pools the scratch of Partition calls, so that the
// buffers sized by one call serve the next.
var partitionScratches = sync.Pool{New: func() any { return new(partitionScratch) }}

// partitionScratch is what a Partition call reuses from the last.
type partitionScratch struct {
	sc      restrictScratch
	wt      WorkloadTable // prices the built pieces that are offered
	offered *CST          // the piece on offer once built; nil until then
}

// release drops every reference into the caller's CSTs and hooks, so a
// pooled scratch pins nothing.
func (s *partitionScratch) release() {
	s.offered, s.sc.cancel, s.sc.from = nil, nil, nil
}

// partitioner is one Partition call's recursion state. Its scratch reaches
// the Steal hook through each Offer, so the process callback is passed down
// the recursion instead of held here: a callback the caller made on its
// stack stays there.
type partitioner struct {
	cfg   PartitionConfig
	o     order.Order
	count int
	*partitionScratch
}

// rec is Algorithm 2 on a built piece cur at order position index. The
// producer's hold on cur passes to whoever rec hands it to, or to the split
// that cuts it.
func (p *partitioner) rec(process func(*CST), cur *CST, index int) {
	if p.cfg.cancelled() {
		cur.Recycle()
		return
	}
	if p.cfg.Fits(cur) || index >= len(p.o) {
		// index can run off the end when every C(u) is a singleton and the
		// CST still violates a threshold; it cannot be split further, so it
		// is processed as-is (the kernel falls back to a multi-cycle probe
		// for over-long lists).
		process(cur)
		p.count++
		return
	}
	if p.cfg.Steal != nil && p.offer(cur, p.wt.Estimate(cur)) {
		return
	}
	u := p.o[index]
	p.split(process, cur, cur, index, [2]int{0, len(cur.Cand[u])}, cur.SizeBytes(), cur.MaxCandDegree())
}

// resplit is Algorithm 2 on the piece of a that the scratch last counted,
// whose C(u) is the range span of a's C(u) at u = o[index]: it neither fits
// nor is a singleton at u, so unless a Steal hook takes it, it is split at
// the same position without being built.
func (p *partitioner) resplit(process func(*CST), a *CST, index int, span [2]int) {
	if p.cfg.cancelled() {
		return
	}
	size, maxDeg := p.sc.size, p.sc.maxDeg
	if p.cfg.Steal != nil && p.offer(nil, p.wt.estimate(a, &p.sc.keptMask)) {
		return
	}
	p.split(process, a, nil, index, span, size, maxDeg)
}

// offer prices a piece to the Steal hook: piece is the built piece, or nil
// for the one the scratch last counted. It reports whether the hook took it.
func (p *partitioner) offer(piece *CST, w float64) bool {
	p.offered = piece
	taken := p.cfg.Steal(Offer{Workload: w, s: p.partitionScratch})
	p.offered = nil
	if taken {
		p.count++
	}
	return taken
}

// split cuts a piece at u = o[index] into k chunks of span, a range of a's
// C(u), and restricts a to each: piece is the piece itself when it is
// built (then a == piece), or nil when it is the one the scratch last
// counted, of size size and longest list maxDeg. A split that cuts a built
// piece into chunks drops the producer's hold on it once it has cut them.
func (p *partitioner) split(process func(*CST), a, piece *CST, index int, span [2]int, size int64, maxDeg int) {
	u := p.o[index]
	k := min(p.cfg.partitionFactor(size, maxDeg), span[1]-span[0])
	if k <= 1 {
		// Cannot split at u; move to the next order position.
		if piece == nil {
			if piece = p.sc.build(); piece == nil {
				return
			}
		}
		p.rec(process, piece, index+1)
		return
	}
	if piece != nil {
		defer piece.Recycle() // each chunk built holds its own reference
	}
	sc := &p.sc
	for i := 0; i < k; i++ {
		if p.cfg.cancelled() {
			return
		}
		chunk := evenChunk(span[1]-span[0], k, i)
		chunk[0] += span[0]
		chunk[1] += span[0]
		if !sc.count(a, u, chunk) {
			return // cancelled mid-restrict: stop producing
		}
		if sc.empty {
			continue // restriction stranded a branch: no embeddings here
		}
		fits := p.cfg.fits(sc.size, sc.maxDeg)
		if !fits && chunk[1]-chunk[0] > 1 {
			p.resplit(process, a, index, chunk)
			continue
		}
		part := sc.build()
		if part == nil {
			return
		}
		if fits {
			process(part)
			p.count++
		} else {
			p.rec(process, part, index+1)
		}
	}
}

// partitionFactor implements line 2 of Algorithm 2 for a piece of the given
// size and longest list: the larger of the two violation ratios, rounded
// up.
func (cfg PartitionConfig) partitionFactor(size int64, maxDeg int) int {
	if cfg.FixedK > 0 {
		return cfg.FixedK
	}
	k := 1
	if cfg.MaxSizeBytes > 0 {
		if r := ceilDiv(size, cfg.MaxSizeBytes); int(r) > k {
			k = int(r)
		}
	}
	if cfg.MaxCandDegree > 0 {
		if r := ceilDiv(maxDeg, cfg.MaxCandDegree); r > k {
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

// pollMask sets how often restrict's loops tick the amortised cancel poll:
// once per block of pollMask+1 rows (or bitmap entries), with the row index
// tested against the mask so the per-row cost is one predictable branch.
const pollMask = 63

// restrictScratch holds restrict's working state: the count phase's
// results for the last piece counted (kept bitsets and lists), and the
// buffers both phases reuse from piece to piece, and the recycled pieces
// later builds are built into; nothing else escapes into a built CST. A
// scratch is single-goroutine state, owned by one Partition call at a time,
// but for its spares, which holders recycle into from any goroutine.
type restrictScratch struct {
	// from is the last count's ancestor; the per-vertex state below is in
	// its index space, for the count's split vertex u.
	from  *CST
	inSub []bool // u's tree subtree
	keptMask
	remap [][]CandIndex // old index -> new index, written for kept entries only
	// edgeList holds every query edge once; pairs the ones rebuilt for the
	// piece, each oriented from the endpoint whose rows are walked, and
	// targets the entries each pair's count found in one direction.
	edgeList [][2]graph.QueryVertex
	pairs    [][2]graph.QueryVertex
	targets  []int
	// The last count's statistics of the piece. maxDeg is exact where it
	// exceeds degLimit, the partition's δD, and at most δD otherwise:
	// longest reverse rows are counted only on edges whose ancestor rows
	// could exceed δD, since below it they decide nothing.
	empty    bool
	size     int64
	maxDeg   int
	degLimit int
	// revLen[j] counts reverse row j where the count needs the longest;
	// it is zero but at the indices touched lists while the count runs.
	revLen  []int32
	touched []CandIndex
	cursor  []uint32 // the transpose's write cursor
	spares  spares

	// cancel is the owning Partition call's PartitionConfig.Cancel, threaded
	// into restrict itself so a single huge restrict step observes
	// cancellation mid-loop instead of only between pieces. The loops tick
	// once per block of rows, and ticks amortises the poll further (the
	// internal/baseline deadline tick pattern): the hook — typically a
	// ctx.Err() check behind an atomic — runs once per 64 ticks, so at most
	// every 4096 rows. The counter deliberately persists across restrict
	// calls on the same scratch, so many small pieces amortise exactly like
	// one large one.
	cancel func() bool
	ticks  uint32
}

// keptMask describes a counted piece in its ancestor's index space.
type keptMask struct {
	changed []bool // vertices that lose candidates in this piece
	// kept[w] is, per vertex in u's subtree, a bitset over C(w) whose bit i
	// is set when candidate i survives; keptList[w] lists the set bits
	// ascending.
	kept     [][]uint64
	keptList [][]CandIndex
}

// isKept reports whether bit i of the bitset b is set.
func isKept(b []uint64, i CandIndex) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// polled reports whether the owning Partition call was cancelled, checking
// the hook only every 64th call; a scratch without a hook (Build's) never
// is. The loops call it once per block of rows.
func (sc *restrictScratch) polled() bool {
	if sc.cancel == nil {
		return false
	}
	sc.ticks++
	return sc.ticks&63 == 1 && sc.cancel()
}

// resized returns s with length n, reusing its capacity, and the contents
// within it, when possible.
func resized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// listKept appends the set bits of the bitset b to l, ascending, by one
// scan of its words. It reports false when the cancel hook fired.
func (sc *restrictScratch) listKept(b []uint64, l []CandIndex) ([]CandIndex, bool) {
	for wi, word := range b {
		if wi&pollMask == 0 && sc.polled() {
			return l, false
		}
		for ; word != 0; word &= word - 1 {
			l = append(l, CandIndex(wi<<6|bits.TrailingZeros64(word)))
		}
	}
	return l, true
}

// count is restrict's count phase: the piece of a with C(u) cut to chunk,
// an index range of a's C(u). Vertices preceding u in the order keep all
// candidates (lines 7-8 of Algorithm 2); vertices in u's tree subtree keep
// only candidates that can reach the chunk through tree edges (lines 9-12)
// — every other vertex trivially reaches the chunk through the unrestricted
// prefix. count finds the kept candidates, then counts each rebuilt edge's
// rows once, which gives the piece's emptiness, SizeBytes and
// MaxCandDegree without building it; build then materialises the piece
// from this state.
//
// A count costs work in proportion to the piece, plus |C(w)|/64 words per
// vertex w of u's subtree: reachability and the counts walk only kept
// rows, and each changed query edge is walked in one direction, the other
// being counted from the same rows. Each kept bitset is cleared, marked,
// then scanned once to list w's kept candidates ascending, so later walks
// over kept rows run in candidate order; the reverse-row counters are
// cleared through the indices they touched.
//
// count polls sc's amortised cancel hook once per row block and reports
// false once it fires; callers must then stop producing.
func (sc *restrictScratch) count(a *CST, u graph.QueryVertex, chunk [2]int) bool {
	t := a.Tree
	n := a.Query.NumVertices()
	sc.inSub, sc.changed = resized(sc.inSub, n), resized(sc.changed, n)
	clear(sc.inSub)
	clear(sc.changed)
	sc.kept, sc.keptList, sc.remap = resized(sc.kept, n), resized(sc.keptList, n), resized(sc.remap, n)
	sc.from = a

	// inSub[w] marks u's tree subtree: only those vertices carry
	// per-candidate bookkeeping at all (everything else keeps its whole
	// candidate set).
	inSub, kept, keptList := sc.inSub, sc.kept, sc.keptList
	markSubtree(t, u, inSub)
	for w := 0; w < n; w++ {
		if inSub[w] {
			kept[w] = resized(kept[w], (len(a.Cand[w])+63)>>6)
			clear(kept[w])
			keptList[w] = keptList[w][:0]
		}
	}
	ku, lu := kept[u], keptList[u]
	for i := chunk[0]; i < chunk[1]; i++ {
		if (i-chunk[0])&pollMask == 0 && sc.polled() {
			return false
		}
		ku[i>>6] |= 1 << (i & 63)
		lu = append(lu, CandIndex(i))
	}
	keptList[u] = lu
	// Top-down reachability through tree edges inside u's subtree. Only
	// the kept parent candidates are walked.
	for _, w := range t.BFSOrder {
		if !inSub[w] || w == u {
			continue
		}
		adj := a.Edge(t.Parent[w], w) // the parent is in the subtree too (only u's parent is outside)
		kw := kept[w]
		for r, pi := range keptList[t.Parent[w]] {
			if r&pollMask == 0 && sc.polled() {
				return false
			}
			for _, ci := range adj.Neighbors(pi) {
				kw[ci>>6] |= 1 << (ci & 63)
			}
		}
		var ok bool
		if keptList[w], ok = sc.listKept(kw, keptList[w]); !ok {
			return false
		}
	}

	changed := sc.changed
	sc.empty, sc.size, sc.maxDeg = false, 0, 0
	for w := 0; w < n; w++ {
		nw := len(a.Cand[w])
		// keptList holds distinct indices, so full length means all kept.
		if inSub[w] && len(keptList[w]) != nw {
			changed[w] = true
			nw = len(keptList[w])
		}
		sc.empty = sc.empty || nw == 0
		sc.size += int64(nw) * 4
	}
	if sc.empty {
		return true
	}

	// Adjacency: an edge between two unchanged vertices is shared with a,
	// and its size and cached longest row fold in O(1). Every other query
	// edge is rebuilt in one direction only. A tree edge inside u's subtree
	// is walked from its parent f, whose kept rows keep every target — the
	// reachability pass kept them — so its rows count in O(1) each. Any
	// other edge is walked from a changed endpoint f — the one keeping fewer
	// candidates when both changed — and its targets are filtered through
	// the other endpoint's kept bitset when that changed too.
	sc.edgeList = appendEdgePairs(sc.edgeList[:0], t)
	sc.pairs, sc.targets = sc.pairs[:0], sc.targets[:0]
	for _, e := range sc.edgeList {
		if sc.polled() {
			return false
		}
		f, to := e[0], e[1]
		if !changed[f] && !changed[to] {
			for _, v := range [2]Adj{a.Edge(f, to), a.Edge(to, f)} {
				sc.size += int64(len(v.Offsets)+len(v.Targets)) * 4
				sc.maxDeg = max(sc.maxDeg, int(v.maxDeg))
			}
			continue
		}
		if !(t.Parent[to] == f && inSub[f]) && (!changed[f] || (changed[to] && len(keptList[to]) < len(keptList[f]))) {
			f, to = to, f
		}
		adj, keptTo, filter := a.Edge(f, to), kept[to], sc.filtered(f, to)
		targets, fwdMax := len(adj.Targets), int(adj.maxDeg)
		if changed[f] {
			targets, fwdMax = 0, 0
			for r, i := range keptList[f] {
				if r&pollMask == 0 && sc.polled() {
					return false
				}
				row := adj.Neighbors(i)
				d := len(row)
				if filter {
					d = 0
					for _, j := range row {
						if isKept(keptTo, j) {
							d++
						}
					}
				}
				fwdMax = max(fwdMax, d)
				targets += d
			}
		}
		// A reverse row of the piece is no longer than the ancestor's.
		if int(a.Edge(to, f).maxDeg) > sc.degLimit {
			revMax, ok := sc.countReverse(f, to)
			if !ok {
				return false
			}
			sc.maxDeg = max(sc.maxDeg, revMax)
		}
		sc.size += int64(sc.candCount(f)+1+sc.candCount(to)+1+2*targets) * 4
		sc.maxDeg = max(sc.maxDeg, fwdMax)
		sc.pairs, sc.targets = append(sc.pairs, [2]graph.QueryVertex{f, to}), append(sc.targets, targets)
	}
	return true
}

// filtered reports whether the rows of the counted piece's rebuilt edge
// f → to reach candidates of to that the piece drops: whether to changed,
// unless f is its tree parent, whose kept rows reach only kept candidates
// (u's parent, outside the subtree, is never f).
func (sc *restrictScratch) filtered(f, to graph.QueryVertex) bool {
	return sc.changed[to] && sc.from.Tree.Parent[to] != f
}

// candCount returns |C(w)| in the counted piece.
func (sc *restrictScratch) candCount(w graph.QueryVertex) int {
	if sc.changed[w] {
		return len(sc.keptList[w])
	}
	return len(sc.from.Cand[w])
}

// countReverse returns the longest reverse row of the counted piece's
// rebuilt edge f → to: the most kept rows of f that share one target. It
// leaves revLen cleared.
func (sc *restrictScratch) countReverse(f, to graph.QueryVertex) (int, bool) {
	a := sc.from
	adj, keptTo, filter := a.Edge(f, to), sc.kept[to], sc.filtered(f, to)
	sc.revLen = resized(sc.revLen, len(a.Cand[to]))
	revLen, touched := sc.revLen, sc.touched[:0]
	var revMax int32
	ok := true
	// f is in u's subtree, so keptList[f] lists its kept rows even when it
	// keeps them all.
	for r, i := range sc.keptList[f] {
		if r&pollMask == 0 && sc.polled() {
			ok = false
			break
		}
		for _, j := range adj.Neighbors(i) {
			if filter && !isKept(keptTo, j) {
				continue
			}
			if revLen[j] == 0 {
				touched = append(touched, j)
			}
			revLen[j]++
			revMax = max(revMax, revLen[j])
		}
	}
	for _, j := range touched {
		revLen[j] = 0
	}
	sc.touched = touched
	return int(revMax), ok
}

// build is restrict's build phase: it materialises the non-empty piece the
// last count described. Vertices outside u's subtree keep their candidate
// sets verbatim, so any adjacency list between two unchanged vertices is
// shared with the ancestor rather than copied (its views alias the
// ancestor's arenas) — CSTs are immutable after construction. A changed
// vertex's kept candidates are the count's ascending list, and only they
// get a remap entry. The count sizes each rebuilt edge's arenas and gives
// the piece's SizeBytes; the edge's rows are the ancestor's, remapped, and
// filtered again where the count filtered them, as they are written, and
// the reverse direction is the transpose.
// Everything the piece owns lands in three arenas — candidates, offsets,
// targets — which, with the CST shell, come from a recycled piece when the
// scratch has one spare: a build performs O(1) allocations however many
// vertices changed, and none on a spare whose arenas are long enough. Only
// the offsets are cleared, because the reverse rows are counted into them;
// candidates and targets are written whole. The piece holds a reference to
// its ancestor when that is a built piece too.
//
// build polls sc's amortised cancel hook once per row block and returns nil
// once it fires; callers must treat a nil return as "stop producing", never
// as an empty piece.
func (sc *restrictScratch) build() *CST {
	a := sc.from
	n := a.Query.NumVertices()
	changed, keptList, remap := sc.changed, sc.keptList, sc.remap
	sp := sc.spares.take(a.Query, a.Tree)
	part := &sp.c
	totalKept := 0
	for w := 0; w < n; w++ {
		if changed[w] {
			totalKept += len(keptList[w])
		}
	}
	sp.cands = remade(sp.cands, totalKept)
	candArena := sp.cands
	for w := 0; w < n; w++ {
		if !changed[w] {
			part.Cand[w] = a.Cand[w]
			continue
		}
		kl := keptList[w]
		remap[w] = resized(remap[w], len(a.Cand[w]))
		cands := candArena[:len(kl):len(kl)]
		candArena = candArena[len(kl):]
		for r, i := range kl {
			if r&pollMask == 0 && sc.polled() {
				return nil
			}
			remap[w][i] = CandIndex(r)
			cands[r] = a.Cand[w][i]
		}
		part.Cand[w] = cands
	}
	// The count's maxDeg may stop short of the exact longest list, which
	// the build takes from the rows it writes.
	part.sizeBytes = sc.size
	for _, e := range sc.edgeList {
		if sc.polled() {
			return nil
		}
		x, y := e[0], e[1]
		if !changed[x] && !changed[y] {
			part.setAdj(x, y, a.Edge(x, y))
			part.setAdj(y, x, a.Edge(y, x))
			part.maxDeg = max(part.maxDeg, int(a.Edge(x, y).maxDeg), int(a.Edge(y, x).maxDeg))
		}
	}
	offTotal, tgtTotal, maxTo := 0, 0, 0
	for p, e := range sc.pairs {
		offTotal += len(part.Cand[e[0]]) + len(part.Cand[e[1]]) + 2
		tgtTotal += 2 * sc.targets[p]
		maxTo = max(maxTo, len(part.Cand[e[1]]))
	}
	sp.offs, sp.tgts = remade(sp.offs, offTotal), remade(sp.tgts, tgtTotal)
	clear(sp.offs)
	offArena, tgtArena := sp.offs, sp.tgts
	sc.cursor = resized(sc.cursor, maxTo)
	for p, e := range sc.pairs {
		if sc.polled() {
			return nil
		}
		f, to := e[0], e[1]
		nf, nt, m := len(part.Cand[f])+1, len(part.Cand[to])+1, sc.targets[p]
		fwd := Adj{Offsets: offArena[:nf:nf], Targets: tgtArena[:m:m]}
		rev := Adj{Offsets: offArena[nf : nf+nt : nf+nt], Targets: tgtArena[m : 2*m : 2*m]}
		offArena, tgtArena = offArena[nf+nt:], tgtArena[2*m:]
		var ok bool
		if fwd.maxDeg, ok = sc.writeRows(f, to, fwd, rev.Offsets); !ok {
			return nil
		}
		if rev.maxDeg, ok = revOffsets(rev.Offsets, sc); !ok || !transpose(fwd, rev, sc.cursor, sc) {
			return nil
		}
		part.setAdj(f, to, fwd)
		part.setAdj(to, f, rev)
		part.maxDeg = max(part.maxDeg, int(fwd.maxDeg), int(rev.maxDeg))
	}
	if sp.from = a.spare; sp.from != nil {
		sp.from.refs.Add(1)
	}
	return part
}

// spare is a piece a scratch built, with what recycling it needs: the
// arenas its own candidates and views are cut from, and the references
// that keep them from reuse while something reads them.
type spare struct {
	c     CST
	refs  atomic.Int32 // its holder's, plus one per live piece cut from c
	from  *spare       // the built piece c was cut from; nil for Partition's input
	home  *spares      // where c goes once refs reaches zero
	cands []graph.VertexID
	offs  []int32
	tgts  []CandIndex
}

// release drops one reference to the piece. At the last, the piece goes
// back on its list, and then releases its own ancestor.
func (sp *spare) release() {
	for sp != nil {
		switch n := sp.refs.Add(-1); {
		case n > 0:
			return
		case n < 0:
			panic("cst: a piece was recycled more than once")
		}
		from := sp.from
		// The shell drops what it aliases, so a spare pins no other CST,
		// and its adjacency table is left zero: the next piece's non-edges
		// must read invalid.
		clear(sp.c.Cand)
		clear(sp.c.adj)
		sp.c = CST{Cand: sp.c.Cand, adj: sp.c.adj}
		sp.from = nil
		sp.home.put(sp)
		sp = from
	}
}

// spares lists the recycled pieces of one scratch. Holders recycle on their
// own goroutines, also after the Partition call that built the piece has
// returned, hence the mutex. The list never holds more pieces than the
// scratch's builds had live at once, and it is dropped with the scratch.
type spares struct {
	mu   sync.Mutex
	list []*spare
}

func (s *spares) put(sp *spare) {
	s.mu.Lock()
	s.list = append(s.list, sp)
	s.mu.Unlock()
}

// take returns a piece to build into for query q and tree t, held once:
// the last one recycled, or a new one when none is spare. Its shell is
// sized for q, with a zero adjacency table; its arenas are as it was
// recycled with.
func (s *spares) take(q *graph.Query, t *order.Tree) *spare {
	var sp *spare
	s.mu.Lock()
	if n := len(s.list); n > 0 {
		sp, s.list[n-1] = s.list[n-1], nil
		s.list = s.list[:n-1]
	}
	s.mu.Unlock()
	if sp == nil {
		sp = &spare{home: s}
	}
	nq := q.NumVertices()
	sp.c = CST{Query: q, Tree: t, Cand: remade(sp.c.Cand, nq), adj: remade(sp.c.adj, nq*nq), spare: sp}
	sp.refs.Store(1)
	return sp
}

// remade returns s with length n: s itself when its capacity suffices, a
// new slice otherwise — made, not grown, so that it allocates once also
// under the race detector.
func remade[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// writeRows writes the rows of the built piece's edge f → to into fwd, in
// the piece's index space — f's kept rows of the ancestor, ascending, their
// targets remapped when to changed and filtered again through its kept
// bitset where the count filtered them — and counts the length of reverse
// row j into rev[j+1]. It returns the longest row.
func (sc *restrictScratch) writeRows(f, to graph.QueryVertex, fwd Adj, rev []int32) (int32, bool) {
	adj := sc.from.Edge(f, to)
	keptTo, remapTo := sc.kept[to], sc.remap[to]
	remap, filter := sc.changed[to], sc.filtered(f, to)
	var w, maxDeg int32
	for r := 0; r+1 < len(fwd.Offsets); r++ {
		if r&pollMask == 0 && sc.polled() {
			return 0, false
		}
		i := CandIndex(r) // f keeps all its rows only when it is a tree parent in u's subtree
		if sc.changed[f] {
			i = sc.keptList[f][r]
		}
		row := adj.Neighbors(i)
		switch {
		case filter:
			for _, j := range row {
				if isKept(keptTo, j) {
					nj := remapTo[j]
					fwd.Targets[w] = nj
					rev[nj+1]++
					w++
				}
			}
		case remap:
			for _, j := range row {
				nj := remapTo[j]
				fwd.Targets[w] = nj
				rev[nj+1]++
				w++
			}
		default:
			w += int32(copy(fwd.Targets[w:], row))
			for _, j := range row {
				rev[j+1]++
			}
		}
		maxDeg = max(maxDeg, w-fwd.Offsets[r])
		fwd.Offsets[r+1] = w
	}
	return maxDeg, true
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
