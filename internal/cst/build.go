package cst

import (
	"sort"
	"sync"

	"fastmatch/graph"
	"fastmatch/internal/order"
)

// Build constructs the CST for (q, G) over the BFS tree t, following
// Algorithm 1: top-down candidate construction, bottom-up refinement, then
// adding edges between non-tree candidate neighbours. The soundness
// constraint — every data vertex participating in an embedding of q stays in
// its candidate set — holds because each pass only removes vertices that
// cannot appear in any embedding.
func Build(q *graph.Query, g *graph.Graph, t *order.Tree) *CST {
	return BuildWorkers(q, g, t, 1)
}

// parallelBuildMin is the candidate-set size below which a stamp-probe pass
// stays serial: goroutine fan-out only pays for itself on large sets.
const parallelBuildMin = 1024

// BuildWorkers is Build with the per-level stamp-probe passes run
// data-parallel over candidate vertices, bounded by workers. Build sits on
// the host's critical path (the modelled FPGA idles until the first
// partition arrives), so every pass leans on the graph's label-major
// adjacency and its run table: candidate filtering scans only same-label
// vertices, the reachability passes probe only same-label neighbourhood
// runs, and adjacency construction probes label-restricted runs against a
// position table instead of intersecting whole adjacency lists. The
// result is identical to Build's for any worker count — each pass marks
// serially, probes in order-preserving chunks, and the barrier between
// passes keeps the level order of Algorithm 1.
func BuildWorkers(q *graph.Query, g *graph.Graph, t *order.Tree, workers int) *CST {
	if workers < 1 {
		workers = 1
	}
	c := newCST(q, t)

	// Line 2/4: compute candidates from local features (label, degree and
	// neighbourhood label frequency). Query vertices are independent here,
	// so they fan out across the worker budget.
	nq := q.NumVertices()
	if workers > 1 && nq > 1 {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for u := 0; u < nq; u++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(u graph.QueryVertex) {
				defer wg.Done()
				c.Cand[u] = localCandidates(q, g, u)
				<-sem
			}(u)
		}
		wg.Wait()
	} else {
		for u := 0; u < nq; u++ {
			c.Cand[u] = localCandidates(q, g, u)
		}
	}

	// Membership tests use a generation-stamped array instead of hash
	// sets: marking a candidate set costs one pass and queries are O(1)
	// with no per-pass allocation. Candidates of a query vertex all carry
	// its label, so the reachability probe walks only the matching label
	// run of each neighbourhood instead of the whole adjacency list.
	st := stamps{s: make([]uint32, g.NumVertices())}

	// Lines 3-7: top-down construction.
	c.topDown(g, &st, workers)
	// Lines 8-14: bottom-up refinement.
	c.bottomUp(g, &st, workers)
	// One more top-down pass: bottom-up refinement may have removed parent
	// candidates, stranding children whose only parents vanished. The paper
	// removes such candidates from adjacency lists (line 14); pruning them
	// from C(u) as well is equivalent and keeps the CST smaller.
	c.topDown(g, &st, workers)

	// Build adjacency lists for tree edges and (lines 15-19) non-tree
	// candidate neighbours, both directions, into the CST's flat CSR arenas.
	// The stamps are dead once refinement ends, so the same array becomes
	// the position table each edge's a → b probe reads, and then the write
	// cursor of its b → a transpose. One build costs O(Σ label-run degree +
	// Σ|C(u)| + kept edges): every probe is O(1), whatever the size of C(b).
	c.addCandBytes()
	var uncancelled restrictScratch
	c.writeAdjacency(appendEdgePairs(nil, t), st.s, &uncancelled, func(a, b graph.QueryVertex, fwd, rev []int32, tgt []CandIndex) int32 {
		return c.probeRows(g, a, b, st.s, fwd, rev, tgt, nil)
	})
	return c
}

// stamps is the generation-stamped membership table Algorithm 1's passes
// share: marking a set bumps the generation and stamps its members, so a
// membership test is one compare and nothing is ever cleared between
// passes.
type stamps struct {
	s   []uint32
	gen uint32
}

// next starts a new generation and returns it. The table is cleared only
// when the generation wraps, so a long-lived table never mistakes a stamp
// from 2³² generations ago for a current one; the clear reaches the whole
// capacity, since a table resliced shorter may grow back over its tail.
func (st *stamps) next() uint32 {
	st.gen++
	if st.gen == 0 {
		clear(st.s[:cap(st.s)])
		st.gen = 1
	}
	return st.gen
}

// mark stamps vs with a new generation and returns it.
func (st *stamps) mark(vs []graph.VertexID) uint32 {
	gen := st.next()
	for _, v := range vs {
		st.s[v] = gen
	}
	return gen
}

// keepAdjacent filters vs in place to the vertices with at least one
// neighbour labelled l stamped gen. The probe over the filtered set is
// chunked across workers: stamps are read-only while probing, and the join
// barrier orders each probe pass after its mark.
func (st *stamps) keepAdjacent(g *graph.Graph, vs []graph.VertexID, l graph.Label, gen uint32, workers int) []graph.VertexID {
	stamp := st.s
	return parallelKeep(vs, workers, func(v graph.VertexID) bool {
		for _, w := range g.NeighborsWithLabel(v, l, nil) {
			if stamp[w] == gen {
				return true
			}
		}
		return false
	})
}

// topDown keeps a candidate of u only if it is adjacent to at least one
// candidate of u's tree parent, level by level from the root (Algorithm 1,
// lines 3-7).
func (c *CST) topDown(g *graph.Graph, st *stamps, workers int) {
	t := c.Tree
	for _, u := range t.BFSOrder[1:] {
		p := t.Parent[u]
		gen := st.mark(c.Cand[p])
		c.Cand[u] = st.keepAdjacent(g, c.Cand[u], c.Query.Label(p), gen, workers)
	}
}

// bottomUp keeps a candidate v of u only if every tree child uc has at
// least one candidate adjacent to v, from the leaves up (Algorithm 1,
// lines 8-14).
func (c *CST) bottomUp(g *graph.Graph, st *stamps, workers int) {
	t := c.Tree
	for i := len(t.BFSOrder) - 1; i >= 0; i-- {
		u := t.BFSOrder[i]
		for _, uc := range t.Children[u] {
			gen := st.mark(c.Cand[uc])
			c.Cand[u] = st.keepAdjacent(g, c.Cand[u], c.Query.Label(uc), gen, workers)
		}
	}
}

// addCandBytes folds the candidate arrays into c's size statistic; the
// adjacency writer adds the arenas.
func (c *CST) addCandBytes() {
	for _, cands := range c.Cand {
		c.sizeBytes += int64(len(cands)) * 4
	}
}

// appendEdgePairs appends every query edge once, as an (a,b) pair, to dst:
// tree edges (parent, child) in BFS order, then the non-tree edges.
func appendEdgePairs(dst [][2]graph.QueryVertex, t *order.Tree) [][2]graph.QueryVertex {
	for _, u := range t.BFSOrder {
		if u != t.Root {
			dst = append(dst, [2]graph.QueryVertex{t.Parent[u], u})
		}
	}
	for _, e := range t.NonTreeEdges {
		dst = append(dst, [2]graph.QueryVertex{e[0], e[1]})
	}
	return dst
}

// parallelKeep filters vs in place, preserving order, with the predicate
// evaluated in parallel chunks when the set is large enough to amortise the
// fan-out. Each chunk compacts within its own extent, then a serial pass
// packs the kept runs to the front — exactly the elements (and order) the
// serial filter keeps.
func parallelKeep(vs []graph.VertexID, workers int, keep func(graph.VertexID) bool) []graph.VertexID {
	if workers <= 1 || len(vs) < parallelBuildMin {
		out := vs[:0]
		for _, v := range vs {
			if keep(v) {
				out = append(out, v)
			}
		}
		return out
	}
	chunk := (len(vs) + workers - 1) / workers
	nchunks := (len(vs) + chunk - 1) / chunk
	kept := make([]int, nchunks)
	var wg sync.WaitGroup
	for i := 0; i < nchunks; i++ {
		lo := i * chunk
		hi := min(lo+chunk, len(vs))
		wg.Add(1)
		go func(i int, part []graph.VertexID) {
			defer wg.Done()
			n := 0
			for _, v := range part {
				if keep(v) {
					part[n] = v
					n++
				}
			}
			kept[i] = n
		}(i, vs[lo:hi])
	}
	wg.Wait()
	out := vs[:0]
	for i := 0; i < nchunks; i++ {
		lo := i * chunk
		out = append(out, vs[lo:lo+kept[i]]...)
	}
	return out
}

// labelNeed is one entry of a query vertex's neighbourhood label
// frequency: at least need neighbours labelled l.
type labelNeed struct {
	l    graph.Label
	need int
}

// localFilter is a query vertex's local features: at least its degree, and
// at least its per-label neighbour counts (the NLF filter used by
// CFL/DAF/CECI). The NLF map is hoisted into a sorted slice once, so the
// per-vertex test performs no map iteration, and each per-label degree is
// one label-index run-length read.
type localFilter struct {
	minDeg int
	needs  []labelNeed
}

func newLocalFilter(q *graph.Query, u graph.QueryVertex) localFilter {
	nlf := q.NeighborLabelCounts(u)
	needs := make([]labelNeed, 0, len(nlf))
	for l, need := range nlf {
		needs = append(needs, labelNeed{l, need})
	}
	sort.Slice(needs, func(i, j int) bool { return needs[i].l < needs[j].l })
	return localFilter{minDeg: q.Degree(u), needs: needs}
}

// admits reports whether v passes the filter; the caller checks the label.
func (f *localFilter) admits(g *graph.Graph, v graph.VertexID) bool {
	if g.Degree(v) < f.minDeg {
		return false
	}
	for _, ln := range f.needs {
		if g.DegreeWithLabel(v, ln.l) < ln.need {
			return false
		}
	}
	return true
}

// localCandidates returns the data vertices conforming with u's local
// features: same label, and admitted by u's localFilter.
func localCandidates(q *graph.Query, g *graph.Graph, u graph.QueryVertex) []graph.VertexID {
	f := newLocalFilter(q, u)
	var out []graph.VertexID
	for _, v := range g.VerticesWithLabel(q.Label(u)) {
		if f.admits(g, v) {
			out = append(out, v)
		}
	}
	return out
}

// probeRows intersects each a-candidate's label-restricted data adjacency
// (the run of neighbours labelled like b, a zero-copy subslice of the label
// index) with C(b). pos is loaded as a sparse set — pos[C(b)[j]] = j — so
// neighbour w is in C(b) iff j := pos[w] is in range and C(b)[j] == w; stale
// entries from earlier edges fail that check and nothing is ever cleared.
// When the query edge carries a label, only data edges whose half-edge
// labels match both directions survive (the edge-labeled extension of
// Section II), which makes the kept relation symmetric: b → a is exactly
// its transpose.
//
// A non-nil cut (a sorted edge set, see hasEdge) keeps only the data edges
// it holds: the seeded edge of an EdgeMatcher pass.
//
// It is Build's adjRows (counting with tgt nil, else writing); each written
// row is ascending because the label run and C(b) are both sorted.
func (c *CST) probeRows(g *graph.Graph, a, b graph.QueryVertex, pos []uint32, fwd, rev []int32, tgt []CandIndex, cut [][2]graph.VertexID) int32 {
	src, dst := c.Cand[a], c.Cand[b]
	for j, w := range dst {
		pos[w] = uint32(j)
	}
	lt := c.Query.Label(b)
	want := c.Query.EdgeLabel(a, b)
	wantRev := c.Query.EdgeLabel(b, a)
	var maxDeg int32
	for i, v := range src {
		adj, elabels := g.NeighborsWithLabelAndEdgeLabels(v, lt)
		n := fwd[i]
		for k, w := range adj {
			j := pos[w]
			if int(j) >= len(dst) || dst[j] != w {
				continue
			}
			if elabels != nil {
				if want != graph.WildcardEdgeLabel && elabels[k] != want {
					continue
				}
				if wantRev != graph.WildcardEdgeLabel && !g.HasEdgeLabeled(w, v, wantRev) {
					continue
				}
			}
			if cut != nil && !hasEdge(cut, v, w) {
				continue
			}
			if tgt != nil {
				tgt[n] = CandIndex(j)
			} else {
				rev[j+1]++
			}
			n++
		}
		if tgt == nil {
			fwd[i+1] = n
			maxDeg = max(maxDeg, n-fwd[i])
		}
	}
	return maxDeg
}
