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
	// run of each neighbourhood instead of the whole adjacency list. Marking
	// is serial; the probe over the filtered set is chunked across workers
	// (stamps are read-only while probing, and the join barrier orders each
	// probe pass after its mark).
	stamp := make([]uint32, g.NumVertices())
	var gen uint32
	mark := func(vs []graph.VertexID) {
		gen++
		for _, v := range vs {
			stamp[v] = gen
		}
	}
	probe := func(vs []graph.VertexID, l graph.Label) []graph.VertexID {
		myGen := gen
		return parallelKeep(vs, workers, func(v graph.VertexID) bool {
			for _, w := range g.NeighborsWithLabel(v, l, nil) {
				if stamp[w] == myGen {
					return true
				}
			}
			return false
		})
	}

	// Lines 3-7: top-down construction. A candidate of u survives only if
	// it is adjacent to at least one candidate of u's tree parent.
	topDown := func() {
		for _, u := range t.BFSOrder {
			if u == t.Root {
				continue
			}
			mark(c.Cand[t.Parent[u]])
			c.Cand[u] = probe(c.Cand[u], q.Label(t.Parent[u]))
		}
	}
	topDown()

	// Lines 8-14: bottom-up refinement. A candidate v of u is valid only if
	// every tree child uc has at least one candidate adjacent to v.
	for i := len(t.BFSOrder) - 1; i >= 0; i-- {
		u := t.BFSOrder[i]
		for _, uc := range t.Children[u] {
			mark(c.Cand[uc])
			c.Cand[u] = probe(c.Cand[u], q.Label(uc))
		}
	}

	// One more top-down pass: bottom-up refinement may have removed parent
	// candidates, stranding children whose only parents vanished. The paper
	// removes such candidates from adjacency lists (line 14); pruning them
	// from C(u) as well is equivalent and keeps the CST smaller.
	topDown()

	// Build adjacency lists for tree edges and (lines 15-19) non-tree
	// candidate neighbours, both directions, into the CST's flat CSR arenas.
	// The stamps are dead once refinement ends, so the same array becomes
	// the position table each edge's a → b probe reads, and then the write
	// cursor of its b → a transpose. One build costs O(Σ label-run degree +
	// Σ|C(u)| + kept edges): every probe is O(1), whatever the size of C(b).
	for _, cands := range c.Cand {
		c.sizeBytes += int64(len(cands)) * 4
	}
	var uncancelled restrictScratch
	c.writeAdjacency(appendEdgePairs(nil, t), stamp, &uncancelled, func(a, b graph.QueryVertex, fwd, rev []int32, tgt []CandIndex) int32 {
		return c.probeRows(g, a, b, stamp, fwd, rev, tgt)
	})
	return c
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

// localCandidates returns the data vertices conforming with u's local
// features: same label, at least u's degree, and at least u's per-label
// neighbour counts (the NLF filter used by CFL/DAF/CECI). The NLF map is
// hoisted into a sorted slice once per query vertex so the per-candidate
// loop performs no map iteration, and each per-label degree is one
// label-index run-length read.
func localCandidates(q *graph.Query, g *graph.Graph, u graph.QueryVertex) []graph.VertexID {
	type labelNeed struct {
		l    graph.Label
		need int
	}
	nlf := q.NeighborLabelCounts(u)
	needs := make([]labelNeed, 0, len(nlf))
	for l, need := range nlf {
		needs = append(needs, labelNeed{l, need})
	}
	sort.Slice(needs, func(i, j int) bool { return needs[i].l < needs[j].l })
	minDeg := q.Degree(u)
	var out []graph.VertexID
	for _, v := range g.VerticesWithLabel(q.Label(u)) {
		if g.Degree(v) < minDeg {
			continue
		}
		ok := true
		for _, ln := range needs {
			if g.DegreeWithLabel(v, ln.l) < ln.need {
				ok = false
				break
			}
		}
		if ok {
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
// It is Build's adjRows (counting with tgt nil, else writing); each written
// row is ascending because the label run and C(b) are both sorted.
func (c *CST) probeRows(g *graph.Graph, a, b graph.QueryVertex, pos []uint32, fwd, rev []int32, tgt []CandIndex) int32 {
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
