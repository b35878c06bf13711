package cst

import (
	"cmp"
	"slices"

	"fastmatch/graph"
	"fastmatch/internal/order"
)

// Changed-edge matching for standing queries. Between two snapshots of a
// graph, an embedding can appear or vanish only if it uses an edge the
// batch inserted or deleted: every other embedding uses only edges, and so
// only live vertices, that both snapshots share. A batch's removed
// embeddings are therefore the old snapshot's embeddings that use a deleted
// edge, and its added ones the new snapshot's embeddings that use an
// inserted edge — the rule continuous subgraph matchers such as TurboFlux
// (Kim et al., SIGMOD 2018) are built on. Neither needs the rest of the
// graph.
//
// EdgeMatcher finds them with one seeded CST per query edge (a, b):
// Algorithm 1 over the BFS tree rooted at a, with C(a) and C(b) seeded
// from the changed edges' endpoints, the (a, b) rows cut to the changed
// edges themselves, and every other candidate set grown top-down from the
// seed through label runs. A pass so costs the seed's neighbourhood, not
// the graph. An embedding that maps several query edges onto changed edges
// is found by several passes; only the pass of the lowest-indexed such
// query edge keeps it, so each is reported exactly once with no dedup map.

// EdgeMatcher enumerates the embeddings of one query that use at least one
// edge of a changed-edge set. It holds the query's per-edge seeded plans
// and buffers sized by the query and the batch; the tables sized by the
// graph live in a MatchScratch the caller passes in, so repeated calls
// allocate only the seeded CSTs and the embeddings they return. It is
// single-goroutine state.
type EdgeMatcher struct {
	q      *graph.Query
	edges  [][2]graph.QueryVertex   // query edges (u, w), u < w, ascending: the exactly-once priority
	trees  []*order.Tree            // trees[k] is the BFS tree rooted at edges[k][0]
	pairs  [][][2]graph.QueryVertex // pairs[k]: every query edge of trees[k], as appendEdgePairs lists them
	filter []localFilter            // per query vertex

	changed [][2]graph.VertexID // this call's changed edges: (lo, hi), sorted, distinct
	e       Enumerator
	k       int // the query edge the running pass is seeded on
	out     []graph.Embedding
	keepFn  func(graph.Embedding) bool
}

// MatchScratch is the per-data-vertex state of EdgeMatcher.Match: the stamp
// table and the position table, 8 B per vertex of the largest graph
// matched on. Matches that never run at the same time, such as the
// standing queries of one graph, which are notified one at a time, share
// one. The zero value is ready to use.
type MatchScratch struct {
	st  stamps
	pos []uint32 // probeRows' position table, then transpose's cursor
}

// NewEdgeMatcher prepares the seeded plans of q: a BFS tree rooted at one
// endpoint of each query edge.
func NewEdgeMatcher(q *graph.Query) *EdgeMatcher {
	m := &EdgeMatcher{q: q, filter: make([]localFilter, q.NumVertices())}
	for u := range m.filter {
		m.filter[u] = newLocalFilter(q, u)
		for _, w := range q.Neighbors(u) {
			if u < w {
				t := order.BuildBFSTree(q, u)
				m.edges = append(m.edges, [2]graph.QueryVertex{u, w})
				m.trees = append(m.trees, t)
				m.pairs = append(m.pairs, appendEdgePairs(nil, t))
			}
		}
	}
	m.keepFn = m.keep
	return m
}

// Match returns every embedding of the query in g that maps at least one
// query edge onto an edge of changed, each exactly once, in no specified
// order. changed lists undirected edges of g, in either orientation and
// possibly repeated. A query without edges matches nothing here: its
// embeddings change with the vertices, not the edges. sc must not be in
// use by another Match at the same time.
func (m *EdgeMatcher) Match(g *graph.Graph, changed [][2]graph.VertexID, sc *MatchScratch) []graph.Embedding {
	if len(changed) == 0 || len(m.edges) == 0 {
		return nil
	}
	m.changed = m.changed[:0]
	for _, e := range changed {
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		m.changed = append(m.changed, e)
	}
	slices.SortFunc(m.changed, cmpEdge)
	m.changed = slices.Compact(m.changed)
	n := g.NumVertices()
	sc.st.s = growStamps(sc.st.s, n)
	sc.pos = growStamps(sc.pos, n)

	for k := range m.edges {
		c := m.seed(g, k, sc)
		if c == nil {
			continue
		}
		m.k = k
		m.e.Reset(c, order.PathBased(m.trees[k], c))
		m.e.Run(m.keepFn)
	}
	m.e.Release()
	out := m.out
	m.out = nil
	return out
}

// growStamps returns s resliced, or reallocated with headroom, to length n.
// A fresh tail is zero, which no stamp generation equals.
func growStamps(s []uint32, n int) []uint32 {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]uint32, n, n+n/8)
}

// seed builds the CST of pass k over g, or returns nil when it holds no
// embedding. C(a) and C(b) are the endpoints of the changed edges whose
// labels fit (a, b) in either orientation and that pass the local filter;
// every other C(u) is the label-u neighbours of C(parent(u)) that pass it.
// Refinement and adjacency then run as in BuildWorkers, with the (a, b)
// rows cut to the changed edges.
func (m *EdgeMatcher) seed(g *graph.Graph, k int, sc *MatchScratch) *CST {
	a, b := m.edges[k][0], m.edges[k][1]
	q, t := m.q, m.trees[k]
	la, lb := q.Label(a), q.Label(b)
	var ca, cb []graph.VertexID
	for _, e := range m.changed {
		for _, xy := range [2][2]graph.VertexID{e, {e[1], e[0]}} {
			x, y := xy[0], xy[1]
			if g.Label(x) == la && g.Label(y) == lb && m.filter[a].admits(g, x) && m.filter[b].admits(g, y) {
				ca = append(ca, x)
				cb = append(cb, y)
			}
		}
	}
	if len(ca) == 0 {
		return nil
	}
	slices.Sort(ca)
	slices.Sort(cb)
	c := newCST(q, t)
	c.Cand[a], c.Cand[b] = slices.Compact(ca), slices.Compact(cb)
	for _, u := range t.BFSOrder[1:] {
		if u == b {
			continue
		}
		gen := sc.st.next()
		l := q.Label(u)
		var cu []graph.VertexID
		for _, v := range c.Cand[t.Parent[u]] {
			for _, w := range g.NeighborsWithLabel(v, l, nil) {
				if sc.st.s[w] == gen {
					continue
				}
				sc.st.s[w] = gen
				if m.filter[u].admits(g, w) {
					cu = append(cu, w)
				}
			}
		}
		if len(cu) == 0 {
			return nil
		}
		slices.Sort(cu)
		c.Cand[u] = cu
	}
	c.bottomUp(g, &sc.st, 1)
	c.topDown(g, &sc.st, 1)
	if c.IsEmpty() {
		return nil
	}
	c.addCandBytes()
	var uncancelled restrictScratch
	c.writeAdjacency(m.pairs[k], sc.pos, &uncancelled, func(u, w graph.QueryVertex, fwd, rev []int32, tgt []CandIndex) int32 {
		var cut [][2]graph.VertexID
		if u == a && w == b {
			cut = m.changed
		}
		return c.probeRows(g, u, w, sc.pos, fwd, rev, tgt, cut)
	})
	return c
}

// keep is pass k's emit: it keeps an embedding unless an earlier query edge
// also maps onto a changed edge, in which case an earlier pass kept it.
func (m *EdgeMatcher) keep(em graph.Embedding) bool {
	for _, e := range m.edges[:m.k] {
		if hasEdge(m.changed, em[e[0]], em[e[1]]) {
			return true
		}
	}
	m.out = append(m.out, em)
	return true
}

// hasEdge reports whether the undirected edge {u, v} is in es, a sorted set
// of (lo, hi) pairs.
func hasEdge(es [][2]graph.VertexID, u, v graph.VertexID) bool {
	if u > v {
		u, v = v, u
	}
	_, ok := slices.BinarySearchFunc(es, [2]graph.VertexID{u, v}, cmpEdge)
	return ok
}

func cmpEdge(x, y [2]graph.VertexID) int {
	if c := cmp.Compare(x[0], y[0]); c != 0 {
		return c
	}
	return cmp.Compare(x[1], y[1])
}
