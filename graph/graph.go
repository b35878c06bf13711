// Package graph provides labelled, undirected, simple graphs stored in
// compressed sparse row (CSR) form, together with builders, loaders and
// synthetic generators. It is the substrate every other package in this
// module (CST construction, the FAST kernel, the baselines and the LDBC-like
// benchmark generator) operates on.
//
// Vertices are dense uint32 identifiers in [0, NumVertices). Every vertex
// carries exactly one label. Each adjacency list is stored once, in
// label-major order: grouped into runs by neighbour label, runs in
// ascending label order, ids ascending within a run. A table of those runs
// makes the per-label probes of candidate filtering and CST construction
// subslice reads, and an edge lookup a binary search over one run.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// VertexID identifies a vertex of a data graph.
type VertexID = uint32

// Label identifies a vertex label.
type Label = uint16

// Graph is an immutable labelled undirected simple graph in CSR form.
// Construct one with a Builder, a loader from the io files, or a generator.
type Graph struct {
	offsets   []int64    // len = n+1; adjacency of v is neighbors[offsets[v]:offsets[v+1]]
	neighbors []VertexID // (label, id) order within each vertex's range
	labels    []Label    // len = n
	byLabel   [][]VertexID
	numLabels int
	maxDegree int
	// edgeLabels, when non-nil, is aligned with neighbors: the label of
	// half-edge v→neighbors[i] is edgeLabels[i] (see edgelabel.go).
	edgeLabels []EdgeLabel
	// Label runs: those of v are [runOff[v], runOff[v+1]); run k holds the
	// neighbours labelled runLabels[k] and starts at offset runStarts[k]
	// within v's adjacency, that is at neighbors[offsets[v]+runStarts[k]]
	// (it ends where v's next run starts, or at offsets[v+1]). Relative
	// starts keep a vertex's runs valid wherever its adjacency sits, so
	// ApplyDelta copies an unchanged vertex's runs verbatim. int64 like
	// offsets: a hub's degree can exceed int32.
	runOff    []int64 // len = n+1
	runLabels []Label
	runStarts []int64
	// deleted marks tombstoned vertices (delta.go); nil until the first
	// vertex delete, so static graphs pay nothing. A tombstone keeps its id
	// (embeddings stay comparable across epochs) but has no adjacency and
	// is absent from byLabel, so it can never become a matching candidate.
	deleted    []bool
	numDeleted int
	// epoch counts ApplyDelta batches since construction; see Epoch.
	epoch uint64
}

// NumVertices returns |V(G)|.
func (g *Graph) NumVertices() int { return len(g.labels) }

// NumEdges returns |E(G)| counting each undirected edge once.
func (g *Graph) NumEdges() int { return len(g.neighbors) / 2 }

// NumLabels returns the size of the label alphabet Σ (the number of distinct
// labels the graph was built with, not necessarily all used).
func (g *Graph) NumLabels() int { return g.numLabels }

// Label returns the label of v.
func (g *Graph) Label(v VertexID) Label { return g.labels[v] }

// Degree returns d_G(v).
func (g *Graph) Degree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// MaxDegree returns D_G, the maximum degree over all vertices.
func (g *Graph) MaxDegree() int { return g.maxDegree }

// AvgDegree returns the average degree 2|E|/|V|.
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(len(g.neighbors)) / float64(g.NumVertices())
}

// Neighbors returns the adjacency list of v in label-major order: grouped
// by neighbour label, labels ascending, ids ascending within a label. The
// returned slice aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	return g.neighbors[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether (u, v) ∈ E(G). It binary-searches one label run:
// the run of the lower-degree endpoint holding the other endpoint's label.
func (g *Graph) HasEdge(u, v VertexID) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	_, ok := g.find(u, v)
	return ok
}

// find returns the index in neighbors of the half-edge u→v, searching u's
// run of v's label; ok is false when the edge does not exist.
func (g *Graph) find(u, v VertexID) (int64, bool) {
	lo, hi := g.labelRun(u, g.labels[v])
	i := lo + int64(sort.Search(int(hi-lo), func(i int) bool { return g.neighbors[lo+int64(i)] >= v }))
	return i, i < hi && g.neighbors[i] == v
}

// labelRun returns the [lo, hi) extent in neighbors holding v's neighbours
// labelled l; lo == hi when v has none.
func (g *Graph) labelRun(v VertexID, l Label) (int64, int64) {
	rs, re := int(g.runOff[v]), int(g.runOff[v+1])
	labels := g.runLabels[rs:re]
	k := sort.Search(len(labels), func(k int) bool { return labels[k] >= l })
	if k == len(labels) || labels[k] != l {
		return 0, 0
	}
	base := g.offsets[v]
	if rs+k+1 < re {
		return base + g.runStarts[rs+k], base + g.runStarts[rs+k+1]
	}
	return base + g.runStarts[rs+k], g.offsets[v+1]
}

// before reports whether neighbour a precedes neighbour b in adjacency
// order: by label, then by id.
func (g *Graph) before(a, b VertexID) bool {
	if g.labels[a] != g.labels[b] {
		return g.labels[a] < g.labels[b]
	}
	return a < b
}

// appendRuns appends the label runs of v's adjacency, already in (label,
// id) order, and closes v's range of runs.
func (g *Graph) appendRuns(v int) {
	lo := g.offsets[v]
	for p := lo; p < g.offsets[v+1]; p++ {
		if l := g.labels[g.neighbors[p]]; p == lo || l != g.labels[g.neighbors[p-1]] {
			g.runLabels = append(g.runLabels, l)
			g.runStarts = append(g.runStarts, p-lo)
		}
	}
	g.runOff[v+1] = int64(len(g.runLabels))
}

// groupByLabel reorders v's adjacency, id-sorted on entry, into (label, id)
// order by a stable sort on the neighbour label, carrying the half-edge
// labels along, and appends v's label runs. buf is reusable scratch.
func (g *Graph) groupByLabel(v int, buf []halfEdge) []halfEdge {
	lo := g.offsets[v]
	buf = buf[:0]
	for p := lo; p < g.offsets[v+1]; p++ {
		h := halfEdge{w: g.neighbors[p]}
		if g.edgeLabels != nil {
			h.l = g.edgeLabels[p]
		}
		buf = append(buf, h)
	}
	slices.SortStableFunc(buf, func(a, b halfEdge) int { return cmp.Compare(g.labels[a.w], g.labels[b.w]) })
	for i, h := range buf {
		g.neighbors[lo+int64(i)] = h.w
		if g.edgeLabels != nil {
			g.edgeLabels[lo+int64(i)] = h.l
		}
	}
	g.appendRuns(v)
	return buf
}

// VerticesWithLabel returns all vertices carrying label l, in ascending
// order. The returned slice aliases internal storage.
func (g *Graph) VerticesWithLabel(l Label) []VertexID {
	if int(l) >= len(g.byLabel) {
		return nil
	}
	return g.byLabel[l]
}

// LabelFrequency returns the number of vertices with label l.
func (g *Graph) LabelFrequency(l Label) int { return len(g.VerticesWithLabel(l)) }

// NeighborsWithLabel returns the neighbours of v whose label is l, sorted
// ascending. With a nil dst the result is a zero-copy subslice of v's label
// run and must not be modified; a non-nil dst gets the run appended.
func (g *Graph) NeighborsWithLabel(v VertexID, l Label, dst []VertexID) []VertexID {
	lo, hi := g.labelRun(v, l)
	if dst == nil {
		if lo == hi {
			return nil
		}
		// Full-slice expression: an append by the caller copies instead of
		// writing into the shared adjacency.
		return g.neighbors[lo:hi:hi]
	}
	return append(dst, g.neighbors[lo:hi]...)
}

// NeighborsWithLabelAndEdgeLabels returns v's neighbours labelled l together
// with the matching half-edge labels (nil for edge-unlabeled graphs), both
// aliasing the graph's storage. Ids are ascending.
func (g *Graph) NeighborsWithLabelAndEdgeLabels(v VertexID, l Label) ([]VertexID, []EdgeLabel) {
	lo, hi := g.labelRun(v, l)
	if lo == hi {
		return nil, nil
	}
	if g.edgeLabels == nil {
		return g.neighbors[lo:hi:hi], nil
	}
	return g.neighbors[lo:hi:hi], g.edgeLabels[lo:hi:hi]
}

// DegreeWithLabel counts neighbours of v labelled l — one run-length read.
// Used by the neighbourhood-label-frequency (NLF) candidate filter.
func (g *Graph) DegreeWithLabel(v VertexID, l Label) int {
	lo, hi := g.labelRun(v, l)
	return int(hi - lo)
}

// SizeBytes returns an estimate of the in-memory footprint of the CSR arrays
// (offsets, neighbours, labels), used when reporting S_G in Fig. 9.
func (g *Graph) SizeBytes() int64 {
	return int64(len(g.offsets))*8 + int64(len(g.neighbors))*4 + int64(len(g.labels))*2
}

// Validate checks structural invariants of the CSR representation:
// offsets monotone, adjacency strictly ascending by (label, id), label runs
// matching it, no self loops, no parallel edges, symmetric edges. It is
// used by tests and loaders.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.offsets) != n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.offsets), n+1)
	}
	if g.offsets[0] != 0 || g.offsets[n] != int64(len(g.neighbors)) {
		return fmt.Errorf("graph: offsets endpoints [%d,%d], want [0,%d]", g.offsets[0], g.offsets[n], len(g.neighbors))
	}
	if g.deleted != nil && len(g.deleted) != n {
		return fmt.Errorf("graph: deleted length %d, want %d", len(g.deleted), n)
	}
	if len(g.runOff) != n+1 || g.runOff[0] != 0 || g.runOff[n] != int64(len(g.runLabels)) || len(g.runStarts) != len(g.runLabels) {
		return fmt.Errorf("graph: label run table malformed")
	}
	// Layout first, so the symmetry probes below search well-formed runs.
	for v := 0; v < n; v++ {
		if err := g.validateLayout(v); err != nil {
			return err
		}
	}
	for v := 0; v < n; v++ {
		adj := g.Neighbors(VertexID(v))
		if g.Deleted(VertexID(v)) && len(adj) > 0 {
			return fmt.Errorf("graph: deleted vertex %d still has %d edges", v, len(adj))
		}
		for _, w := range adj {
			if w == VertexID(v) {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			if g.Deleted(w) {
				return fmt.Errorf("graph: edge (%d,%d) into deleted vertex", v, w)
			}
			if !g.HasEdge(w, VertexID(v)) {
				return fmt.Errorf("graph: edge (%d,%d) not symmetric", v, w)
			}
		}
	}
	return g.validateByLabel()
}

// validateLayout checks v's extent and order: offsets monotone, neighbours
// in range and strictly ascending by (label, id), and v's label runs
// exactly the label changes of its adjacency.
func (g *Graph) validateLayout(v int) error {
	lo, hi := g.offsets[v], g.offsets[v+1]
	if lo > hi || hi > g.offsets[len(g.offsets)-1] {
		return fmt.Errorf("graph: offsets not monotone at %d", v)
	}
	k, end := g.runOff[v], g.runOff[v+1]
	if k > end || end > int64(len(g.runLabels)) {
		return fmt.Errorf("graph: label runs of %d out of range", v)
	}
	for p := lo; p < hi; p++ {
		w := g.neighbors[p]
		if int(w) >= len(g.labels) {
			return fmt.Errorf("graph: vertex %d has out-of-range neighbour %d", v, w)
		}
		if p > lo && !g.before(g.neighbors[p-1], w) {
			return fmt.Errorf("graph: adjacency of %d not strictly ascending by (label, id)", v)
		}
		if p > lo && g.labels[w] == g.labels[g.neighbors[p-1]] {
			continue
		}
		if k == end || g.runLabels[k] != g.labels[w] || g.runStarts[k] != p-lo {
			return fmt.Errorf("graph: label runs of %d do not match its adjacency", v)
		}
		k++
	}
	if k != end {
		return fmt.Errorf("graph: vertex %d has label runs past its adjacency", v)
	}
	return nil
}

// validateByLabel checks the per-label vertex lists: sorted, labels
// consistent, tombstones excluded, and complete — every live vertex appears
// under its label. ApplyDelta maintains these lists copy-on-write, so the
// check matters most after deltas.
func (g *Graph) validateByLabel() error {
	n := g.NumVertices()
	if len(g.byLabel) != g.numLabels {
		return fmt.Errorf("graph: byLabel has %d labels, want %d", len(g.byLabel), g.numLabels)
	}
	live := 0
	for l, lst := range g.byLabel {
		for i, v := range lst {
			if int(v) >= n {
				return fmt.Errorf("graph: byLabel[%d] has out-of-range vertex %d", l, v)
			}
			if g.labels[v] != Label(l) {
				return fmt.Errorf("graph: byLabel[%d] lists vertex %d with label %d", l, v, g.labels[v])
			}
			if g.Deleted(v) {
				return fmt.Errorf("graph: byLabel[%d] lists deleted vertex %d", l, v)
			}
			if i > 0 && lst[i-1] >= v {
				return fmt.Errorf("graph: byLabel[%d] not strictly sorted at %d", l, v)
			}
		}
		live += len(lst)
	}
	if live != n-g.numDeleted {
		return fmt.Errorf("graph: byLabel covers %d vertices, want %d live", live, n-g.numDeleted)
	}
	return nil
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{|V|=%d |E|=%d labels=%d avgDeg=%.2f maxDeg=%d}",
		g.NumVertices(), g.NumEdges(), g.numLabels, g.AvgDegree(), g.maxDegree)
}
