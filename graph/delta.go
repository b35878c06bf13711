package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Delta is one batch of graph mutations: vertex and edge inserts and
// deletes, applied atomically by ApplyDelta. Within a batch the operations
// are validated as a set against the pre-delta graph — added edges may
// reference vertices the same batch adds, deleted vertices implicitly drop
// their incident edges, and conflicting operations (the same edge added and
// deleted, an edge added at a vertex the batch deletes) are rejected up
// front so a delta either applies completely or not at all.
type Delta struct {
	// AddVertices appends one vertex per label; ids are assigned densely
	// starting at the pre-delta NumVertices, in slice order.
	AddVertices []Label
	// DelVertices tombstones existing vertices: their incident edges are
	// removed, they leave every label's vertex list (so they can never be
	// matching candidates again), and their ids stay allocated — vertex ids
	// are stable across epochs, which is what lets embeddings be compared
	// between snapshots. A tombstoned id cannot be revived.
	DelVertices []VertexID
	// AddEdges inserts undirected edges. Endpoints may be vertices this
	// batch adds; self loops, duplicate inserts and edges already present
	// are errors.
	AddEdges [][2]VertexID
	// AddEdgeLabels, when non-empty, is aligned with AddEdges and labels
	// both half-edges of each inserted edge. It is required to be empty for
	// edge-unlabeled graphs; on an edge-labeled graph an empty slice labels
	// every inserted edge 0.
	AddEdgeLabels []EdgeLabel
	// DelEdges removes undirected edges that must exist in the pre-delta
	// graph. Edges incident to a DelVertices entry are removed implicitly
	// and must not be listed here too.
	DelEdges [][2]VertexID
}

// Empty reports whether the delta carries no operations.
func (d Delta) Empty() bool {
	return len(d.AddVertices) == 0 && len(d.DelVertices) == 0 &&
		len(d.AddEdges) == 0 && len(d.DelEdges) == 0
}

// Ops returns the number of operations in the batch (implicit edge drops of
// deleted vertices not counted).
func (d Delta) Ops() int {
	return len(d.AddVertices) + len(d.DelVertices) + len(d.AddEdges) + len(d.DelEdges)
}

// Epoch returns the graph's snapshot epoch: 0 for a freshly constructed
// graph, incremented by one for every ApplyDelta batch. Epochs identify
// snapshots in the serving stack's MVCC story — an in-flight match pins the
// epoch it resolved and is never migrated to a later one.
func (g *Graph) Epoch() uint64 { return g.epoch }

// Deleted reports whether v is a tombstone: removed by a delta batch, id
// still allocated, no incident edges, excluded from every label's vertex
// list.
func (g *Graph) Deleted(v VertexID) bool {
	return g.deleted != nil && g.deleted[v]
}

// NumDeleted returns the number of tombstoned vertices.
func (g *Graph) NumDeleted() int { return g.numDeleted }

// LiveVertices returns the number of non-tombstoned vertices.
func (g *Graph) LiveVertices() int { return g.NumVertices() - g.numDeleted }

// halfEdge is one half-edge of a vertex: neighbour and (for edge-labeled
// graphs) the half-edge label.
type halfEdge struct {
	w VertexID
	l EdgeLabel
}

// ApplyDelta applies one mutation batch and returns the post-delta graph as
// a new immutable snapshot with Epoch()+1, plus the sorted set of vertices
// whose adjacency the batch touched (endpoints of inserted and removed
// edges, added vertices, tombstoned vertices and their former neighbours).
// The receiver is not
// modified in any way: in-flight readers of the old epoch stay consistent,
// which is the copy-on-write MVCC contract the serving stack builds on.
//
// Cost is one pass over the CSR arrays that does per-vertex work only at
// the dirty vertices. The unchanged vertices between two dirty ones are
// copied in bulk: one copy each of their neighbours, half-edge labels and
// label runs (run starts are relative to a vertex's own offset, so they
// copy verbatim), and their offsets moved by one constant shift. A dirty
// vertex pays a merge, keyed on (label, id), that appends its old
// adjacency between two changes whole, and re-derives its runs. So a
// small batch costs about a memmove of the graph.
//
// An invalid batch — out-of-range or tombstoned endpoints, self loops,
// duplicate or conflicting operations, inserting an existing edge, deleting
// a missing one — fails with an error and no new snapshot.
func (g *Graph) ApplyDelta(d Delta) (*Graph, []VertexID, error) {
	nOld := g.NumVertices()
	n := nOld + len(d.AddVertices)

	if len(d.AddEdgeLabels) != 0 && len(d.AddEdgeLabels) != len(d.AddEdges) {
		return nil, nil, fmt.Errorf("graph: ApplyDelta: %d edge labels for %d added edges", len(d.AddEdgeLabels), len(d.AddEdges))
	}
	if len(d.AddEdgeLabels) != 0 && g.edgeLabels == nil {
		return nil, nil, fmt.Errorf("graph: ApplyDelta: edge labels on an edge-unlabeled graph")
	}

	// Vertex deletions: in range, live, no duplicates.
	delV := make(map[VertexID]bool, len(d.DelVertices))
	for _, v := range d.DelVertices {
		if int(v) >= nOld {
			return nil, nil, fmt.Errorf("graph: ApplyDelta: delete of out-of-range vertex %d (n=%d)", v, nOld)
		}
		if g.Deleted(v) {
			return nil, nil, fmt.Errorf("graph: ApplyDelta: vertex %d already deleted", v)
		}
		if delV[v] {
			return nil, nil, fmt.Errorf("graph: ApplyDelta: vertex %d deleted twice", v)
		}
		delV[v] = true
	}

	// Edge operations: canonicalised, validated as a set.
	canon := func(u, v VertexID) [2]VertexID {
		if u > v {
			u, v = v, u
		}
		return [2]VertexID{u, v}
	}
	seen := make(map[[2]VertexID]bool, len(d.AddEdges)+len(d.DelEdges))
	for _, e := range d.AddEdges {
		u, v := e[0], e[1]
		if int(u) >= n || int(v) >= n {
			return nil, nil, fmt.Errorf("graph: ApplyDelta: added edge (%d,%d) references missing vertex (n=%d)", u, v, n)
		}
		if u == v {
			return nil, nil, fmt.Errorf("graph: ApplyDelta: self loop at %d", u)
		}
		for _, w := range [2]VertexID{u, v} {
			if (int(w) < nOld && g.Deleted(w)) || delV[w] {
				return nil, nil, fmt.Errorf("graph: ApplyDelta: added edge (%d,%d) touches deleted vertex %d", u, v, w)
			}
		}
		k := canon(u, v)
		if seen[k] {
			return nil, nil, fmt.Errorf("graph: ApplyDelta: duplicate or conflicting operation on edge (%d,%d)", k[0], k[1])
		}
		if int(u) < nOld && int(v) < nOld && g.HasEdge(u, v) {
			return nil, nil, fmt.Errorf("graph: ApplyDelta: edge (%d,%d) already present", u, v)
		}
		seen[k] = true
	}
	for _, e := range d.DelEdges {
		u, v := e[0], e[1]
		if int(u) >= nOld || int(v) >= nOld {
			return nil, nil, fmt.Errorf("graph: ApplyDelta: deleted edge (%d,%d) references missing vertex (n=%d)", u, v, nOld)
		}
		if u == v {
			return nil, nil, fmt.Errorf("graph: ApplyDelta: self loop at %d", u)
		}
		if delV[u] || delV[v] {
			return nil, nil, fmt.Errorf("graph: ApplyDelta: edge (%d,%d) is removed implicitly by a vertex delete", u, v)
		}
		k := canon(u, v)
		if seen[k] {
			return nil, nil, fmt.Errorf("graph: ApplyDelta: duplicate or conflicting operation on edge (%d,%d)", k[0], k[1])
		}
		if !g.HasEdge(u, v) {
			return nil, nil, fmt.Errorf("graph: ApplyDelta: deleted edge (%d,%d) not present", u, v)
		}
		seen[k] = true
	}

	// Per-vertex change lists. addN/delN are keyed only by dirty vertices,
	// so the maps stay proportional to the batch, not the graph.
	addN := make(map[VertexID][]halfEdge)
	for i, e := range d.AddEdges {
		var l EdgeLabel
		if len(d.AddEdgeLabels) > 0 {
			l = d.AddEdgeLabels[i]
		}
		addN[e[0]] = append(addN[e[0]], halfEdge{w: e[1], l: l})
		addN[e[1]] = append(addN[e[1]], halfEdge{w: e[0], l: l})
	}
	delN := make(map[VertexID][]VertexID)
	for _, e := range d.DelEdges {
		delN[e[0]] = append(delN[e[0]], e[1])
		delN[e[1]] = append(delN[e[1]], e[0])
	}
	for v := range delV {
		for _, w := range g.Neighbors(v) {
			if !delV[w] {
				delN[w] = append(delN[w], v)
			}
		}
	}
	// The dirty vertices, ascending: every vertex whose adjacency (or
	// existence) changes. Every added vertex is one, so each vertex between
	// two of them is an unchanged old vertex.
	touched := make([]VertexID, 0, len(addN)+len(delN)+len(delV)+len(d.AddVertices))
	for v := range addN {
		touched = append(touched, v)
	}
	for v := range delN {
		touched = append(touched, v)
	}
	for v := range delV {
		touched = append(touched, v)
	}
	for i := range d.AddVertices {
		touched = append(touched, VertexID(nOld+i))
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)

	// Labels and label alphabet.
	labels := make([]Label, 0, n)
	labels = append(labels, g.labels...)
	labels = append(labels, d.AddVertices...)
	numLabels := g.numLabels
	for _, l := range d.AddVertices {
		if int(l)+1 > numLabels {
			numLabels = int(l) + 1
		}
	}
	g2 := &Graph{labels: labels, numLabels: numLabels, epoch: g.epoch + 1}

	// Change lists in adjacency order, (label, id), for the merge below.
	for _, adds := range addN {
		sort.Slice(adds, func(i, j int) bool { return g2.before(adds[i].w, adds[j].w) })
	}
	for _, dels := range delN {
		sort.Slice(dels, func(i, j int) bool { return g2.before(dels[i], dels[j]) })
	}

	// Tombstones.
	var deleted []bool
	numDeleted := g.numDeleted
	if g.deleted != nil || len(delV) > 0 {
		deleted = make([]bool, n)
		copy(deleted, g.deleted)
		for v := range delV {
			deleted[v] = true
		}
		numDeleted += len(delV)
	}

	// New degrees of the dirty vertices: the half-edge total sizes the
	// arrays exactly, and the maximum degree needs a rescan only when a
	// dirty vertex that held it shrinks; otherwise it is still held by a
	// clean vertex or by a dirty one at least as large.
	newDeg := func(v VertexID) int {
		if delV[v] {
			return 0
		}
		deg := len(addN[v]) - len(delN[v])
		if int(v) < nOld {
			deg += g.Degree(v)
		}
		return deg
	}
	size := int64(len(g.neighbors))
	maxDeg, lost := g.maxDegree, false
	for _, v := range touched {
		deg := newDeg(v)
		size += int64(deg)
		if int(v) < nOld {
			old := g.Degree(v)
			size -= int64(old)
			lost = lost || (old == g.maxDegree && deg < old)
		}
		maxDeg = max(maxDeg, deg)
	}

	// The CSR pass. Each range of clean vertices between two dirty ones is
	// copied in bulk: one copy each of its neighbours, half-edge labels,
	// run labels and run starts, and its offsets and run offsets moved by
	// one shift apiece. Only the dirty vertices are merged.
	g2.offsets = make([]int64, n+1)
	g2.runOff = make([]int64, n+1)
	g2.neighbors = make([]VertexID, 0, size)
	if g.edgeLabels != nil {
		g2.edgeLabels = make([]EdgeLabel, 0, size)
	}
	g2.runLabels = make([]Label, 0, len(g.runLabels)+2*len(touched))
	g2.runStarts = make([]int64, 0, cap(g2.runLabels))
	next := 0 // the first vertex not yet laid out
	for _, v := range touched {
		g2.copyClean(g, next, int(v))
		if !delV[v] {
			g2.mergeDirty(g, v, addN[v], delN[v])
		}
		g2.offsets[v+1] = int64(len(g2.neighbors))
		g2.appendRuns(int(v))
		next = int(v) + 1
	}
	g2.copyClean(g, next, n)
	if lost {
		maxDeg = 0
		for v := 0; v < n; v++ {
			maxDeg = max(maxDeg, int(g2.offsets[v+1]-g2.offsets[v]))
		}
	}
	g2.maxDegree = maxDeg

	// Per-label vertex lists: the outer slice is fresh, untouched labels
	// share the old epoch's list, and only labels gaining or losing
	// vertices are rebuilt copy-on-write. New ids exceed every old id, so
	// appending them in id order keeps the lists sorted.
	byLabel := make([][]VertexID, numLabels)
	copy(byLabel, g.byLabel)
	newByLbl := make(map[Label][]VertexID)
	for i, l := range d.AddVertices {
		newByLbl[l] = append(newByLbl[l], VertexID(nOld+i))
	}
	relabel := make(map[Label]bool, len(newByLbl)+len(delV))
	for l := range newByLbl {
		relabel[l] = true
	}
	for v := range delV {
		relabel[g.labels[v]] = true
	}
	for l := range relabel {
		var old []VertexID
		if int(l) < len(g.byLabel) {
			old = g.byLabel[l]
		}
		lst := make([]VertexID, 0, len(old)+len(newByLbl[l]))
		for _, v := range old {
			if !delV[v] {
				lst = append(lst, v)
			}
		}
		byLabel[l] = append(lst, newByLbl[l]...)
	}

	g2.byLabel = byLabel
	g2.deleted, g2.numDeleted = deleted, numDeleted
	return g2, touched, nil
}

// copyClean lays out the old vertices [a, b), none of them dirty, after
// what g2 holds so far. The spans move as they are; only the offsets and
// run offsets shift, each by one constant.
func (g2 *Graph) copyClean(g *Graph, a, b int) {
	if a >= b {
		return
	}
	lo, hi := g.offsets[a], g.offsets[b]
	shift := int64(len(g2.neighbors)) - lo
	g2.neighbors = append(g2.neighbors, g.neighbors[lo:hi]...)
	if g.edgeLabels != nil {
		g2.edgeLabels = append(g2.edgeLabels, g.edgeLabels[lo:hi]...)
	}
	rlo, rhi := g.runOff[a], g.runOff[b]
	rshift := int64(len(g2.runLabels)) - rlo
	g2.runLabels = append(g2.runLabels, g.runLabels[rlo:rhi]...)
	g2.runStarts = append(g2.runStarts, g.runStarts[rlo:rhi]...)
	for v := a; v < b; v++ {
		g2.offsets[v+1] = g.offsets[v+1] + shift
		g2.runOff[v+1] = g.runOff[v+1] + rshift
	}
}

// mergeDirty appends the new adjacency of v: its old adjacency in g (none
// for a vertex the batch adds) minus dels plus adds, both in (label, id)
// order. The old spans between two changes are appended whole; each
// change is placed by a binary search of the old adjacency.
func (g2 *Graph) mergeDirty(g *Graph, v VertexID, adds []halfEdge, dels []VertexID) {
	var lo, hi int64
	if int(v) < g.NumVertices() {
		lo, hi = g.offsets[v], g.offsets[v+1]
	}
	// at returns the position in g's adjacency of v of the first
	// neighbour not before w in (label, id) order.
	at := func(w VertexID) int64 {
		return lo + int64(sort.Search(int(hi-lo), func(i int) bool { return !g2.before(g.neighbors[lo+int64(i)], w) }))
	}
	p := lo
	for ai, di := 0, 0; ai < len(adds) || di < len(dels); {
		if di < len(dels) && (ai == len(adds) || g2.before(dels[di], adds[ai].w)) {
			q := at(dels[di])
			g2.appendOld(g, p, q)
			p = q + 1
			di++
			continue
		}
		q := at(adds[ai].w)
		g2.appendOld(g, p, q)
		p = q
		g2.neighbors = append(g2.neighbors, adds[ai].w)
		if g2.edgeLabels != nil {
			g2.edgeLabels = append(g2.edgeLabels, adds[ai].l)
		}
		ai++
	}
	g2.appendOld(g, p, hi)
}

// appendOld appends g's half-edges [p, q) to g2.
func (g2 *Graph) appendOld(g *Graph, p, q int64) {
	g2.neighbors = append(g2.neighbors, g.neighbors[p:q]...)
	if g2.edgeLabels != nil {
		g2.edgeLabels = append(g2.edgeLabels, g.edgeLabels[p:q]...)
	}
}
