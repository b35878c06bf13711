package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates vertices and edges and finalises them into an
// immutable CSR Graph. Duplicate edges and self loops are silently dropped,
// matching the paper's focus on simple graphs.
type Builder struct {
	labels   []Label
	edges    [][2]VertexID
	maxLabel Label
	// edgeLabels maps directed half-edges to labels when AddEdgeLabeled /
	// AddEdgeArcs were used; nil for edge-unlabeled graphs.
	edgeLabels map[[2]VertexID]EdgeLabel
}

// NewBuilder returns a Builder expecting roughly n vertices and m edges.
func NewBuilder(n, m int) *Builder {
	return &Builder{
		labels: make([]Label, 0, n),
		edges:  make([][2]VertexID, 0, m),
	}
}

// AddVertex appends a vertex with the given label and returns its id.
func (b *Builder) AddVertex(l Label) VertexID {
	id := VertexID(len(b.labels))
	b.labels = append(b.labels, l)
	if l > b.maxLabel {
		b.maxLabel = l
	}
	return id
}

// AddVertices appends k vertices with the same label and returns the id of
// the first one; the block is contiguous.
func (b *Builder) AddVertices(l Label, k int) VertexID {
	first := VertexID(len(b.labels))
	for i := 0; i < k; i++ {
		b.AddVertex(l)
	}
	return first
}

// SetLabel overrides the label of an existing vertex.
func (b *Builder) SetLabel(v VertexID, l Label) {
	b.labels[v] = l
	if l > b.maxLabel {
		b.maxLabel = l
	}
}

// AddEdge records an undirected edge. Self loops are ignored; duplicates are
// removed at Build time.
func (b *Builder) AddEdge(u, v VertexID) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, [2]VertexID{u, v})
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.labels) }

// NumEdges returns the number of (possibly duplicate) edges recorded so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build finalises the graph. The Builder must not be reused afterwards.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.labels)
	for _, e := range b.edges {
		if int(e[0]) >= n || int(e[1]) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) references missing vertex (n=%d)", e[0], e[1], n)
		}
	}
	// Deduplicate canonicalised edges.
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i][0] != b.edges[j][0] {
			return b.edges[i][0] < b.edges[j][0]
		}
		return b.edges[i][1] < b.edges[j][1]
	})
	uniq := b.edges[:0]
	for i, e := range b.edges {
		if i == 0 || e != b.edges[i-1] {
			uniq = append(uniq, e)
		}
	}
	b.edges = uniq

	deg := make([]int64, n+1)
	for _, e := range b.edges {
		deg[e[0]+1]++
		deg[e[1]+1]++
	}
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + deg[v+1]
	}
	// Edges are sorted by (min, max) endpoint, so this fill leaves every
	// adjacency id-sorted: lower neighbours first, then higher ones.
	neighbors := make([]VertexID, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for _, e := range b.edges {
		neighbors[cursor[e[0]]] = e[1]
		cursor[e[0]]++
		neighbors[cursor[e[1]]] = e[0]
		cursor[e[1]]++
	}
	numLabels := int(b.maxLabel) + 1
	if n == 0 {
		numLabels = 0
	}
	byLabel := make([][]VertexID, numLabels)
	for v, l := range b.labels {
		byLabel[l] = append(byLabel[l], VertexID(v))
	}
	g := &Graph{
		offsets:   offsets,
		neighbors: neighbors,
		labels:    b.labels,
		byLabel:   byLabel,
		numLabels: numLabels,
		runOff:    make([]int64, n+1),
	}
	var buf []halfEdge
	for v := 0; v < n; v++ {
		buf = g.groupByLabel(v, buf)
		g.maxDegree = max(g.maxDegree, g.Degree(VertexID(v)))
	}
	if b.edgeLabels != nil {
		g.edgeLabels = make([]EdgeLabel, len(neighbors))
		for v := 0; v < n; v++ {
			adj := g.Neighbors(VertexID(v))
			for i, w := range adj {
				g.edgeLabels[offsets[v]+int64(i)] = b.edgeLabels[[2]VertexID{VertexID(v), w}]
			}
		}
	}
	return g, nil
}

// MustBuild is Build but panics on error; convenient in tests and examples
// where the input is known to be well formed.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdgeList builds a graph from explicit label and edge slices.
func FromEdgeList(labels []Label, edges [][2]VertexID) (*Graph, error) {
	b := NewBuilder(len(labels), len(edges))
	for _, l := range labels {
		b.AddVertex(l)
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
