package graph

// Edge-labeled graphs (Section II: "our techniques can be readily extended
// to edge-labeled and directed graphs"). Edge labels are stored per
// half-edge, aligned with the CSR neighbour array; label 0 is the wildcard
// (an unlabeled query edge matches any data edge, and graphs built without
// labels carry 0 everywhere, so vertex-labeled workloads are unaffected).
// A directed relation can be encoded by giving the two half-edges of an
// undirected edge distinct labels (e.g. "replyOf" forward vs backward).

// EdgeLabel identifies an edge label; 0 is the wildcard.
type EdgeLabel = uint16

// WildcardEdgeLabel matches any edge label.
const WildcardEdgeLabel EdgeLabel = 0

// EdgeLabels returns the labels of v's half-edges, aligned with
// Neighbors(v) and so in the same label-major order. Nil when the graph is
// edge-unlabeled.
func (g *Graph) EdgeLabels(v VertexID) []EdgeLabel {
	if g.edgeLabels == nil {
		return nil
	}
	return g.edgeLabels[g.offsets[v]:g.offsets[v+1]]
}

// EdgeLabeled reports whether any edge of the graph carries a label.
func (g *Graph) EdgeLabeled() bool { return g.edgeLabels != nil }

// EdgeLabelBetween returns the label of the half-edge u→v; ok is false when
// the edge does not exist. It binary-searches u's run of v's label.
func (g *Graph) EdgeLabelBetween(u, v VertexID) (EdgeLabel, bool) {
	i, ok := g.find(u, v)
	if !ok {
		return 0, false
	}
	if g.edgeLabels == nil {
		return WildcardEdgeLabel, true
	}
	return g.edgeLabels[i], true
}

// HasEdgeLabeled reports whether (u,v) exists and its u→v label matches
// want. The wildcard matches anything, and an edge-unlabeled data graph is
// treated as all-wildcard (so vertex-labeled workloads never notice edge
// labels exist).
func (g *Graph) HasEdgeLabeled(u, v VertexID, want EdgeLabel) bool {
	if g.edgeLabels == nil {
		return g.HasEdge(u, v)
	}
	l, ok := g.EdgeLabelBetween(u, v)
	return ok && (want == WildcardEdgeLabel || l == want)
}

// AddEdgeLabeled records an undirected edge whose two half-edges carry the
// same label. Mixing with AddEdge is allowed; unlabeled edges carry the
// wildcard.
func (b *Builder) AddEdgeLabeled(u, v VertexID, l EdgeLabel) {
	b.AddEdgeArcs(u, v, l, l)
}

// AddEdgeArcs records an undirected edge with distinct half-edge labels
// (u→v carries fwd, v→u carries rev) — the encoding for directed
// relations.
func (b *Builder) AddEdgeArcs(u, v VertexID, fwd, rev EdgeLabel) {
	if u == v {
		return
	}
	if b.edgeLabels == nil {
		b.edgeLabels = make(map[[2]VertexID]EdgeLabel, 64)
	}
	b.edgeLabels[[2]VertexID{u, v}] = fwd
	b.edgeLabels[[2]VertexID{v, u}] = rev
	b.AddEdge(u, v)
}

// EdgeLabel of a query edge; stored canonically per direction so directed
// encodings survive.

// SetEdgeLabel labels the query edge {u,v} (both directions). The edge must
// exist.
func (q *Query) SetEdgeLabel(u, v QueryVertex, l EdgeLabel) error {
	return q.setEdgeLabelDir(u, v, l, l)
}

// SetEdgeArcLabels labels the query edge {u,v} with distinct per-direction
// labels, mirroring Builder.AddEdgeArcs.
func (q *Query) SetEdgeArcLabels(u, v QueryVertex, fwd, rev EdgeLabel) error {
	return q.setEdgeLabelDir(u, v, fwd, rev)
}

func (q *Query) setEdgeLabelDir(u, v QueryVertex, fwd, rev EdgeLabel) error {
	if !q.HasEdge(u, v) {
		return errNoSuchEdge(q.name, u, v)
	}
	if q.edgeLabels == nil {
		q.edgeLabels = make(map[[2]QueryVertex]EdgeLabel, 8)
	}
	q.edgeLabels[[2]QueryVertex{u, v}] = fwd
	q.edgeLabels[[2]QueryVertex{v, u}] = rev
	return nil
}

// EdgeLabel returns the label required on the half-edge u→v (wildcard when
// unlabeled).
func (q *Query) EdgeLabel(u, v QueryVertex) EdgeLabel {
	if q.edgeLabels == nil {
		return WildcardEdgeLabel
	}
	return q.edgeLabels[[2]QueryVertex{u, v}]
}

// EdgeLabeled reports whether the query constrains any edge label.
func (q *Query) EdgeLabeled() bool { return len(q.edgeLabels) > 0 }
