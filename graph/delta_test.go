package graph

import (
	"strings"
	"testing"
)

// deltaBase builds the shared fixture: labels [0,1,0,1,2], edges forming a
// path 0-1-2-3 plus 1-4.
func deltaBase(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdgeList(
		[]Label{0, 1, 0, 1, 2},
		[][2]VertexID{{0, 1}, {1, 2}, {2, 3}, {1, 4}},
	)
	if err != nil {
		t.Fatalf("base graph: %v", err)
	}
	return g
}

func TestDeltaApplyBasic(t *testing.T) {
	g := deltaBase(t)
	if g.Epoch() != 0 {
		t.Fatalf("fresh graph epoch = %d, want 0", g.Epoch())
	}
	g2, touched, err := g.ApplyDelta(Delta{
		AddVertices: []Label{2}, // vertex 5
		AddEdges:    [][2]VertexID{{5, 0}, {3, 4}},
		DelEdges:    [][2]VertexID{{1, 2}},
	})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if g2.Epoch() != 1 {
		t.Errorf("epoch = %d, want 1", g2.Epoch())
	}
	if err := g2.Validate(); err != nil {
		t.Fatalf("post-delta Validate: %v", err)
	}
	wantTouched := []VertexID{0, 1, 2, 3, 4, 5}
	if len(touched) != len(wantTouched) {
		t.Fatalf("touched = %v, want %v", touched, wantTouched)
	}
	for i, v := range wantTouched {
		if touched[i] != v {
			t.Fatalf("touched = %v, want %v", touched, wantTouched)
		}
	}
	// Adjacency in (label, id) order; labels are [0,1,0,1,2,2].
	wantAdj := map[VertexID][]VertexID{
		0: {1, 5},
		1: {0, 4},
		2: {3},
		3: {2, 4},
		4: {1, 3},
		5: {0},
	}
	for v, want := range wantAdj {
		got := g2.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("Neighbors(%d) = %v, want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Neighbors(%d) = %v, want %v", v, got, want)
			}
		}
	}
	if got := g2.VerticesWithLabel(2); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("VerticesWithLabel(2) = %v, want [4 5]", got)
	}
	// The pre-delta snapshot is untouched: same structure, same epoch.
	if g.NumVertices() != 5 || g.NumEdges() != 4 || g.Epoch() != 0 {
		t.Errorf("old snapshot mutated: %v epoch=%d", g, g.Epoch())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("old snapshot Validate: %v", err)
	}
}

func TestDeltaApplyVertexDelete(t *testing.T) {
	g := deltaBase(t)
	g2, touched, err := g.ApplyDelta(Delta{DelVertices: []VertexID{1}})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if err := g2.Validate(); err != nil {
		t.Fatalf("post-delta Validate: %v", err)
	}
	if !g2.Deleted(1) || g2.Deleted(0) {
		t.Errorf("Deleted flags wrong: Deleted(1)=%v Deleted(0)=%v", g2.Deleted(1), g2.Deleted(0))
	}
	if g2.NumVertices() != 5 || g2.LiveVertices() != 4 || g2.NumDeleted() != 1 {
		t.Errorf("vertex counts: n=%d live=%d deleted=%d", g2.NumVertices(), g2.LiveVertices(), g2.NumDeleted())
	}
	if d := g2.Degree(1); d != 0 {
		t.Errorf("deleted vertex degree = %d, want 0", d)
	}
	// Incident edges removed from the surviving endpoints too.
	for _, v := range []VertexID{0, 2, 4} {
		if g2.HasEdge(v, 1) {
			t.Errorf("edge (%d,1) survived the vertex delete", v)
		}
	}
	if g2.HasEdge(2, 3) != true {
		t.Errorf("unrelated edge (2,3) lost")
	}
	// Tombstones leave the label's candidate list.
	if got := g2.VerticesWithLabel(1); len(got) != 1 || got[0] != 3 {
		t.Errorf("VerticesWithLabel(1) = %v, want [3]", got)
	}
	if len(touched) != 4 { // 0, 1, 2, 4
		t.Errorf("touched = %v, want the deleted vertex plus former neighbours", touched)
	}
	// The old snapshot still sees vertex 1 alive and connected.
	if g.Deleted(1) || !g.HasEdge(0, 1) {
		t.Errorf("old snapshot mutated by vertex delete")
	}
	// A tombstoned id cannot be revived or reconnected.
	if _, _, err := g2.ApplyDelta(Delta{AddEdges: [][2]VertexID{{1, 3}}}); err == nil {
		t.Errorf("edge add at tombstone succeeded, want error")
	}
	if _, _, err := g2.ApplyDelta(Delta{DelVertices: []VertexID{1}}); err == nil {
		t.Errorf("double delete across epochs succeeded, want error")
	}
}

func TestDeltaApplyEdgeLabels(t *testing.T) {
	b := NewBuilder(4, 3)
	b.AddVertices(0, 2)
	b.AddVertices(1, 2)
	b.AddEdgeLabeled(0, 2, 7)
	b.AddEdgeLabeled(1, 3, 9)
	g := b.MustBuild()

	g2, _, err := g.ApplyDelta(Delta{
		AddEdges:      [][2]VertexID{{0, 3}, {1, 2}},
		AddEdgeLabels: []EdgeLabel{5, 6},
	})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if err := g2.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for _, tc := range []struct {
		u, v VertexID
		want EdgeLabel
	}{{0, 2, 7}, {1, 3, 9}, {0, 3, 5}, {1, 2, 6}} {
		if l, ok := g2.EdgeLabelBetween(tc.u, tc.v); !ok || l != tc.want {
			t.Errorf("EdgeLabelBetween(%d,%d) = %d,%v want %d", tc.u, tc.v, l, ok, tc.want)
		}
	}
	// The label runs carry the half-edge labels of the new epoch.
	nbrs, labs := g2.NeighborsWithLabelAndEdgeLabels(0, 1)
	if len(nbrs) != 2 || nbrs[0] != 2 || nbrs[1] != 3 || labs[0] != 7 || labs[1] != 5 {
		t.Errorf("NeighborsWithLabelAndEdgeLabels(0,1) = %v %v", nbrs, labs)
	}

	// Edge labels on an edge-unlabeled graph are rejected.
	plain := deltaBase(t)
	_, _, err = plain.ApplyDelta(Delta{AddEdges: [][2]VertexID{{0, 3}}, AddEdgeLabels: []EdgeLabel{1}})
	if err == nil || !strings.Contains(err.Error(), "edge-unlabeled") {
		t.Errorf("edge labels on unlabeled graph: err = %v", err)
	}
}

func TestDeltaApplyErrors(t *testing.T) {
	g := deltaBase(t)
	cases := []struct {
		name string
		d    Delta
	}{
		{"del out-of-range vertex", Delta{DelVertices: []VertexID{9}}},
		{"del vertex twice", Delta{DelVertices: []VertexID{1, 1}}},
		{"add edge out of range", Delta{AddEdges: [][2]VertexID{{0, 9}}}},
		{"add self loop", Delta{AddEdges: [][2]VertexID{{2, 2}}}},
		{"add existing edge", Delta{AddEdges: [][2]VertexID{{1, 0}}}},
		{"add edge twice", Delta{AddEdges: [][2]VertexID{{0, 3}, {3, 0}}}},
		{"add edge at deleted endpoint", Delta{DelVertices: []VertexID{0}, AddEdges: [][2]VertexID{{0, 3}}}},
		{"del edge out of range", Delta{DelEdges: [][2]VertexID{{0, 9}}}},
		{"del missing edge", Delta{DelEdges: [][2]VertexID{{0, 3}}}},
		{"del edge twice", Delta{DelEdges: [][2]VertexID{{0, 1}, {1, 0}}}},
		{"add and del same edge", Delta{AddEdges: [][2]VertexID{{0, 3}}, DelEdges: [][2]VertexID{{0, 3}}}},
		{"del edge at deleted vertex", Delta{DelVertices: []VertexID{1}, DelEdges: [][2]VertexID{{0, 1}}}},
		{"edge label count mismatch", Delta{AddEdges: [][2]VertexID{{0, 3}}, AddEdgeLabels: []EdgeLabel{1, 2}}},
		{"del edge referencing batch-added vertex", Delta{AddVertices: []Label{0}, DelEdges: [][2]VertexID{{5, 0}}}},
	}
	for _, tc := range cases {
		if _, _, err := g.ApplyDelta(tc.d); err == nil {
			t.Errorf("%s: ApplyDelta succeeded, want error", tc.name)
		}
	}
	// A failed batch leaves no trace.
	if g.Epoch() != 0 || g.NumEdges() != 4 {
		t.Errorf("failed batch mutated the graph")
	}
}

func TestDeltaApplyEmpty(t *testing.T) {
	g := deltaBase(t)
	var d Delta
	if !d.Empty() || d.Ops() != 0 {
		t.Fatalf("zero Delta: Empty=%v Ops=%d", d.Empty(), d.Ops())
	}
	g2, touched, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatalf("empty ApplyDelta: %v", err)
	}
	if g2.Epoch() != 1 || len(touched) != 0 {
		t.Errorf("empty delta: epoch=%d touched=%v", g2.Epoch(), touched)
	}
	if err := g2.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestDeltaValidateCatchesCorruption corrupts post-delta invariants directly
// and checks Validate reports each — the consistency checks ApplyDelta's
// outputs are held to.
func TestDeltaValidateCatchesCorruption(t *testing.T) {
	fresh := func() *Graph {
		g := deltaBase(t)
		g2, _, err := g.ApplyDelta(Delta{DelVertices: []VertexID{4}})
		if err != nil {
			t.Fatalf("ApplyDelta: %v", err)
		}
		return g2
	}

	g := fresh()
	g.byLabel[2] = []VertexID{4} // resurrect the tombstone in its label list
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "deleted") {
		t.Errorf("byLabel listing a tombstone: Validate = %v", err)
	}

	g = fresh()
	g.byLabel[0] = g.byLabel[0][:1] // drop a live vertex from its label list
	if err := g.Validate(); err == nil {
		t.Errorf("incomplete byLabel: Validate = nil, want error")
	}

	g = fresh()
	g.deleted[0] = true // tombstone with live edges, count out of sync
	if err := g.Validate(); err == nil {
		t.Errorf("tombstone with edges: Validate = nil, want error")
	}

	g = fresh()
	g.runStarts[0]++ // break a label-run start
	if err := g.Validate(); err == nil {
		t.Errorf("corrupt label run: Validate = nil, want error")
	}

	g = fresh()
	adj := g.Neighbors(1) // {0, 2}, both labelled 0
	adj[0], adj[1] = adj[1], adj[0]
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "(label, id)") {
		t.Errorf("adjacency out of (label, id) order: Validate = %v", err)
	}
}
