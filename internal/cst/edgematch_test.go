package cst

import (
	"math"
	"slices"
	"testing"

	"fastmatch/graph"
)

// TestStampsWrapClearsWholeCapacity: when the generation wraps, the table
// is cleared up to its capacity, so a stamp left in a tail the table was
// resliced away from cannot equal a post-wrap generation once it grows
// back.
func TestStampsWrapClearsWholeCapacity(t *testing.T) {
	st := stamps{s: make([]uint32, 4, 8), gen: math.MaxUint32 - 1}
	st.s[:8][6] = 1
	if gen := st.next(); gen != math.MaxUint32 {
		t.Fatalf("generation %d before the wrap", gen)
	}
	if gen := st.next(); gen != 1 {
		t.Fatalf("generation %d after the wrap, want 1", gen)
	}
	if i := slices.Index(st.s[:8], 1); i >= 0 {
		t.Fatalf("stale stamp at %d survived the wrap", i)
	}
}

// TestEdgeMatcherPath: on a labelled path a–b–c–d and the query b–c–d,
// deleting (a, b) changes nothing the query uses, and each of (b, c) and
// (c, d) alone, or both together, yields the one embedding once.
func TestEdgeMatcherPath(t *testing.T) {
	g, err := graph.FromEdgeList([]graph.Label{0, 1, 2, 3}, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	q := graph.MustQuery("bcd", []graph.Label{1, 2, 3}, [][2]graph.QueryVertex{{0, 1}, {1, 2}})
	m := NewEdgeMatcher(q)
	var sc MatchScratch
	for _, tc := range []struct {
		changed [][2]graph.VertexID
		want    int
	}{
		{[][2]graph.VertexID{{1, 0}}, 0},
		{[][2]graph.VertexID{{2, 1}}, 1},
		{[][2]graph.VertexID{{3, 2}}, 1},
		{[][2]graph.VertexID{{1, 2}, {2, 3}, {3, 2}}, 1},
	} {
		got := m.Match(g, tc.changed, &sc)
		if len(got) != tc.want {
			t.Fatalf("changed %v: %d embeddings %v, want %d", tc.changed, len(got), got, tc.want)
		}
		for _, em := range got {
			if !slices.Equal(em, graph.Embedding{1, 2, 3}) {
				t.Fatalf("changed %v: embedding %v", tc.changed, em)
			}
		}
	}
}

// TestEdgeMatcherReleasesItsCST: once Match returns, the matcher's
// Enumerator holds no seeded CST, order or view into one, so a standing
// query pins nothing of the last batch between notifications.
func TestEdgeMatcherReleasesItsCST(t *testing.T) {
	// Two triangles sharing the edge (1, 2); the query is a triangle, so
	// every pass has a non-tree check as well as tree-parent views.
	g, err := graph.FromEdgeList([]graph.Label{0, 0, 0, 0}, [][2]graph.VertexID{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	q := graph.MustQuery("tri", []graph.Label{0, 0, 0}, [][2]graph.QueryVertex{{0, 1}, {0, 2}, {1, 2}})
	m := NewEdgeMatcher(q)
	var sc MatchScratch
	if got := m.Match(g, [][2]graph.VertexID{{1, 2}}, &sc); len(got) != 12 {
		t.Fatalf("%d embeddings, want 12 (two triangles, six automorphisms each)", len(got))
	}
	e := &m.e
	if e.c != nil || e.o != nil {
		t.Fatalf("Enumerator keeps CST %p and order %v", e.c, e.o)
	}
	if cap(e.candAt) == 0 || cap(e.checkAdj) == 0 {
		t.Fatal("Enumerator was never prepared")
	}
	for d, c := range e.candAt[:cap(e.candAt)] {
		if c != nil {
			t.Fatalf("candAt[%d] still views %v", d, c)
		}
	}
	for _, views := range [][]Adj{e.parentAdj[:cap(e.parentAdj)], e.checkAdj[:cap(e.checkAdj)]} {
		for d, a := range views {
			if a.Offsets != nil || a.Targets != nil {
				t.Fatalf("view %d still aliases a CST's rows", d)
			}
		}
	}
}
