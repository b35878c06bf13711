package cst

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"fastmatch/graph"
	"fastmatch/internal/order"
	"fastmatch/ldbc"
)

// mergeAdj recomputes the from → to adjacency of c from C(from), C(to) and
// g alone, by the sorted merge intersection the build used before it probed
// a position table: each from-candidate's label run is merged against the
// whole of C(to), and a common vertex is kept when both half-edge labels
// match the query edge's. It is the oracle for Build's adjacency.
func mergeAdj(c *CST, g *graph.Graph, from, to graph.QueryVertex) ([]int32, []CandIndex, int32) {
	src, dst := c.Cand[from], c.Cand[to]
	lt := c.Query.Label(to)
	want := c.Query.EdgeLabel(from, to)
	wantRev := c.Query.EdgeLabel(to, from)
	off := make([]int32, len(src)+1)
	var tgt []CandIndex
	var maxDeg int32
	for i, v := range src {
		adj, elabels := g.NeighborsWithLabelAndEdgeLabels(v, lt)
		ai, di := 0, 0
		for ai < len(adj) && di < len(dst) {
			switch {
			case adj[ai] < dst[di]:
				ai++
			case adj[ai] > dst[di]:
				di++
			default:
				ok := want == graph.WildcardEdgeLabel || elabels == nil || elabels[ai] == want
				if ok && wantRev != graph.WildcardEdgeLabel && elabels != nil {
					ok = g.HasEdgeLabeled(adj[ai], v, wantRev)
				}
				if ok {
					tgt = append(tgt, CandIndex(di))
				}
				ai++
				di++
			}
		}
		off[i+1] = int32(len(tgt))
		maxDeg = max(maxDeg, off[i+1]-off[i])
	}
	return off, tgt, maxDeg
}

// requireMergeOracle fails unless every directed query edge of c carries
// exactly the offsets, targets and longest row the merge oracle computes,
// and returns the number of adjacency entries checked.
func requireMergeOracle(t *testing.T, c *CST, g *graph.Graph) int {
	t.Helper()
	entries := 0
	nq := c.Query.NumVertices()
	for from := graph.QueryVertex(0); from < nq; from++ {
		for _, to := range c.Query.Neighbors(from) {
			a := c.Edge(from, to)
			off, tgt, maxDeg := mergeAdj(c, g, from, to)
			if len(a.Offsets) != len(off) || len(a.Targets) != len(tgt) {
				t.Fatalf("edge %d->%d: shape (%d offsets, %d targets), oracle (%d, %d)",
					from, to, len(a.Offsets), len(a.Targets), len(off), len(tgt))
			}
			for i := range off {
				if a.Offsets[i] != off[i] {
					t.Fatalf("edge %d->%d: offset %d is %d, oracle %d", from, to, i, a.Offsets[i], off[i])
				}
			}
			for i := range tgt {
				if a.Targets[i] != tgt[i] {
					t.Fatalf("edge %d->%d: target %d is %d, oracle %d", from, to, i, a.Targets[i], tgt[i])
				}
			}
			if a.maxDeg != maxDeg {
				t.Fatalf("edge %d->%d: maxDeg %d, oracle %d", from, to, a.maxDeg, maxDeg)
			}
			entries += len(tgt)
		}
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
	return entries
}

// randomArcLabeled is randomEdgeLabeled with independent half-edge labels,
// the wildcard among them, so u→v and v→u usually disagree.
func randomArcLabeled(seed int64, rng *rand.Rand) *graph.Graph {
	base := randomEdgeLabeled(seed, rng)
	b := graph.NewBuilder(base.NumVertices(), base.NumEdges())
	for v := 0; v < base.NumVertices(); v++ {
		b.AddVertex(base.Label(graph.VertexID(v)))
	}
	for v := 0; v < base.NumVertices(); v++ {
		for _, w := range base.Neighbors(graph.VertexID(v)) {
			if graph.VertexID(v) < w {
				b.AddEdgeArcs(graph.VertexID(v), w, graph.EdgeLabel(rng.Intn(3)), graph.EdgeLabel(rng.Intn(3)))
			}
		}
	}
	return b.MustBuild()
}

// TestBuildAdjacencyMatchesMergeOracle: the position-probe build with its
// transposed reverse rows produces, for every directed query edge, the rows
// the merge intersection computes independently per direction. The random
// graphs carry 1–3 vertex labels, so C(to) shifts between edges and stale
// position entries are the common case; the edge-labelled sets cover a
// wildcard direction and asymmetric labels on the same query edge.
func TestBuildAdjacencyMatchesMergeOracle(t *testing.T) {
	t.Run("ldbc", func(t *testing.T) {
		g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 150, Seed: 11})
		entries := 0
		for _, q := range ldbc.Queries() {
			tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
			entries += requireMergeOracle(t, Build(q, g, tr), g)
		}
		if entries == 0 {
			t.Fatal("no adjacency entries checked")
		}
	})
	t.Run("random", func(t *testing.T) {
		q1, err := ldbc.QueryByName("q1")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(29))
		entries := 0
		for i, g := range buildRandomGraphs() {
			labels := 1
			for v := 0; v < g.NumVertices(); v++ {
				labels = max(labels, int(g.Label(graph.VertexID(v)))+1)
			}
			qs := []*graph.Query{
				q1,
				graph.RandomConnectedQuery(fmt.Sprintf("path%d", i), 3+rng.Intn(3), 0, labels, rng),
				graph.RandomConnectedQuery(fmt.Sprintf("cyc%d", i), 3+rng.Intn(3), 1+rng.Intn(2), labels, rng),
			}
			for _, q := range qs {
				tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
				entries += requireMergeOracle(t, BuildWorkers(q, g, tr, 2), g)
			}
		}
		if entries == 0 {
			t.Fatal("no adjacency entries checked")
		}
	})
	t.Run("edge-labeled", func(t *testing.T) {
		entries := 0
		for seed := int64(1); seed <= 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := randomEdgeLabeled(seed, rng)
			if seed%2 == 0 {
				g = randomArcLabeled(seed, rng)
			}
			q := graph.RandomConnectedQuery("rq", 3+rng.Intn(3), rng.Intn(3), 2, rng)
			// Per edge: unlabelled, one label both ways, a label one way and
			// the wildcard the other, or two different labels.
			for u := 0; u < q.NumVertices(); u++ {
				for _, w := range q.Neighbors(u) {
					if u > w {
						continue
					}
					l := graph.EdgeLabel(1 + rng.Intn(2))
					var err error
					switch rng.Intn(4) {
					case 1:
						err = q.SetEdgeLabel(u, w, l)
					case 2:
						err = q.SetEdgeArcLabels(u, w, l, graph.WildcardEdgeLabel)
					case 3:
						err = q.SetEdgeArcLabels(u, w, l, l%2+1)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			tr := order.BuildBFSTree(q, 0)
			entries += requireMergeOracle(t, Build(q, g, tr), g)
		}
		if entries == 0 {
			t.Fatal("no adjacency entries checked")
		}
	})
}

// TestBuildAllocsBounded gates the bytes one CST build allocates at the
// scale of the cold-planning sweep: at most twice the CST's own size plus
// one 4-byte-per-data-vertex table. The build's only |V(G)|-sized array is
// the stamp/position table, and the adjacency goes into exactly sized
// arenas, so a grow buffer or a second |V(G)| table breaks the gate.
func TestBuildAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the base-1600 graph")
	}
	g := ldbc.Generate(ldbc.Config{BasePersons: 1600, Seed: 42})
	for _, name := range []string{"q0", "q1", "q2", "q3", "q5"} {
		q, err := ldbc.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
		c := Build(q, g, tr) // warm up
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c = Build(q, g, tr)
		runtime.ReadMemStats(&after)
		got := int64(after.TotalAlloc - before.TotalAlloc)
		bound := 2 * (c.SizeBytes() + 4*int64(g.NumVertices()))
		t.Logf("%s: %d B allocated, CST %d B, bound %d B", name, got, c.SizeBytes(), bound)
		if got > bound {
			t.Errorf("%s: Build allocates %d B, want <= %d B", name, got, bound)
		}
	}
}
