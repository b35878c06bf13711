package fast

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fastmatch/graph"
	"fastmatch/internal/baseline"
	"fastmatch/internal/cst"
	"fastmatch/internal/order"
	"fastmatch/ldbc"
)

// withEdgeLabels rebuilds g with every edge labelled 1 or 2; about a third
// of the edges get distinct labels per direction (a directed relation).
func withEdgeLabels(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertex(g.Label(graph.VertexID(v)))
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(graph.VertexID(v)) {
			if graph.VertexID(v) > w {
				continue
			}
			if rng.Intn(3) == 0 {
				b.AddEdgeArcs(graph.VertexID(v), w, 1, 2)
			} else {
				b.AddEdgeLabeled(graph.VertexID(v), w, graph.EdgeLabel(1+rng.Intn(2)))
			}
		}
	}
	return b.MustBuild()
}

// hubOf returns g's live vertex of largest degree.
func hubOf(g *graph.Graph) graph.VertexID {
	var hub graph.VertexID
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(graph.VertexID(v)) > g.Degree(hub) {
			hub = graph.VertexID(v)
		}
	}
	return hub
}

// randomMixedBatch builds one valid batch of 1–6 ops against g: vertex
// adds (wired to live vertices and to each other), vertex deletes, edge
// inserts and edge deletes. With hub set, every edge op has an endpoint at
// g's largest-degree vertex.
func randomMixedBatch(rng *rand.Rand, g *graph.Graph, hub bool) graph.Delta {
	var d graph.Delta
	used := map[[2]graph.VertexID]bool{}
	delV := map[graph.VertexID]bool{}
	canon := func(u, v graph.VertexID) [2]graph.VertexID {
		if u > v {
			u, v = v, u
		}
		return [2]graph.VertexID{u, v}
	}
	// live reports whether v may carry an edge op: added by this batch, or
	// neither tombstoned nor deleted by it.
	live := func(v graph.VertexID) bool {
		return int(v) >= g.NumVertices() || !g.Deleted(v) && !delV[v]
	}
	pick := func() graph.VertexID {
		for {
			if v := graph.VertexID(rng.Intn(g.NumVertices())); live(v) {
				return v
			}
		}
	}
	addEdge := func(u, v graph.VertexID) {
		k := canon(u, v)
		old := int(u) < g.NumVertices() && int(v) < g.NumVertices()
		if u == v || used[k] || !live(u) || !live(v) || old && g.HasEdge(u, v) {
			return
		}
		used[k] = true
		d.AddEdges = append(d.AddEdges, k)
		if g.EdgeLabeled() {
			d.AddEdgeLabels = append(d.AddEdgeLabels, graph.EdgeLabel(1+rng.Intn(2)))
		}
	}
	delEdge := func(u graph.VertexID) {
		nbrs := g.Neighbors(u)
		if len(nbrs) == 0 {
			return
		}
		v := nbrs[rng.Intn(len(nbrs))]
		if k := canon(u, v); !used[k] && live(u) && live(v) {
			used[k] = true
			d.DelEdges = append(d.DelEdges, k)
		}
	}
	h := hubOf(g)
	ops := 1 + rng.Intn(6)
	for i := 0; i < ops; i++ {
		switch op := rng.Intn(5); {
		case hub && op%2 == 0:
			addEdge(h, pick())
		case hub:
			delEdge(h)
		case op == 0: // a new vertex wired to live vertices and maybe to the previous new one
			n := graph.VertexID(g.NumVertices() + len(d.AddVertices))
			d.AddVertices = append(d.AddVertices, graph.Label(rng.Intn(g.NumLabels())))
			for j := 0; j < 1+rng.Intn(3); j++ {
				addEdge(n, pick())
			}
			if len(d.AddVertices) > 1 && rng.Intn(2) == 0 {
				addEdge(n, n-1)
			}
		case op == 1: // a vertex delete, when none of the batch's edges touch it
			v := pick()
			touched := false
			for k := range used {
				touched = touched || k[0] == v || k[1] == v
			}
			if !touched && v != h {
				delV[v] = true
				d.DelVertices = append(d.DelVertices, v)
			}
		case op == 2:
			addEdge(pick(), pick())
		default:
			delEdge(pick())
		}
	}
	return d
}

// embeddingSet returns the keys of every embedding of q in g, from the
// backtracking oracle.
func embeddingSet(t testing.TB, q *graph.Query, g *graph.Graph) map[string]bool {
	t.Helper()
	res, err := baseline.Backtrack(q, g, baseline.Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	return embeddingKeys(res.Embeddings)
}

// changedEdgeQueries returns the standing queries the oracle subscribes on
// a graph with numLabels labels: random paths and cyclic queries, an
// automorphic triangle, a one-vertex query, and on edge-labelled graphs
// queries with labelled and directed edges.
func changedEdgeQueries(rng *rand.Rand, numLabels int, edgeLabeled bool) []*graph.Query {
	l := graph.Label(rng.Intn(numLabels))
	qs := []*graph.Query{
		graph.RandomConnectedQuery("path4", 4, 0, numLabels, rng),
		graph.RandomConnectedQuery("cyc4", 4, 2, numLabels, rng),
		graph.RandomConnectedQuery("cyc5", 5, 2, numLabels, rng),
		graph.MustQuery("sym3", []graph.Label{l, l, l}, [][2]graph.QueryVertex{{0, 1}, {1, 2}, {0, 2}}),
		graph.MustQuery("one", []graph.Label{l}, nil),
	}
	if edgeLabeled {
		lab := graph.RandomConnectedQuery("elab3", 3, 1, numLabels, rng)
		for u := 0; u < lab.NumVertices(); u++ {
			for _, w := range lab.Neighbors(u) {
				if u < w && rng.Intn(2) == 0 {
					_ = lab.SetEdgeLabel(u, w, graph.EdgeLabel(1+rng.Intn(2)))
				}
			}
		}
		dir := graph.RandomConnectedQuery("dir3", 3, 0, numLabels, rng)
		w := dir.Neighbors(0)[0]
		_ = dir.SetEdgeArcLabels(0, w, 1, 2)
		qs = append(qs, lab, dir)
	}
	return qs
}

// TestSubscribeChangedEdgeOracle: on seeded random graphs (uniform and
// power-law, with and without edge labels) and random mixed batches —
// vertex adds wired to each other, vertex deletes, edge inserts and
// deletes, and batches at the largest hub — every subscriber's Added and
// Removed must be exactly the set differences of the backtracking oracle's
// full embedding sets on the two epochs, each embedding once.
func TestSubscribeChangedEdgeOracle(t *testing.T) {
	const batches = 16
	for gi, gen := range []struct {
		name        string
		g           *graph.Graph
		edgeLabeled bool
	}{
		{"uniform", graph.RandomUniform(graph.GenConfig{NumVertices: 90, NumLabels: 3, AvgDegree: 5, Seed: 11}), false},
		{"powerlaw", graph.RandomPowerLaw(graph.GenConfig{NumVertices: 120, NumLabels: 3, AvgDegree: 6, Seed: 12}), false},
		{"uniform-elab", graph.RandomUniform(graph.GenConfig{NumVertices: 90, NumLabels: 2, AvgDegree: 5, Seed: 13}), true},
		{"powerlaw-elab", graph.RandomPowerLaw(graph.GenConfig{NumVertices: 120, NumLabels: 2, AvgDegree: 6, Seed: 14}), true},
	} {
		t.Run(gen.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + gi)))
			g := gen.g
			if gen.edgeLabeled {
				g = withEdgeLabels(g, rng)
			}
			r := NewRouter(RouterOptions{Workers: 2, Engine: engineTestOptions(2)})
			if err := r.AddGraph("g", g, nil); err != nil {
				t.Fatal(err)
			}
			qs := changedEdgeQueries(rng, g.NumLabels(), gen.edgeLabeled)
			got := make([]chan MatchDelta, len(qs))
			for i, q := range qs {
				ch := make(chan MatchDelta, batches)
				got[i] = ch
				sub, err := r.Subscribe(context.Background(), "g", q, func(md MatchDelta) error {
					ch <- md
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				defer sub.Close()
			}
			for step := 1; step <= batches; step++ {
				hub := step%5 == 3
				d := randomMixedBatch(rng, g, hub)
				if step == batches {
					d = graph.Delta{DelVertices: []graph.VertexID{hubOf(g)}}
					hub = true
				}
				g2, _, err := g.ApplyDelta(d)
				if err != nil {
					t.Fatalf("step %d: batch %+v: %v", step, d, err)
				}
				if _, err := r.ApplyDelta("g", d); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				for i, q := range qs {
					before, after := embeddingSet(t, q, g), embeddingSet(t, q, g2)
					var md MatchDelta
					select {
					case md = <-got[i]:
					case <-time.After(10 * time.Second):
						t.Fatalf("step %d %s: no MatchDelta", step, q.Name())
					}
					if md.Epoch != g2.Epoch() {
						t.Fatalf("step %d %s: epoch %d, want %d", step, q.Name(), md.Epoch, g2.Epoch())
					}
					for _, side := range []struct {
						name string
						ems  []graph.Embedding
						want map[string]bool
					}{{"added", md.Added, diffKeys(after, before)}, {"removed", md.Removed, diffKeys(before, after)}} {
						keys := embeddingKeys(side.ems)
						if len(keys) != len(side.ems) || !sameKeySet(keys, side.want) {
							t.Fatalf("step %d %s (hub %v, batch %+v): %s %d embeddings (%d distinct), want %d",
								step, q.Name(), hub, d, side.name, len(side.ems), len(keys), len(side.want))
						}
					}
				}
				if hub {
					logHubCost(t, qs, g, g2, d)
				}
				g = g2
			}
		})
	}
}

// logHubCost logs, per query, a fresh EdgeMatcher's time on a hub batch
// beside a full CST build of the new epoch: the cost notify avoids.
func logHubCost(t *testing.T, qs []*graph.Query, g, g2 *graph.Graph, d graph.Delta) {
	deleted := append([][2]graph.VertexID(nil), d.DelEdges...)
	for _, v := range d.DelVertices {
		for _, w := range g.Neighbors(v) {
			deleted = append(deleted, [2]graph.VertexID{v, w})
		}
	}
	line := fmt.Sprintf("hub batch (%d ops, %d deleted edges):", d.Ops(), len(deleted))
	for _, q := range qs {
		if q.NumVertices() == 1 {
			continue
		}
		start := time.Now()
		m, sc := cst.NewEdgeMatcher(q), new(cst.MatchScratch)
		n := len(m.Match(g2, d.AddEdges, sc)) + len(m.Match(g, deleted, sc))
		matchDur := time.Since(start)
		start = time.Now()
		cst.BuildWorkers(q, g2, order.BuildBFSTree(q, order.SelectRoot(q, g2)), 2)
		line += fmt.Sprintf(" %s %v (%d embeddings) vs build %v;", q.Name(), matchDur, n, time.Since(start))
	}
	t.Log(line)
}

// notifyAllocs returns the allocations one q1 subscriber's notify costs per
// batch on the LDBC graph of the given base: ApplyDelta's allocations with
// the subscriber minus those without, over one-edge batches that delete
// and re-insert edges q1's labels can use, off the hubs (both endpoints of
// degree at most 32, as the benchmark's generator draws them).
func notifyAllocs(t *testing.T, base int) float64 {
	g, q, edges := q1Batches(t, base)
	r := NewRouter(RouterOptions{Workers: 2, Engine: engineTestOptions(2)})
	if err := r.AddGraph("g", g, nil); err != nil {
		t.Fatal(err)
	}
	batches := func() float64 {
		return testing.AllocsPerRun(5, func() { applyDeleteReinsert(t, r, edges) }) / float64(2*len(edges))
	}
	without := batches()
	sub, err := r.Subscribe(context.Background(), "g", q, func(MatchDelta) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	return batches() - without
}

// q1Batches returns the LDBC graph of the given base, seed 42, the query
// q1, and two edges per label pair of q1's edges, off the hubs (both
// endpoints of degree at most 32, as the benchmark's generator draws
// them), drawn the same way at every base.
func q1Batches(t *testing.T, base int) (*graph.Graph, *graph.Query, [][2]graph.VertexID) {
	g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: base, Seed: 42})
	q, err := ldbc.QueryByName("q1")
	if err != nil {
		t.Fatal(err)
	}
	var edges [][2]graph.VertexID
	rng := rand.New(rand.NewSource(42))
	for u := 0; u < q.NumVertices(); u++ {
		for _, w := range q.Neighbors(u) {
			for found := 0; u < w && found < 2; {
				x := graph.VertexID(rng.Intn(g.NumVertices()))
				if g.Label(x) != q.Label(u) || g.Degree(x) > 32 {
					continue
				}
				ys := g.NeighborsWithLabel(x, q.Label(w), nil)
				if len(ys) == 0 {
					continue
				}
				if y := ys[rng.Intn(len(ys))]; g.Degree(y) <= 32 {
					edges = append(edges, [2]graph.VertexID{x, y})
					found++
				}
			}
		}
	}
	return g, q, edges
}

// applyDeleteReinsert applies, per edge, a one-edge delete batch and then
// its re-insert, leaving the edge set as it found it.
func applyDeleteReinsert(t *testing.T, r *Router, edges [][2]graph.VertexID) {
	t.Helper()
	for _, e := range edges {
		if _, err := r.ApplyDelta("g", graph.Delta{DelEdges: [][2]graph.VertexID{e}}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ApplyDelta("g", graph.Delta{AddEdges: [][2]graph.VertexID{e}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNotifyAllocsFollowTheDelta is the gate that a subscriber's notify
// costs the delta, not the graph: the same one-edge batches allocate
// about as much per notify at LDBC base 1600 as at base 200, and stay
// under a fixed ceiling at base 400.
func TestNotifyAllocsFollowTheDelta(t *testing.T) {
	small, mid, large := notifyAllocs(t, 200), notifyAllocs(t, 400), notifyAllocs(t, 1600)
	t.Logf("allocations per notify: base 200 %.1f, base 400 %.1f, base 1600 %.1f", small, mid, large)
	if large > 1.5*small {
		t.Errorf("base 1600 notify allocates %.1f, over 1.5× base 200's %.1f: notify scales with the graph", large, small)
	}
	if mid > notifyAllocCeiling {
		t.Errorf("base 400 notify allocates %.1f, over the ceiling %d", mid, notifyAllocCeiling)
	}
}

// TestSubscriberHeapFollowsTheQuery is the gate that a subscriber holds
// its query's plan and queue, not state sized by the graph: the heap one
// more identical q1 subscriber adds, once it has been notified, is about
// the same at LDBC base 1600 as at base 400, and under a fixed ceiling.
// A per-subscriber table of a few bytes per data vertex grows about 4×
// between the two bases and fails both.
func TestSubscriberHeapFollowsTheQuery(t *testing.T) {
	mid, large := subscriberHeap(t, 400), subscriberHeap(t, 1600)
	t.Logf("heap per extra subscriber: base 400 %.0f B, base 1600 %.0f B", mid, large)
	if large > 1.5*mid {
		t.Errorf("base 1600 subscriber holds %.0f B, over 1.5× base 400's %.0f B: subscribers scale with the graph", large, mid)
	}
	if large > subscriberHeapCeiling {
		t.Errorf("base 1600 subscriber holds %.0f B, over the ceiling %d B", large, subscriberHeapCeiling)
	}
}

// subscriberHeapCeiling bounds the heap of one notified q1 subscriber:
// its seeded plans, Enumerator buffers (which keep the last seeded CST)
// and MatchDelta queue, 7.5–8 KB measured at both bases, with headroom
// for toolchain drift. A subscriber that owned its matcher's stamp and
// position tables held 49 KB at base 400 and 172 KB at base 1600.
const subscriberHeapCeiling = 12 << 10

// subscriberHeap returns the heap each of 16 extra q1 subscribers adds to
// a tenant that has one, on the LDBC graph of the given base. Heap is
// HeapAlloc after two GCs, read once every subscriber has been notified
// of, and has handed on, the same delete and re-insert batches.
func subscriberHeap(t *testing.T, base int) float64 {
	g, q, edges := q1Batches(t, base)
	r := NewRouter(RouterOptions{Workers: 2, Engine: engineTestOptions(2)})
	if err := r.AddGraph("g", g, nil); err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	var subs []*Subscription
	defer func() {
		for _, s := range subs {
			s.Close()
		}
	}()
	heapWith := func(k int) uint64 {
		for len(subs) < k {
			s, err := r.Subscribe(context.Background(), "g", q, func(MatchDelta) error {
				delivered.Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, s)
		}
		want := delivered.Load() + int64(2*len(edges)*k)
		applyDeleteReinsert(t, r, edges)
		for deadline := time.Now().Add(10 * time.Second); delivered.Load() < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d MatchDeltas delivered", delivered.Load(), want)
			}
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	one := heapWith(1)
	many := heapWith(17)
	return (float64(many) - float64(one)) / 16
}

// notifyAllocCeiling bounds a base-400 notify's allocations: 81 measured
// (one seeded CST per query edge a batch's labels fit, and the embeddings
// it returns), with headroom for toolchain drift.
const notifyAllocCeiling = 160
