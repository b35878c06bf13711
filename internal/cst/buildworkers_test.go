package cst

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fastmatch/graph"
	"fastmatch/internal/order"
	"fastmatch/ldbc"
)

// requireSameCST fails unless a and b are structurally identical: same
// candidate sets, same adjacency lists for every directed query edge, and
// same cached stats. This is the contract BuildWorkers promises for every
// worker count.
func requireSameCST(t *testing.T, a, b *CST) {
	t.Helper()
	nq := a.Query.NumVertices()
	if nq != b.Query.NumVertices() {
		t.Fatalf("query size differs: %d vs %d", nq, b.Query.NumVertices())
	}
	for u := graph.QueryVertex(0); u < nq; u++ {
		ca, cb := a.Candidates(u), b.Candidates(u)
		if len(ca) != len(cb) {
			t.Fatalf("u%d: %d vs %d candidates", u, len(ca), len(cb))
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("u%d: candidate %d differs: %v vs %v", u, i, ca[i], cb[i])
			}
		}
	}
	for from := graph.QueryVertex(0); from < nq; from++ {
		for to := graph.QueryVertex(0); to < nq; to++ {
			ea, eb := a.Edge(from, to), b.Edge(from, to)
			if ea.Valid() != eb.Valid() {
				t.Fatalf("edge %d->%d: validity differs", from, to)
			}
			if !ea.Valid() {
				continue
			}
			if len(ea.Offsets) != len(eb.Offsets) || len(ea.Targets) != len(eb.Targets) {
				t.Fatalf("edge %d->%d: shape differs (%d/%d offsets, %d/%d targets)",
					from, to, len(ea.Offsets), len(eb.Offsets), len(ea.Targets), len(eb.Targets))
			}
			for i := range ea.Offsets {
				if ea.Offsets[i] != eb.Offsets[i] {
					t.Fatalf("edge %d->%d: offset %d differs", from, to, i)
				}
			}
			for i := range ea.Targets {
				if ea.Targets[i] != eb.Targets[i] {
					t.Fatalf("edge %d->%d: target %d differs", from, to, i)
				}
			}
			if ea.maxDeg != eb.maxDeg {
				t.Fatalf("edge %d->%d: maxDeg %d vs %d", from, to, ea.maxDeg, eb.maxDeg)
			}
		}
	}
	if a.SizeBytes() != b.SizeBytes() || a.MaxCandDegree() != b.MaxCandDegree() {
		t.Fatalf("stats differ: size %d vs %d, maxDeg %d vs %d",
			a.SizeBytes(), b.SizeBytes(), a.MaxCandDegree(), b.MaxCandDegree())
	}
}

// TestBuildWorkersMatchesSequential: for every worker count the parallel
// build must produce a CST byte-identical to the sequential Build — the
// chunked keep-filter preserves order and the adjacency assembler runs
// serially, so nothing may depend on scheduling.
func TestBuildWorkersMatchesSequential(t *testing.T) {
	g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 150, Seed: 11})
	for _, name := range []string{"q1", "q2", "q5"} {
		q, err := ldbc.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
		want := Build(q, g, tr)
		for _, workers := range []int{0, 1, 2, 3, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				got := BuildWorkers(q, g, tr, workers)
				requireSameCST(t, want, got)
				if err := got.Validate(g); err != nil {
					t.Fatalf("parallel build invalid: %v", err)
				}
			})
		}
	}
}

// TestBuildWorkersRandomGraphs drives the equivalence over random graphs
// whose candidate counts straddle the parallel threshold, so both the
// serial fallback and the chunked path are exercised.
func TestBuildWorkersRandomGraphs(t *testing.T) {
	q, err := ldbc.QueryByName("q1")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range buildRandomGraphs() {
		tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
		want := Build(q, g, tr)
		got := BuildWorkers(q, g, tr, 4)
		requireSameCST(t, want, got)
	}
}

// buildRandomGraphs returns 20 seeded random graphs of 50–2049 vertices and
// 1–3 vertex labels: candidate counts straddle the parallel threshold, and
// few labels make most neighbours candidates of several query vertices.
func buildRandomGraphs() []*graph.Graph {
	rng := rand.New(rand.NewSource(17))
	gs := make([]*graph.Graph, 20)
	for trial := range gs {
		n := 50 + rng.Intn(2000)
		labels := 1 + rng.Intn(3)
		b := graph.NewBuilder(n, labels)
		for i := 0; i < n; i++ {
			b.AddVertex(graph.Label(rng.Intn(labels)))
		}
		for e := 0; e < n*3; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(graph.VertexID(u), graph.VertexID(v))
			}
		}
		gs[trial] = b.MustBuild()
	}
	return gs
}

// TestBuildWorkersConcurrentBuilds runs several parallel builds at once over
// a shared immutable data graph. Under -race this pins down that
// BuildWorkers keeps all mutable state (stamps, chunk counters, assembler)
// private per build.
func TestBuildWorkersConcurrentBuilds(t *testing.T) {
	g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 150, Seed: 11})
	q, err := ldbc.QueryByName("q5")
	if err != nil {
		t.Fatal(err)
	}
	tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
	want := Build(q, g, tr)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := BuildWorkers(q, g, tr, 3)
			// Compare sizes only from goroutines (t.Fatalf is main-only);
			// the full structural check runs once below.
			if got.SizeBytes() != want.SizeBytes() {
				t.Errorf("concurrent build diverged: size %d vs %d", got.SizeBytes(), want.SizeBytes())
			}
		}()
	}
	wg.Wait()
	requireSameCST(t, want, BuildWorkers(q, g, tr, 3))
}

// TestParallelKeep pins the chunked order-preserving filter against the
// serial path for random inputs, worker counts and predicates.
func TestParallelKeep(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(5000)
		vs := make([]graph.VertexID, n)
		for i := range vs {
			vs[i] = graph.VertexID(rng.Intn(1 << 20))
		}
		mod := graph.VertexID(1 + rng.Intn(7))
		keep := func(v graph.VertexID) bool { return v%mod != 0 }

		var want []graph.VertexID
		for _, v := range vs {
			if keep(v) {
				want = append(want, v)
			}
		}
		workers := 1 + rng.Intn(8)
		got := parallelKeep(append([]graph.VertexID(nil), vs...), workers, keep)
		if len(got) != len(want) {
			t.Fatalf("trial %d (workers=%d): kept %d, want %d", trial, workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (workers=%d): index %d: %v vs %v", trial, workers, i, got[i], want[i])
			}
		}
	}
}
