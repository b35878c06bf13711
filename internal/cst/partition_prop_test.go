package cst

import (
	"math/rand"
	"testing"

	"fastmatch/graph"
	"fastmatch/internal/order"
)

// This file is the property harness for the partition/enumerate contract the
// whole pipeline rests on (the comment in partition.go, Theorem 1): for any
// (graph, query, thresholds), running Partition,
//
//	(a) every piece satisfies cfg.Fits or is atomic (all candidate sets
//	    singleton, so no split can shrink it further),
//	(b) the pieces' search spaces are pairwise disjoint,
//	(c) the union of per-piece Enumerate counts equals the unpartitioned
//	    count and an independent brute-force oracle over the data graph.
//
// Changing the split rules without this harness is how a silent wrong-count
// ships.

// bruteCount is the CST-free oracle: label-filtered injective backtracking
// directly over the data graph, checking every query edge. It shares no code
// with Build/Enumerate, so agreement is meaningful.
func bruteCount(q *graph.Query, g *graph.Graph) int64 {
	n := q.NumVertices()
	mapped := make([]graph.VertexID, n)
	used := make(map[graph.VertexID]bool)
	var rec func(u int) int64
	rec = func(u int) int64 {
		if u == n {
			return 1
		}
		var total int64
		for _, v := range g.VerticesWithLabel(q.Label(u)) {
			if used[v] {
				continue
			}
			ok := true
			for _, un := range q.Neighbors(u) {
				if un < u && !g.HasEdge(mapped[un], v) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			mapped[u] = v
			used[v] = true
			total += rec(u + 1)
			delete(used, v)
		}
		return total
	}
	return rec(0)
}

// propCase is one randomized (graph, query, thresholds) triple.
type propCase struct {
	seed int64
	g    *graph.Graph
	q    *graph.Query
	c    *CST
	o    order.Order
	cfg  PartitionConfig
}

// randomPropCase derives everything deterministically from seed so failures
// reproduce from the logged seed alone.
func randomPropCase(seed int64) propCase {
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomUniform(graph.GenConfig{
		NumVertices: 30 + rng.Intn(50),
		NumLabels:   2 + rng.Intn(2),
		AvgDegree:   2.5 + rng.Float64()*2,
		Seed:        seed,
	})
	q := graph.RandomConnectedQuery("prop", 2+rng.Intn(3), rng.Intn(3), g.NumLabels(), rng)
	tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
	c := Build(q, g, tr)
	o := order.PathBased(tr, c)
	cfg := PartitionConfig{
		// Tight, randomized thresholds force deep recursive partitioning on
		// most seeds while leaving some single-piece cases in the mix.
		MaxSizeBytes:  c.SizeBytes()/int64(2+rng.Intn(7)) + 32,
		MaxCandDegree: 2 + rng.Intn(5),
	}
	if rng.Intn(4) == 0 {
		cfg.FixedK = 2 + rng.Intn(3) // the Fig. 8 fixed-k mode rides along
	}
	return propCase{seed: seed, g: g, q: q, c: c, o: o, cfg: cfg}
}

// atomic reports whether no candidate set of p can be split further.
func atomicPiece(p *CST) bool {
	for u := 0; u < p.Query.NumVertices(); u++ {
		if len(p.Cand[u]) > 1 {
			return false
		}
	}
	return true
}

// checkPieces asserts invariants (a)–(c) over the collected pieces of one
// Partition run.
func checkPieces(t *testing.T, pc propCase, pieces []*CST, produced int, want int64) {
	t.Helper()
	if produced != len(pieces) {
		t.Errorf("seed %d: produced %d pieces but process saw %d", pc.seed, produced, len(pieces))
		return
	}
	var sum int64
	union := make(map[string]int)
	for pi, p := range pieces {
		if err := p.Validate(pc.g); err != nil {
			t.Errorf("seed %d: piece %d invalid: %v", pc.seed, pi, err)
			return
		}
		if !pc.cfg.Fits(p) && !atomicPiece(p) {
			t.Errorf("seed %d: piece %d violates thresholds (size=%d maxDeg=%d) and is not atomic",
				pc.seed, pi, p.SizeBytes(), p.MaxCandDegree())
			return
		}
		n := Enumerate(p, pc.o, func(e graph.Embedding) bool {
			if prev, dup := union[e.Key()]; dup {
				t.Errorf("seed %d: embedding %v in pieces %d and %d — search spaces overlap",
					pc.seed, e, prev, pi)
				return false
			}
			union[e.Key()] = pi
			return true
		})
		sum += n
	}
	if sum != want {
		t.Errorf("seed %d: union of piece counts = %d, want %d", pc.seed, sum, want)
	}
	if int64(len(union)) != want {
		t.Errorf("seed %d: %d distinct embeddings across pieces, want %d", pc.seed, len(union), want)
	}
}

// TestPartitionEnumerateProperties is the main harness: >= 100 randomized
// graph/query pairs (the acceptance floor).
func TestPartitionEnumerateProperties(t *testing.T) {
	const pairs = 110
	for seed := int64(0); seed < pairs; seed++ {
		pc := randomPropCase(seed)
		want := Count(pc.c, pc.o)
		if brute := bruteCount(pc.q, pc.g); brute != want {
			t.Fatalf("seed %d: CST count %d disagrees with brute force %d", seed, want, brute)
		}
		var pieces []*CST
		n := Partition(pc.c, pc.o, pc.cfg, func(p *CST) { pieces = append(pieces, p) })
		checkPieces(t, pc, pieces, n, want)
	}
}

// TestPartitionStolenUnionStaysExact: with a Steal hook that takes every
// other offer, the stolen pieces and the processed pieces together still
// partition the search space — the invariant host.Match's δ-share rests on.
func TestPartitionStolenUnionStaysExact(t *testing.T) {
	for seed := int64(300); seed < 330; seed++ {
		pc := randomPropCase(seed)
		want := Count(pc.c, pc.o)
		var all []*CST // processed + stolen: must union exactly
		offers := 0
		pc.cfg.Steal = func(of Offer) bool {
			offers++
			if offers%2 == 1 {
				return false
			}
			all = append(all, of.Build())
			return true
		}
		n := Partition(pc.c, pc.o, pc.cfg, func(p *CST) { all = append(all, p) })
		if n != len(all) {
			t.Fatalf("seed %d: count %d but %d pieces seen", seed, n, len(all))
		}
		var sum int64
		union := make(map[string]bool)
		for _, p := range all {
			sum += Enumerate(p, pc.o, func(e graph.Embedding) bool {
				if union[e.Key()] {
					t.Fatalf("seed %d: duplicate embedding across stolen+processed pieces", seed)
				}
				union[e.Key()] = true
				return true
			})
		}
		if sum != want {
			t.Fatalf("seed %d: stolen+processed union %d, want %d", seed, sum, want)
		}
	}
}
