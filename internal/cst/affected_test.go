package cst

import (
	"math/rand"
	"sync"
	"testing"

	"fastmatch/graph"
	"fastmatch/internal/order"
)

// affectedFixture builds a random graph + connected query and returns the
// prepared (CST, order).
func affectedFixture(t *testing.T, rng *rand.Rand) (*graph.Query, *CST, order.Order) {
	t.Helper()
	g := graph.RandomUniform(graph.GenConfig{
		NumVertices: 40,
		NumLabels:   3,
		AvgDegree:   4,
		Seed:        rng.Int63(),
	})
	q := graph.RandomConnectedQuery("aff", 3+rng.Intn(2), rng.Intn(2), 3, rng)
	root := order.SelectRoot(q, g)
	tree := order.BuildBFSTree(q, root)
	c := Build(q, g, tree)
	o := order.PathBased(tree, c)
	return q, c, o
}

// TestAffectedEnumerateOracle: EnumerateAffected must return exactly the
// embeddings of CollectAll that touch a dirty vertex — each exactly once —
// for random dirty sets of varying density, including empty and
// all-vertices.
func TestAffectedEnumerateOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		_, c, o := affectedFixture(t, rng)
		all := CollectAll(c, o)

		dirtySet := make(map[graph.VertexID]bool)
		switch trial % 4 {
		case 0: // sparse
			for i := 0; i < 3; i++ {
				dirtySet[graph.VertexID(rng.Intn(40))] = true
			}
		case 1: // dense
			for v := 0; v < 40; v++ {
				if rng.Intn(2) == 0 {
					dirtySet[graph.VertexID(v)] = true
				}
			}
		case 2: // everything is dirty: affected = all
			for v := 0; v < 40; v++ {
				dirtySet[graph.VertexID(v)] = true
			}
		case 3: // nothing is dirty: affected = none
		}
		dirty := func(v graph.VertexID) bool { return dirtySet[v] }

		want := make(map[string]int)
		for _, em := range all {
			touches := false
			for _, v := range em {
				if dirtySet[v] {
					touches = true
					break
				}
			}
			if touches {
				want[em.Key()]++
			}
		}
		got := make(map[string]int)
		n := EnumerateAffected(c, o, dirty, func(em graph.Embedding) bool {
			got[em.Key()]++
			return true
		})
		if int(n) != len(got) {
			t.Fatalf("trial %d: returned count %d but emitted %d distinct", trial, n, len(got))
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: affected %d embeddings, oracle %d (dirty=%d, all=%d)",
				trial, len(got), len(want), len(dirtySet), len(all))
		}
		for k, cnt := range got {
			if cnt != 1 {
				t.Fatalf("trial %d: embedding %s emitted %d times, want exactly once", trial, k, cnt)
			}
			if want[k] == 0 {
				t.Fatalf("trial %d: emitted embedding %s does not touch the dirty set", trial, k)
			}
		}
	}
}

// TestAffectedEnumerateEarlyStop: a refusing emit stops enumeration; the
// refused embedding still counts, matching Enumerate's contract.
func TestAffectedEnumerateEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		_, c, o := affectedFixture(t, rng)
		dirty := func(graph.VertexID) bool { return true } // affected = all
		total := EnumerateAffected(c, o, dirty, nil)
		if total < 2 {
			continue
		}
		var seen int64
		n := EnumerateAffected(c, o, dirty, func(graph.Embedding) bool {
			seen++
			return seen < 2
		})
		if n != 2 || seen != 2 {
			t.Fatalf("early stop: n=%d seen=%d, want 2 each (total %d)", n, seen, total)
		}
		return
	}
	t.Skip("no fixture with ≥2 embeddings found")
}

// TestAffectedEnumerateNilEmitCounts: count-only mode agrees with the
// collecting mode.
func TestAffectedEnumerateNilEmitCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		_, c, o := affectedFixture(t, rng)
		dirtySet := map[graph.VertexID]bool{3: true, 17: true, 29: true}
		dirty := func(v graph.VertexID) bool { return dirtySet[v] }
		n := EnumerateAffected(c, o, dirty, nil)
		if m := int64(len(CollectAffected(c, o, dirty))); n != m {
			t.Fatalf("trial %d: count-only %d != collected %d", trial, n, m)
		}
	}
}

// TestEnumeratorAffectedMaskDoesNotLeak: the class mask an affected pass
// sets must not survive into a later static run of the same Enumerator —
// neither one held directly (Reset, affected pass, Reset, Run) nor one
// handed back and forth through a sync.Pool the way the host's δ-share
// drain pools them.
func TestEnumeratorAffectedMaskDoesNotLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dirtySet := map[graph.VertexID]bool{3: true, 17: true, 29: true}
	dirty := func(v graph.VertexID) bool { return dirtySet[v] }
	var pool sync.Pool
	pooled := func(f func(e *Enumerator)) {
		e, _ := pool.Get().(*Enumerator)
		if e == nil {
			e = new(Enumerator)
		}
		defer pool.Put(e)
		f(e)
	}
	var e Enumerator
	narrowed := 0
	for trial := 0; trial < 20; trial++ {
		_, c, o := affectedFixture(t, rng)
		want := Count(c, o)
		affected := EnumerateAffected(c, o, dirty, nil)
		if affected < want {
			narrowed++
		}

		e.Reset(c, o)
		if got := e.runAffected(dirty, nil); got != affected {
			t.Fatalf("trial %d: shared affected pass %d, EnumerateAffected %d", trial, got, affected)
		}
		e.Reset(c, o)
		if got := e.Run(nil); got != want {
			t.Fatalf("trial %d: Run after an affected pass counted %d, Count %d", trial, got, want)
		}

		pooled(func(e *Enumerator) {
			e.Reset(c, o)
			if got := e.runAffected(dirty, nil); got != affected {
				t.Fatalf("trial %d: pooled affected pass %d, EnumerateAffected %d", trial, got, affected)
			}
		})
		pooled(func(e *Enumerator) {
			e.Reset(c, o)
			if got := e.Run(nil); got != want {
				t.Fatalf("trial %d: pooled Run after an affected pass counted %d, Count %d", trial, got, want)
			}
		})
	}
	if narrowed == 0 {
		t.Fatal("the dirty set never narrowed a count, so a leaked mask would go unseen")
	}
}
