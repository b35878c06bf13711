package cst

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"fastmatch/graph"
	"fastmatch/internal/order"
)

// bigRestrictCST builds a CST large enough that a single restrict step runs
// tens of thousands of loop iterations — i.e. many multiples of the 4096
// amortisation window — so the in-restrict cancel poll is observable.
func bigRestrictCST(t *testing.T) (*CST, graph.QueryVertex) {
	t.Helper()
	g := graph.RandomUniform(graph.GenConfig{
		NumVertices: 24000, NumLabels: 2, AvgDegree: 6, Seed: 11,
	})
	rng := rand.New(rand.NewSource(3))
	q := graph.RandomConnectedQuery("big", 4, 0, g.NumLabels(), rng)
	tr := order.BuildBFSTree(q, 0)
	c := Build(q, g, tr)
	if len(c.Cand[tr.Root]) < 2*4096 {
		t.Fatalf("fixture too small: |C(root)| = %d, need > %d for multiple polls", len(c.Cand[tr.Root]), 2*4096)
	}
	return c, tr.Root
}

// TestRestrictCancelBoundedLatency: the cancel hook must be polled inside
// restrict's loops (amortised, every 4096 iterations), not just between
// pieces — so cancelling mid-restrict aborts the piece instead of paying
// for the whole restriction. The regression: restrict ran to completion
// however long it took, so one large piece could overrun a deadline by its
// full duration.
func TestRestrictCancelBoundedLatency(t *testing.T) {
	c, u := bigRestrictCST(t)
	chunk := [2]int{0, len(c.Cand[u]) - 1} // keep almost everything: maximal restrict work

	// Sanity: without a hook the same restrict completes and is non-empty.
	if part := restrict(c, u, chunk, &restrictScratch{}); part == nil || part.IsEmpty() {
		t.Fatal("uncancelled restrict returned nil/empty piece")
	}

	// Fire on the second poll: the first poll (tick 1) happens at the top of
	// the loops, the second only after ~4096 further iterations — inside the
	// piece. restrict must return nil, and must have polled at least twice,
	// which is impossible unless the check sits inside its loops.
	var calls atomic.Int64
	var firedAt atomic.Int64 // ns timestamp of the first true verdict
	sc := &restrictScratch{cancel: func() bool {
		if calls.Add(1) >= 2 {
			firedAt.CompareAndSwap(0, time.Now().UnixNano())
			return true
		}
		return false
	}}
	part := restrict(c, u, chunk, sc)
	elapsed := time.Duration(time.Now().UnixNano() - firedAt.Load())
	if part != nil {
		t.Fatal("restrict completed despite cancellation firing mid-piece")
	}
	if calls.Load() < 2 {
		t.Fatalf("cancel hook polled %d times during one large restrict, want >= 2 (amortised in-loop poll)", calls.Load())
	}
	// The latency bound: after the hook fires, restrict returns within one
	// amortisation window (~4096 candidate rows), which is microseconds of
	// work; 1s is a wildly generous ceiling that still catches "finished the
	// whole piece first" on any machine.
	if firedAt.Load() != 0 && elapsed > time.Second {
		t.Errorf("restrict returned %v after cancellation, want bounded (≪ 1s)", elapsed)
	}
}

// TestPartitionCancelMidRestrict: Partition must treat a nil (cancelled)
// restrict as "stop producing" and return.
func TestPartitionCancelMidRestrict(t *testing.T) {
	c, _ := bigRestrictCST(t)
	o := order.PathBased(c.Tree, c)
	cfg := PartitionConfig{
		// Tight budgets force deep recursive splitting, i.e. many restricts.
		MaxSizeBytes:  c.SizeBytes() / 64,
		MaxCandDegree: 64,
	}

	full := Partition(c, o, cfg, func(*CST) {})
	if full < 2 {
		t.Fatalf("fixture produced %d pieces uncancelled, want >= 2", full)
	}

	t.Run("sequential", func(t *testing.T) {
		ccfg := cfg
		polls := 0
		// Let a little work happen, then cancel — the fire point lands inside
		// restrict loops as often as between pieces, covering the nil-return
		// path.
		ccfg.Cancel = func() bool { polls++; return polls > 8 }
		produced := 0
		count := Partition(c, o, ccfg, func(*CST) { produced++ })
		if count < produced {
			t.Errorf("returned count %d < delivered pieces %d", count, produced)
		}
		if count >= full {
			t.Errorf("cancelled run delivered %d pieces, want < uncancelled %d", count, full)
		}
	})
}
