package cst

import (
	"sync"
	"sync/atomic"
	"testing"

	"fastmatch/internal/order"
	"fastmatch/ldbc"
)

// ldbcCST builds the CST and path order for one benchmark query over a
// small LDBC-like graph, plus a partition config tight enough to force a
// real multi-partition workload.
func ldbcCST(t *testing.T, name string) (*CST, order.Order, PartitionConfig) {
	t.Helper()
	g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 120, Seed: 7})
	q, err := ldbc.QueryByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
	c := Build(q, g, tr)
	o := order.PathBased(tr, c)
	cfg := PartitionConfig{MaxSizeBytes: c.SizeBytes()/6 + 64, MaxCandDegree: 16}
	return c, o, cfg
}

// TestEnumerateParallelMatchesSequential: pieces handed off to other
// goroutines while the producer keeps partitioning — what the host's offload
// workers do — must merge to exactly the sequential totals, both the
// unpartitioned Count and the partition-by-partition sum, on the LDBC
// queries. Run under -race this also proves the pieces are consumed without
// shared-state races.
func TestEnumerateParallelMatchesSequential(t *testing.T) {
	for _, name := range []string{"q1", "q2", "q3", "q4", "q5"} {
		c, o, cfg := ldbcCST(t, name)
		want := Count(c, o)
		var seqSum int64
		seqParts := Partition(c, o, cfg, func(p *CST) { seqSum += Enumerate(p, o, nil) })
		if seqSum != want {
			t.Fatalf("%s: partitioned sequential sum %d, want %d", name, seqSum, want)
		}
		if seqParts < 2 {
			t.Errorf("%s: only %d partitions — config not tight enough to hand pieces off", name, seqParts)
		}
		var total atomic.Int64
		var wg sync.WaitGroup
		Partition(c, o, cfg, func(p *CST) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				total.Add(Enumerate(p, o, nil))
			}()
		})
		wg.Wait()
		if got := total.Load(); got != want {
			t.Errorf("%s: pieces enumerated in parallel sum to %d, want %d", name, got, want)
		}
	}
}

// TestEnumeratorResetReuse: one Enumerator cycled through every partition
// piece must produce the same per-piece counts as a fresh Enumerate call —
// Reset fully re-derives the hoisted CSR state, leaving nothing of the
// previous piece behind.
func TestEnumeratorResetReuse(t *testing.T) {
	c, o, cfg := ldbcCST(t, "q5")
	var e Enumerator
	var reused, fresh int64
	pieces := 0
	Partition(c, o, cfg, func(p *CST) {
		pieces++
		e.Reset(p, o)
		reused += e.Run(nil)
		fresh += Count(p, o)
	})
	if pieces < 2 {
		t.Fatalf("only %d pieces; config not tight enough to exercise reuse", pieces)
	}
	if reused != fresh {
		t.Fatalf("reused enumerator counted %d, fresh Enumerate %d", reused, fresh)
	}
	if want := Count(c, o); reused != want {
		t.Fatalf("piece total %d != unpartitioned count %d", reused, want)
	}
}

// TestEnumeratorRunCounted: RunCounted must stop exactly at the grant
// budget and count only granted embeddings — the δ-share contract
// host.Match's count-only path relies on.
func TestEnumeratorRunCounted(t *testing.T) {
	c, o, _ := ldbcCST(t, "q1")
	total := Count(c, o)
	if total < 10 {
		t.Fatalf("workload too small: %d embeddings", total)
	}
	for _, budget := range []int64{0, 1, total / 2, total, total + 5} {
		var granted int64
		var e Enumerator
		e.Reset(c, o)
		got := e.RunCounted(func() bool {
			if granted >= budget {
				return false
			}
			granted++
			return true
		})
		want := budget
		if want > total {
			want = total
		}
		if got != want {
			t.Errorf("budget %d: RunCounted = %d, want %d", budget, got, want)
		}
	}
}

// TestEnumeratorPooledConcurrentPartition: pooled enumerators draining a
// partition stream on their own goroutines (the host's δ-share shape) must
// agree with the sequential count. Run under -race this covers
// prepared-Enumerator reuse on other goroutines while the partitioner is
// still producing pieces.
func TestEnumeratorPooledConcurrentPartition(t *testing.T) {
	c, o, cfg := ldbcCST(t, "q5")
	want := Count(c, o)
	var pool sync.Pool
	var total atomic.Int64
	var wg sync.WaitGroup
	Partition(c, o, cfg, func(p *CST) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, _ := pool.Get().(*Enumerator)
			if e == nil {
				e = new(Enumerator)
			}
			defer pool.Put(e)
			e.Reset(p, o)
			total.Add(e.Run(nil))
		}()
	})
	wg.Wait()
	if got := total.Load(); got != want {
		t.Fatalf("pooled total %d, want %d", got, want)
	}
}

// TestEnumerateAllocsSteadyState is the CSR/Enumerate allocation gate: after
// a warm-up Reset+Run has sized the Enumerator's hoist buffers, re-running
// the same piece allocates nothing — the prepared shape walks the CST with
// pooled scratch only. A regression here means a per-embedding or per-Reset
// allocation crept back into the hot enumeration loop.
func TestEnumerateAllocsSteadyState(t *testing.T) {
	c, o, _ := ldbcCST(t, "q5")
	var e Enumerator
	e.Reset(c, o)
	want := e.Run(nil)
	if want < 100 {
		t.Fatalf("workload too small for the gate: %d embeddings", want)
	}
	allocs := testing.AllocsPerRun(10, func() {
		e.Reset(c, o)
		if got := e.Run(nil); got != want {
			t.Fatalf("count drifted: %d vs %d", got, want)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state Reset+Run allocates %v times per run; want 0", allocs)
	}
}

// TestPartitionAllocsBounded gates the satellite fix for the carry-over
// allocations: eager stats folding (no per-CST sync.Once) and the reusable
// restrict target buffer. Measured cost is ~13 allocations per emitted piece
// (the piece's own CST, Cand headers, arenas); the memoised/per-piece-CSR
// version cost ~90, so the bound below catches either regression while
// leaving headroom for Go version drift.
func TestPartitionAllocsBounded(t *testing.T) {
	c, o, cfg := ldbcCST(t, "q5")
	pieces := 0
	allocs := testing.AllocsPerRun(5, func() {
		pieces = Partition(c, o, cfg, func(p *CST) {})
	})
	if pieces < 4 {
		t.Fatalf("only %d pieces; config not tight enough for the gate", pieces)
	}
	const perPiece = 30
	if budget := float64(perPiece * pieces); allocs > budget {
		t.Errorf("Partition allocates %v per run for %d pieces (%.1f/piece); want <= %d/piece",
			allocs, pieces, allocs/float64(pieces), perPiece)
	}
}
