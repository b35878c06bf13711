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
// queries and for any pool size. Run under -race this also proves the pieces
// are consumed without shared-state races.
func TestEnumerateParallelMatchesSequential(t *testing.T) {
	for _, name := range []string{"q1", "q2", "q3", "q4", "q5"} {
		c, o, cfg := ldbcCST(t, name)
		want := Count(c, o)
		var seqSum int64
		seqParts := Partition(c, o, cfg, func(p *CST) { seqSum += Enumerate(p, o, nil) })
		if seqSum != want {
			t.Fatalf("%s: partitioned sequential sum %d, want %d", name, seqSum, want)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			var total atomic.Int64
			var wg sync.WaitGroup
			PartitionConcurrent(c, o, cfg, workers, func(p *CST) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					total.Add(Enumerate(p, o, nil))
				}()
			})
			wg.Wait()
			if got := total.Load(); got != want {
				t.Errorf("%s workers=%d: pieces enumerated in parallel sum to %d, want %d", name, workers, got, want)
			}
		}
		if seqParts < 2 {
			t.Errorf("%s: only %d partitions — config not tight enough to exercise the pool", name, seqParts)
		}
	}
}

// TestPartitionParallelDeterministic: the concurrent producer delivers the
// same pieces in the same order as Partition — compared here by per-piece
// embedding count — at every pool size and on every run.
func TestPartitionParallelDeterministic(t *testing.T) {
	c, o, cfg := ldbcCST(t, "q2")
	var seq []int64
	seqN := Partition(c, o, cfg, func(p *CST) { seq = append(seq, Enumerate(p, o, nil)) })
	for _, workers := range []int{2, 4, 4} {
		var par []int64
		parN := PartitionConcurrent(c, o, cfg, workers, func(p *CST) { par = append(par, Enumerate(p, o, nil)) })
		if parN != seqN || len(par) != len(seq) {
			t.Fatalf("workers=%d: %d pieces (%d processed), sequential %d (%d)", workers, parN, len(par), seqN, len(seq))
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d: piece %d has %d embeddings, sequential %d", workers, i, par[i], seq[i])
			}
		}
	}
}

// TestPartitionParallelSinglePiece: more workers than pieces degrades
// gracefully — the unsplit CST comes back as the one piece.
func TestPartitionParallelSinglePiece(t *testing.T) {
	c, o, _ := ldbcCST(t, "q1")
	loose := PartitionConfig{MaxSizeBytes: 1 << 40, MaxCandDegree: 1 << 30}
	want := Count(c, o)
	var got int64
	if n := PartitionConcurrent(c, o, loose, 8, func(p *CST) { got += Enumerate(p, o, nil) }); n != 1 {
		t.Errorf("loose thresholds produced %d pieces, want 1", n)
	}
	if got != want {
		t.Errorf("single-piece count %d, want %d", got, want)
	}
}

// TestPartitionConcurrentMatchesSequentialLDBC is the PR's acceptance gate:
// for every LDBC benchmark query, the concurrent producer — every pool size —
// yields exactly the sequential Partition's piece count and embedding
// totals. The CI -race job runs this, so it also proves the producer is
// race-clean while pieces are enumerated on the draining goroutine.
func TestPartitionConcurrentMatchesSequentialLDBC(t *testing.T) {
	for _, name := range []string{"q1", "q2", "q3", "q4", "q5"} {
		c, o, cfg := ldbcCST(t, name)
		want := Count(c, o)
		var seqSum int64
		seqN := Partition(c, o, cfg, func(p *CST) { seqSum += Enumerate(p, o, nil) })
		if seqSum != want {
			t.Fatalf("%s: sequential union %d, want %d", name, seqSum, want)
		}
		for _, workers := range []int{1, 2, 4} {
			var sum int64
			n := PartitionConcurrent(c, o, cfg, workers, func(p *CST) { sum += Enumerate(p, o, nil) })
			if sum != want {
				t.Errorf("%s workers=%d: union %d, want %d", name, workers, sum, want)
			}
			if n != seqN {
				t.Errorf("%s workers=%d: %d pieces, sequential %d", name, workers, n, seqN)
			}
		}
	}
}

// TestPartitionConcurrentPieceMultisetMatches: beyond totals, the multiset
// of per-piece embedding counts from the concurrent producer equals the
// sequential one — the pieces themselves are identical.
func TestPartitionConcurrentPieceMultisetMatches(t *testing.T) {
	c, o, cfg := ldbcCST(t, "q2")
	counts := func(run func(process func(*CST)) int) map[int64]int {
		m := make(map[int64]int)
		run(func(p *CST) { m[Enumerate(p, o, nil)]++ })
		return m
	}
	seq := counts(func(process func(*CST)) int { return Partition(c, o, cfg, process) })
	par := counts(func(process func(*CST)) int {
		return PartitionConcurrent(c, o, cfg, 4, process)
	})
	if len(seq) != len(par) {
		t.Fatalf("distinct per-piece counts: %d vs %d", len(par), len(seq))
	}
	for n, k := range seq {
		if par[n] != k {
			t.Fatalf("pieces with %d embeddings: %d vs sequential %d", n, par[n], k)
		}
	}
}

// TestPartitionConcurrentBoundsParallelism: however many pool workers
// restrict ahead, process callbacks are delivered one at a time — callers
// (the host's scheduler state) need no locking of their own.
func TestPartitionConcurrentBoundsParallelism(t *testing.T) {
	c, o, cfg := ldbcCST(t, "q3")
	const workers = 3
	var inFlight, peak atomic.Int32
	track := func(p *CST) {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		Enumerate(p, o, nil)
		inFlight.Add(-1)
	}
	PartitionConcurrent(c, o, cfg, workers, track)
	if p := peak.Load(); p > 1 {
		t.Errorf("%d concurrent process calls, want sequential delivery", p)
	}
}

// TestPartitionOrderedStealSkipsSpeculation: once the drain's Steal takes a
// node, speculating workers must skip its descendants instead of
// materialising restricts the drain will discard. The hook holds every
// speculative chunk task at its gate until the root's Steal decision has
// been marked; with the whole tree under a stolen root, no task may then
// proceed to a restrict.
func TestPartitionOrderedStealSkipsSpeculation(t *testing.T) {
	c, o, cfg := ldbcCST(t, "q2")
	if cfg.Fits(c) {
		t.Fatal("root must violate the thresholds for this scenario")
	}
	release := make(chan struct{})
	var restricts atomic.Int32
	testOrderedHook = func(event string) {
		switch event {
		case "chunk-start":
			<-release
		case "chunk-restrict":
			restricts.Add(1)
		case "stolen":
			close(release)
		}
	}
	defer func() { testOrderedHook = nil }()
	stole := false
	cfg.Steal = func(p *CST) bool {
		if stole {
			return false
		}
		stole = true // first offer is the root: take the whole tree
		return true
	}
	pieces := 0
	n := PartitionConcurrent(c, o, cfg, 4, func(*CST) { pieces++ })
	if !stole {
		t.Fatal("Steal was never offered")
	}
	if n != 1 || pieces != 0 {
		t.Fatalf("count=%d pieces=%d after stealing the root, want 1/0", n, pieces)
	}
	if got := restricts.Load(); got != 0 {
		t.Errorf("workers restricted %d chunks under a stolen root, want 0", got)
	}
}

// TestPartitionOrderedStealMidTreeParity: stealing a mid-tree subtree (with
// skip marks active) still delivers every piece outside it, in the exact
// sequential order, with the exact sequential count.
func TestPartitionOrderedStealMidTreeParity(t *testing.T) {
	c, o, cfg := ldbcCST(t, "q3")
	// Sequential reference: accept the third offer.
	runWith := func(run func(PartitionConfig, func(*CST)) int) (pieces []int64, count int) {
		offers := 0
		cfg := cfg
		cfg.Steal = func(p *CST) bool {
			offers++
			return offers == 3
		}
		count = run(cfg, func(p *CST) { pieces = append(pieces, Enumerate(p, o, nil)) })
		return pieces, count
	}
	wantPieces, wantCount := runWith(func(cfg PartitionConfig, process func(*CST)) int {
		return Partition(c, o, cfg, process)
	})
	gotPieces, gotCount := runWith(func(cfg PartitionConfig, process func(*CST)) int {
		return PartitionConcurrent(c, o, cfg, 4, process)
	})
	if gotCount != wantCount {
		t.Fatalf("count %d, sequential %d", gotCount, wantCount)
	}
	if len(gotPieces) != len(wantPieces) {
		t.Fatalf("%d pieces, sequential %d", len(gotPieces), len(wantPieces))
	}
	for i := range gotPieces {
		if gotPieces[i] != wantPieces[i] {
			t.Fatalf("piece %d has %d embeddings, sequential %d", i, gotPieces[i], wantPieces[i])
		}
	}
}
