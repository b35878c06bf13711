package cst

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"fastmatch/graph"
	"fastmatch/internal/order"
	"fastmatch/ldbc"
)

// requireRecycledEvents fails unless partition, a Partition call with the
// given Steal hook and process callback, recycles every piece it hands out
// and still hands out the oracle's events want and piece count wantN. Each
// piece is compared with the oracle's as it is handed out, then held while
// lag more are handed out and compared again before it is recycled: a
// piece whose storage — or an ancestor's it aliases — was built into while
// it was held no longer matches. The Steal hook prices every offer and
// takes the ones stealPolicy picks, which it recycles the same way.
func requireRecycledEvents(t *testing.T, partition func(steal func(Offer) bool, process func(*CST)) int, stealEveryOther bool, lag int, want []oracleEvent, wantN int) {
	t.Helper()
	type held struct {
		piece *CST
		event int
	}
	var window []held
	next, offers := 0, 0
	compare := func(h held) {
		t.Helper()
		w := want[h.event]
		requireSameCST(t, w.piece, h.piece)
		if h.piece.SizeBytes() != w.piece.SizeBytes() || h.piece.MaxCandDegree() != w.piece.MaxCandDegree() {
			t.Fatalf("event %d: size/maxDeg %d/%d, oracle %d/%d", h.event,
				h.piece.SizeBytes(), h.piece.MaxCandDegree(), w.piece.SizeBytes(), w.piece.MaxCandDegree())
		}
	}
	hold := func(p *CST) {
		t.Helper()
		h := held{p, next}
		next++
		compare(h)
		window = append(window, h)
		if len(window) > lag {
			compare(window[0])
			window[0].piece.Recycle()
			window = window[1:]
		}
	}
	event := func(offer bool) oracleEvent {
		t.Helper()
		if next >= len(want) {
			t.Fatalf("event %d: the oracle has only %d", next, len(want))
		}
		if w := want[next]; w.offer != offer {
			t.Fatalf("event %d: offer %v, oracle %v", next, offer, w.offer)
		}
		return want[next]
	}
	steal := func(of Offer) bool {
		offers++
		w := event(true)
		if math.Float64bits(of.Workload) != math.Float64bits(w.price) {
			t.Fatalf("event %d: offer priced %v, oracle's piece %v", next, of.Workload, w.price)
		}
		if !stealPolicy(stealEveryOther, offers) {
			next++
			return false
		}
		hold(of.Build())
		return true
	}
	n := partition(steal, func(p *CST) {
		event(false)
		hold(p)
	})
	for _, h := range window {
		compare(h)
		h.piece.Recycle()
	}
	if n != wantN || next != len(want) {
		t.Fatalf("lag %d: Partition returned %d after %d events, oracle %d after %d", lag, n, next, wantN, len(want))
	}
}

// TestPartitionMatchesRestrictOracleRecycled: Partition, building into the
// pieces recycled before, still hands out exactly the oracle's pieces and
// offers — each recycled as soon as it has been compared, or held while
// three more are handed out — with a Steal hook that declines every offer,
// or takes every other one and recycles it too. It runs on LDBC at both
// modelled cards, random graphs and edge- and arc-labelled graphs.
func TestPartitionMatchesRestrictOracleRecycled(t *testing.T) {
	check := func(t *testing.T, c *CST, o order.Order, cfg PartitionConfig) int {
		t.Helper()
		partition := func(steal func(Offer) bool, process func(*CST)) int {
			cfg.Steal = steal
			return Partition(c, o, cfg, process)
		}
		n := 0
		for _, steal := range []bool{false, true} {
			var want []oracleEvent
			want, n = recordOracle(c, o, cfg, steal)
			for _, lag := range []int{0, 3} {
				requireRecycledEvents(t, partition, steal, lag, want, n)
			}
		}
		return n
	}
	t.Run("ldbc", func(t *testing.T) {
		for _, sc := range []struct {
			base    int
			queries []string
		}{
			{200, []string{"q0", "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8"}},
			{1600, []string{"q1", "q5"}},
		} {
			if sc.base > 200 && testing.Short() {
				continue
			}
			g := ldbc.Generate(ldbc.Config{BasePersons: sc.base, Seed: 42})
			for _, name := range sc.queries {
				q, err := ldbc.QueryByName(name)
				if err != nil {
					t.Fatal(err)
				}
				tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
				c := Build(q, g, tr)
				o := order.PathBased(tr, c)
				for _, bram := range []int64{32 << 10, 64 << 10} {
					t.Run(fmt.Sprintf("base=%d/%s/%dKiB", sc.base, name, bram>>10), func(t *testing.T) {
						t.Logf("%d pieces", check(t, c, o, cardPartition(bram, q.NumVertices())))
					})
				}
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		pieces := 0
		for i, g := range buildRandomGraphs() {
			labels := 1
			for v := 0; v < g.NumVertices(); v++ {
				labels = max(labels, int(g.Label(graph.VertexID(v)))+1)
			}
			q := graph.RandomConnectedQuery(fmt.Sprintf("cyc%d", i), 3+rng.Intn(3), 1+rng.Intn(2), labels, rng)
			tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
			c := Build(q, g, tr)
			if c.IsEmpty() {
				continue
			}
			o := order.PathBased(tr, c)
			pieces += check(t, c, o, PartitionConfig{MaxSizeBytes: c.SizeBytes()/8 + 64, MaxCandDegree: 16})
		}
		t.Logf("%d pieces", pieces)
		if pieces == 0 {
			t.Fatal("no pieces checked")
		}
	})
	t.Run("edge-labeled", func(t *testing.T) {
		pieces := 0
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := randomEdgeLabeled(seed, rng)
			if seed%2 == 0 {
				g = randomArcLabeled(seed, rng)
			}
			q := graph.RandomConnectedQuery("rq", 3+rng.Intn(3), rng.Intn(3), 2, rng)
			for u := 0; u < q.NumVertices(); u++ {
				for _, w := range q.Neighbors(u) {
					if u < w && rng.Intn(2) == 1 {
						if err := q.SetEdgeArcLabels(u, w, graph.EdgeLabel(1+rng.Intn(2)), graph.WildcardEdgeLabel); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			tr := order.BuildBFSTree(q, 0)
			c := Build(q, g, tr)
			if c.IsEmpty() {
				continue
			}
			o := order.PathBased(tr, c)
			pieces += check(t, c, o, PartitionConfig{MaxSizeBytes: c.SizeBytes()/4 + 64, MaxCandDegree: 4})
		}
		t.Logf("%d pieces", pieces)
		if pieces == 0 {
			t.Fatal("no pieces checked")
		}
	})
}

// TestRecycleLeavesBuiltCSTAlone: Recycle is a no-op on a CST Partition did
// not build — Build's, and the input handed out whole, to process because
// it fits or to a Steal hook that takes it — which stays valid with the
// same count, also after later Partition calls built into recycled pieces.
// A built piece given to Partition as its input stays its caller's too.
func TestRecycleLeavesBuiltCSTAlone(t *testing.T) {
	c, o, cfg := ldbcCST(t, "q5")
	want := Count(c, o)
	c.Recycle()

	whole := cfg
	whole.MaxSizeBytes, whole.MaxCandDegree = c.SizeBytes(), c.MaxCandDegree()
	var got *CST
	if n := Partition(c, o, whole, func(p *CST) { got = p; p.Recycle() }); n != 1 || got != c {
		t.Fatalf("a fitting CST: %d pieces, handed out whole %v; want 1, true", n, got == c)
	}
	stealAll := cfg
	stealAll.Steal = func(of Offer) bool {
		got = of.Build()
		got.Recycle()
		return true
	}
	if n := Partition(c, o, stealAll, func(*CST) {}); n != 1 || got != c {
		t.Fatalf("a CST stolen at once: %d pieces, handed out whole %v; want 1, true", n, got == c)
	}

	for round := 0; round < 3; round++ {
		var sum int64
		Partition(c, o, cfg, func(p *CST) {
			sum += Count(p, o)
			p.Recycle()
		})
		if sum != want {
			t.Fatalf("round %d: pieces sum to %d, want %d", round, sum, want)
		}
	}
	if err := c.Validate(nil); err != nil {
		t.Fatalf("recycled input: %v", err)
	}
	if got := Count(c, o); got != want {
		t.Fatalf("recycled input counts %d, want %d", got, want)
	}

	// A built piece partitioned again is its caller's until the caller
	// recycles it.
	var piece *CST
	Partition(c, o, cfg, func(p *CST) {
		if piece == nil || p.SizeBytes() > piece.SizeBytes() {
			piece = p
		}
	})
	wantPiece := Count(piece, o)
	tight := cfg
	tight.MaxSizeBytes = piece.SizeBytes()/3 + 64
	for round := 0; round < 3; round++ {
		var sum int64
		n := Partition(piece, o, tight, func(p *CST) {
			sum += Count(p, o)
			p.Recycle()
		})
		if n < 2 || sum != wantPiece {
			t.Fatalf("round %d: the piece split into %d summing to %d, want >= 2 summing to %d", round, n, sum, wantPiece)
		}
	}
	if err := piece.Validate(nil); err != nil {
		t.Fatalf("a piece partitioned again: %v", err)
	}
	if got := Count(piece, o); got != wantPiece {
		t.Fatalf("a piece partitioned again counts %d, want %d", got, wantPiece)
	}
	piece.Recycle()
}

// TestPartitionRecycledInParallelMatchesCount: pieces enumerated and
// recycled on other goroutines while Partition keeps building into the
// ones recycled before — what the host's offload workers do — sum to the
// whole CST's count on the LDBC queries, with a Steal hook that declines
// every offer or takes every other one. Run under -race this also proves
// that a recycled piece, or an ancestor once its last piece is recycled,
// is built into only after every read of it.
func TestPartitionRecycledInParallelMatchesCount(t *testing.T) {
	for _, name := range []string{"q1", "q2", "q3", "q4", "q5"} {
		c, o, cfg := ldbcCST(t, name)
		want := Count(c, o)
		for round := 0; round < 4; round++ {
			pieces := make(chan *CST) // unbuffered: the producer waits for a free consumer
			var total atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for p := range pieces {
						total.Add(Enumerate(p, o, nil))
						p.Recycle()
					}
				}()
			}
			cfg.Steal = nil
			if round%2 == 1 {
				offers := 0
				cfg.Steal = func(of Offer) bool {
					if offers++; offers%2 == 1 {
						return false
					}
					pieces <- of.Build()
					return true
				}
			}
			n := Partition(c, o, cfg, func(p *CST) { pieces <- p })
			close(pieces)
			wg.Wait()
			if n < 2 {
				t.Fatalf("%s: only %d pieces; config not tight enough to recycle", name, n)
			}
			if got := total.Load(); got != want {
				t.Errorf("%s round %d: recycled pieces sum to %d, want %d", name, round, got, want)
			}
		}
	}
}
