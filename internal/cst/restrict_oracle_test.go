package cst

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fastmatch/graph"
	"fastmatch/internal/fpgasim"
	"fastmatch/internal/order"
	"fastmatch/ldbc"
)

// restrictOracle restricts cur to the chunk of C(u) the straightforward
// way, in time proportional to the parent: it walks every parent candidate
// of each changed vertex into a remap table (−1 for a dropped candidate),
// then rebuilds both directions of every query edge with a changed endpoint
// from every parent row, independently. Edges with no changed endpoint
// alias the parent's views. It is the oracle for restrict.
func restrictOracle(cur *CST, u graph.QueryVertex, chunk [2]int) *CST {
	t := cur.Tree
	n := cur.Query.NumVertices()
	inSub := make([]bool, n)
	markSubtree(t, u, inSub)
	kept := make([][]bool, n)
	for w := 0; w < n; w++ {
		if inSub[w] {
			kept[w] = make([]bool, len(cur.Cand[w]))
		}
	}
	for i := chunk[0]; i < chunk[1]; i++ {
		kept[u][i] = true
	}
	for _, w := range t.BFSOrder {
		if !inSub[w] || w == u {
			continue
		}
		adj := cur.Edge(t.Parent[w], w)
		for pi, ok := range kept[t.Parent[w]] {
			if !ok {
				continue
			}
			for _, ci := range adj.Neighbors(CandIndex(pi)) {
				kept[w][ci] = true
			}
		}
	}

	part := newCST(cur.Query, t)
	changed := make([]bool, n)
	remap := make([][]CandIndex, n)
	for w := 0; w < n; w++ {
		part.Cand[w] = cur.Cand[w]
		if !inSub[w] {
			continue
		}
		var cands []graph.VertexID
		remap[w] = make([]CandIndex, len(cur.Cand[w]))
		for i, v := range cur.Cand[w] {
			remap[w][i] = -1
			if kept[w][i] {
				remap[w][i] = CandIndex(len(cands))
				cands = append(cands, v)
			}
		}
		if len(cands) != len(cur.Cand[w]) {
			changed[w] = true
			part.Cand[w] = cands
		}
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			a := cur.Edge(from, to)
			if !a.Valid() {
				continue
			}
			if !changed[from] && !changed[to] {
				part.setAdj(from, to, a)
				continue
			}
			b := Adj{Offsets: make([]int32, len(part.Cand[from])+1)}
			for i := range cur.Cand[from] {
				ni := CandIndex(i)
				if changed[from] {
					if ni = remap[from][i]; ni < 0 {
						continue
					}
				}
				for _, j := range a.Neighbors(CandIndex(i)) {
					nj := j
					if changed[to] {
						if nj = remap[to][j]; nj < 0 {
							continue
						}
					}
					b.Targets = append(b.Targets, nj)
				}
				b.Offsets[ni+1] = int32(len(b.Targets))
			}
			part.setAdj(from, to, b)
		}
	}
	part.recomputeStats()
	return part
}

// restrict builds the piece of cur with C(u) cut to chunk, running the
// count and build phases back to back as Partition does for a piece it
// hands out. It returns nil when sc's cancel hook fired; the piece must not
// be empty.
func restrict(cur *CST, u graph.QueryVertex, chunk [2]int, sc *restrictScratch) *CST {
	if !sc.count(cur, u, chunk) {
		return nil
	}
	if sc.empty {
		panic("restrict: empty piece")
	}
	return sc.build()
}

// partitionOracle is Algorithm 2's recursion as Partition ran it before
// pieces were counted before being built (without cancellation): every
// piece is cut from its parent by restrictOracle and built, and steal, when
// non-nil, is offered each built piece that still violates a threshold.
func partitionOracle(c *CST, o order.Order, cfg PartitionConfig, steal func(*CST) bool, process func(*CST)) int {
	count := 0
	var rec func(cur *CST, index int)
	rec = func(cur *CST, index int) {
		if cfg.Fits(cur) || index >= len(o) {
			process(cur)
			count++
			return
		}
		if steal != nil && steal(cur) {
			count++
			return
		}
		u := o[index]
		k := min(cfg.partitionFactor(cur.SizeBytes(), cur.MaxCandDegree()), len(cur.Cand[u]))
		if k <= 1 {
			rec(cur, index+1)
			return
		}
		for i := 0; i < k; i++ {
			if cfg.cancelled() {
				return
			}
			part := restrictOracle(cur, u, evenChunk(len(cur.Cand[u]), k, i))
			switch {
			case part.IsEmpty():
			case cfg.Fits(part):
				process(part)
				count++
			case len(part.Cand[u]) == 1:
				rec(part, index+1)
			default:
				rec(part, index)
			}
		}
	}
	rec(c, 0)
	return count
}

// oracleEvent is one step a partitioner takes, in order: a processed piece
// or a Steal offer, with its price and whether it was taken. piece is nil
// for an offer Partition declined, which it never builds.
type oracleEvent struct {
	piece  *CST
	offer  bool
	price  float64
	stolen bool
}

// stealPolicy decides offer n (counting from 1): with stealEveryOther the
// second, fourth, ... offer is taken, otherwise none.
func stealPolicy(stealEveryOther bool, n int) bool { return stealEveryOther && n%2 == 0 }

// recordPartition runs Partition over c — on the scratch s, or a pooled one
// when s is nil — with a Steal hook that prices every offer, takes the ones
// stealPolicy picks and builds only those, and returns every processed
// piece and offer in order.
func recordPartition(s *partitionScratch, c *CST, o order.Order, cfg PartitionConfig, stealEveryOther bool) ([]oracleEvent, int) {
	var events []oracleEvent
	offers := 0
	cfg.Steal = func(of Offer) bool {
		offers++
		ev := oracleEvent{offer: true, price: of.Workload, stolen: stealPolicy(stealEveryOther, offers)}
		if ev.stolen {
			ev.piece = of.Build()
		}
		events = append(events, ev)
		return ev.stolen
	}
	process := func(p *CST) { events = append(events, oracleEvent{piece: p}) }
	var n int
	if s == nil {
		n = Partition(c, o, cfg, process)
	} else {
		n = s.partition(c, o, cfg, process)
	}
	return events, n
}

// recordOracle is recordPartition for partitionOracle: each offer is a
// built piece, priced by EstimateWorkload.
func recordOracle(c *CST, o order.Order, cfg PartitionConfig, stealEveryOther bool) ([]oracleEvent, int) {
	var events []oracleEvent
	offers := 0
	steal := func(p *CST) bool {
		offers++
		ev := oracleEvent{piece: p, offer: true, price: EstimateWorkload(p), stolen: stealPolicy(stealEveryOther, offers)}
		events = append(events, ev)
		return ev.stolen
	}
	n := partitionOracle(c, o, cfg, steal, func(p *CST) { events = append(events, oracleEvent{piece: p}) })
	return events, n
}

// requireOracleSequence fails unless Partition and partitionOracle hand out
// the same sequence of pieces and Steal offers — each offer priced bit for
// bit as EstimateWorkload of the oracle's piece, each handed-out piece
// structurally identical with the same partition statistics — and returns
// the number of pieces.
func requireOracleSequence(t *testing.T, c *CST, o order.Order, cfg PartitionConfig, stealEveryOther bool) int {
	t.Helper()
	return requireOracleSequenceOn(t, nil, c, o, cfg, stealEveryOther)
}

// requireOracleSequenceOn is requireOracleSequence with Partition run on
// the scratch s (a pooled one when s is nil).
func requireOracleSequenceOn(t *testing.T, s *partitionScratch, c *CST, o order.Order, cfg PartitionConfig, stealEveryOther bool) int {
	t.Helper()
	got, gotN := recordPartition(s, c, o, cfg, stealEveryOther)
	want, wantN := recordOracle(c, o, cfg, stealEveryOther)
	if gotN != wantN {
		t.Fatalf("Partition returned %d, oracle %d", gotN, wantN)
	}
	requireSameEvents(t, got, want)
	return gotN
}

// requireSameEvents fails unless got and want are the same event sequence.
func requireSameEvents(t *testing.T, got, want []oracleEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d events, oracle %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.offer != w.offer || g.stolen != w.stolen {
			t.Fatalf("event %d: offer/stolen %v/%v, oracle %v/%v", i, g.offer, g.stolen, w.offer, w.stolen)
		}
		if math.Float64bits(g.price) != math.Float64bits(w.price) {
			t.Fatalf("event %d: offer priced %v, oracle's piece %v", i, g.price, w.price)
		}
		if g.offer && !g.stolen {
			continue
		}
		requireSameCST(t, w.piece, g.piece)
		if g.piece.SizeBytes() != w.piece.SizeBytes() || g.piece.MaxCandDegree() != w.piece.MaxCandDegree() {
			t.Fatalf("event %d: size/maxDeg %d/%d, oracle %d/%d", i,
				g.piece.SizeBytes(), g.piece.MaxCandDegree(), w.piece.SizeBytes(), w.piece.MaxCandDegree())
		}
	}
}

// cardPartition returns the thresholds the host derives for an nq-vertex
// query on a card of bram bytes with a 32-slot batch: δS is the BRAM left
// beside the partial-results buffer, δD the default port budget.
func cardPartition(bram int64, nq int) PartitionConfig {
	dev := fpgasim.Config{BRAMBytes: bram, No: 32}
	return PartitionConfig{MaxSizeBytes: max(bram-dev.BufferBytes(nq), 1024), MaxCandDegree: 512}
}

// TestPartitionMatchesRestrictOracle: Partition, which counts a piece
// before building it, builds only the pieces it hands out, cuts a re-split
// piece's chunks from its last built ancestor and derives each reverse
// direction by transpose, hands out exactly the piece sequence of the same
// recursion over restrictOracle, which builds every piece from its parent —
// same candidates, offsets, targets, per-view longest rows, SizeBytes and
// MaxCandDegree — and makes the same Steal offers, each priced as the
// oracle's piece. It runs on LDBC at both modelled cards, random graphs,
// edge- and arc-labelled graphs, fixed partition factors and degree splits
// (with and without a size budget), with a Steal hook that prices and
// declines every offer, or takes every other one.
func TestPartitionMatchesRestrictOracle(t *testing.T) {
	cards := []int64{32 << 10, 64 << 10}
	t.Run("ldbc", func(t *testing.T) {
		for _, sc := range []struct {
			base    int
			queries []string
		}{
			{200, []string{"q0", "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8"}},
			{1600, []string{"q1", "q3", "q5", "q8"}},
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
				for _, bram := range cards {
					t.Run(fmt.Sprintf("base=%d/%s/%dKiB", sc.base, name, bram>>10), func(t *testing.T) {
						n := requireOracleSequence(t, c, o, cardPartition(bram, q.NumVertices()), false)
						t.Logf("%d pieces", n)
					})
				}
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		q1, err := ldbc.QueryByName("q1")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		pieces := 0
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
				c := Build(q, g, tr)
				if c.IsEmpty() {
					continue
				}
				o := order.PathBased(tr, c)
				cfg := PartitionConfig{MaxSizeBytes: c.SizeBytes()/8 + 64, MaxCandDegree: 16}
				pieces += requireOracleSequence(t, c, o, cfg, i%2 == 1)
			}
		}
		t.Logf("%d pieces", pieces)
		if pieces == 0 {
			t.Fatal("no pieces checked")
		}
	})
	t.Run("edge-labeled", func(t *testing.T) {
		pieces := 0
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
			c := Build(q, g, tr)
			if c.IsEmpty() {
				continue
			}
			o := order.PathBased(tr, c)
			cfg := PartitionConfig{MaxSizeBytes: c.SizeBytes()/4 + 64, MaxCandDegree: 4}
			pieces += requireOracleSequence(t, c, o, cfg, false)
		}
		t.Logf("%d pieces", pieces)
		if pieces == 0 {
			t.Fatal("no pieces checked")
		}
	})
	t.Run("fixed-k-degree-steal", func(t *testing.T) {
		g := ldbc.Generate(ldbc.Config{BasePersons: 200, Seed: 42})
		for _, name := range []string{"q1", "q3", "q5"} {
			q, err := ldbc.QueryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
			c := Build(q, g, tr)
			o := order.PathBased(tr, c)
			base := cardPartition(32<<10, q.NumVertices())
			for _, k := range []int{2, 3, 7} {
				cfg := base
				cfg.FixedK = k
				requireOracleSequence(t, c, o, cfg, false)
			}
			degree := PartitionConfig{MaxSizeBytes: 1 << 40, MaxCandDegree: 8}
			if degree.Fits(c) {
				t.Fatalf("%s: δD 8 does not force a degree split", name)
			}
			requireOracleSequence(t, c, o, degree, false)
			requireOracleSequence(t, c, o, base, true)
			// With no size budget nothing fits, and a piece a degree split
			// leaves within δD cannot be split again at its position: it is
			// built and moves on.
			requireOracleSequence(t, c, o, PartitionConfig{MaxCandDegree: 16}, true)
		}
	})
}

// TestPartitionMatchesRestrictOracleScratchReuse: one partition scratch
// serves three CSTs in turn — LDBC q5, a 3-vertex query on a small random
// graph, then LDBC q3, on the 32 KiB card — so between counts both |V(q)|
// and the candidate sets the kept bitsets cover shrink and grow, and a bit
// one count leaves set must never read as kept in the next. Every piece
// handed out and every Steal price must still be the oracle's.
func TestPartitionMatchesRestrictOracleScratchReuse(t *testing.T) {
	type step struct {
		name string
		c    *CST
	}
	ldbcStep := func(g *graph.Graph, name string) step {
		q, err := ldbc.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return step{name, Build(q, g, order.BuildBFSTree(q, order.SelectRoot(q, g)))}
	}
	g := ldbc.Generate(ldbc.Config{BasePersons: 400, Seed: 42})
	small := graph.RandomUniform(graph.GenConfig{NumVertices: 300, NumLabels: 1, AvgDegree: 12, Seed: 5})
	path := graph.MustQuery("path3", []graph.Label{0, 0, 0}, [][2]graph.QueryVertex{{0, 1}, {1, 2}})
	steps := []step{
		ldbcStep(g, "q5"),
		{"path3", Build(path, small, order.BuildBFSTree(path, 1))},
		ldbcStep(g, "q3"),
	}
	s := new(partitionScratch)
	for i, st := range steps {
		n := st.c.Query.NumVertices()
		maxCand := 0
		for _, cs := range st.c.Cand {
			maxCand = max(maxCand, len(cs))
		}
		o := order.PathBased(st.c.Tree, st.c)
		pieces := requireOracleSequenceOn(t, s, st.c, o, cardPartition(32<<10, n), i == 1)
		t.Logf("%s: |V(q)| %d, largest |C(w)| %d, %d pieces", st.name, n, maxCand, pieces)
		if pieces < 2 {
			t.Fatalf("%s: %d pieces; the card does not split it", st.name, pieces)
		}
	}
}
