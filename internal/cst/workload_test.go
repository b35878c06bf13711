package cst

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fastmatch/graph"
	"fastmatch/internal/order"
)

// makeSyntheticCST builds a CST directly from explicit candidate sets and
// tree adjacency, for paper-exact tests of the workload DP and partitioner
// (Fig. 4 does not correspond to the Fig. 1 data graph).
//
// cands[u] lists data vertices; adjOut maps "from,to" pairs to per-candidate
// target index lists.
func makeSyntheticCST(q *graph.Query, tr *order.Tree, cands [][]graph.VertexID, adjPairs map[[2]graph.QueryVertex][][]CandIndex) *CST {
	c := newCST(q, tr)
	c.Cand = cands
	for pair, lists := range adjPairs {
		a := Adj{Offsets: make([]int32, len(cands[pair[0]])+1)}
		for i, targets := range lists {
			a.Targets = append(a.Targets, targets...)
			a.Offsets[i+1] = int32(len(a.Targets))
		}
		c.setAdj(pair[0], pair[1], a)
		// Mirror.
		rev := Adj{Offsets: make([]int32, len(cands[pair[1]])+1)}
		buckets := make([][]CandIndex, len(cands[pair[1]]))
		for i, targets := range lists {
			for _, j := range targets {
				buckets[j] = append(buckets[j], CandIndex(i))
			}
		}
		for j, b := range buckets {
			rev.Targets = append(rev.Targets, b...)
			rev.Offsets[j+1] = int32(len(rev.Targets))
		}
		c.setAdj(pair[1], pair[0], rev)
	}
	// Adjacency was installed directly, bypassing the arena assembler that
	// normally folds in the partition statistics.
	c.recomputeStats()
	return c
}

// fig4CST reproduces the CST of Fig. 4(a): tree u0→{u1,u2}, u1→u3;
// candidates C(u0)={v1,v2}, C(u1)={v3,v4,v5}, C(u2)={v6,v7,v8},
// C(u3)={v9,v10}; adjacency per Example 3/4.
func fig4CST() *CST {
	// Query shaped so its BFS tree from u0 is u0→{u1,u2}, u1→u3.
	q := graph.MustQuery("fig4", []graph.Label{0, 1, 2, 3},
		[][2]graph.QueryVertex{{0, 1}, {0, 2}, {1, 3}})
	tr := order.BuildBFSTree(q, 0)
	cands := [][]graph.VertexID{
		{1, 2},    // C(u0): v1 v2
		{3, 4, 5}, // C(u1): v3 v4 v5
		{6, 7, 8}, // C(u2): v6 v7 v8
		{9, 10},   // C(u3): v9 v10
	}
	adj := map[[2]graph.QueryVertex][][]CandIndex{
		{0, 1}: {{0, 2}, {0, 1}},   // v1→{v3,v5}, v2→{v3,v4}
		{0, 2}: {{0, 2}, {1}},      // v1→{v6,v8}, v2→{v7}
		{1, 3}: {{0}, {0, 1}, {1}}, // v3→{v9}, v4→{v9,v10}, v5→{v10}
	}
	return makeSyntheticCST(q, tr, cands, adj)
}

func TestWorkloadMatchesPaperExample4(t *testing.T) {
	c := fig4CST()
	flat, off := perCandidateWorkload(c, nil, nil, nil)
	table := make([][]float64, len(off)-1)
	for u := range table {
		table[u] = flat[off[u]:off[u+1]]
	}
	// Leaves: c_{u3}(v9)=c_{u3}(v10)=1, c_{u2}(*)=1.
	for _, v := range table[3] {
		if v != 1 {
			t.Errorf("u3 leaf workload %v, want 1", table[3])
		}
	}
	for _, v := range table[2] {
		if v != 1 {
			t.Errorf("u2 leaf workload %v, want 1", table[2])
		}
	}
	// c_{u1} = [1, 2, 1] (v3, v4, v5).
	wantU1 := []float64{1, 2, 1}
	for i, w := range wantU1 {
		if table[1][i] != w {
			t.Errorf("c_u1[%d] = %v, want %v", i, table[1][i], w)
		}
	}
	// c_{u0}(v1) = 4, c_{u0}(v2) = 3; W = 7.
	if table[0][0] != 4 || table[0][1] != 3 {
		t.Errorf("c_u0 = %v, want [4 3]", table[0])
	}
	if w := EstimateWorkload(c); w != 7 {
		t.Errorf("W_CST = %v, want 7", w)
	}
	// The flat table is the estimate's only allocation.
	if n := testing.AllocsPerRun(10, func() { EstimateWorkload(c) }); n != 1 {
		t.Errorf("EstimateWorkload allocates %v times, want 1", n)
	}
}

func TestWorkloadAgreesWithBruteTreeCount(t *testing.T) {
	c := fig4CST()
	if got, want := countTreeEmbeddings(c), int64(7); got != want {
		t.Errorf("countTreeEmbeddings = %d, want %d", got, want)
	}
}

// Property: on real CSTs built from random graphs, the DP equals the
// explicit tree-mapping count.
func TestWorkloadDPEqualsEnumerationProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomUniform(graph.GenConfig{
			NumVertices: 40 + rng.Intn(60),
			NumLabels:   2 + rng.Intn(3),
			AvgDegree:   2 + rng.Float64()*3,
			Seed:        seed,
		})
		q := graph.RandomConnectedQuery("rq", 2+rng.Intn(3), rng.Intn(2), g.NumLabels(), rng)
		tr := order.BuildBFSTree(q, 0)
		c := Build(q, g, tr)
		dp := EstimateWorkload(c)
		brute := float64(countTreeEmbeddings(c))
		return math.Abs(dp-brute) < 1e-6*(1+brute)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// A WorkloadTable carried across CSTs whose Σ|C(u)| grows and shrinks
// prices each exactly as a fresh EstimateWorkload does — a stale row from a
// larger CST never leaks in — and once it has seen the largest, pricing the
// whole sequence again allocates nothing.
func TestWorkloadTableReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var cs []*CST
	sizes := map[int]bool{}
	for len(cs) < 12 {
		g := graph.RandomUniform(graph.GenConfig{
			NumVertices: 40 + rng.Intn(120), NumLabels: 2, AvgDegree: 2 + rng.Float64()*4, Seed: rng.Int63(),
		})
		q := graph.RandomConnectedQuery("rq", 2+rng.Intn(4), rng.Intn(2), g.NumLabels(), rng)
		c := Build(q, g, order.BuildBFSTree(q, 0))
		n := 0
		for _, cands := range c.Cand {
			n += len(cands)
		}
		sizes[n] = true
		cs = append(cs, c)
	}
	if len(sizes) < 6 {
		t.Fatalf("only %d distinct table sizes across %d CSTs; the sequence does not grow and shrink", len(sizes), len(cs))
	}
	var wt WorkloadTable
	for i, c := range cs {
		if got, want := wt.Estimate(c), EstimateWorkload(c); got != want {
			t.Errorf("CST %d: reused table estimates %v, fresh %v", i, got, want)
		}
	}
	if n := testing.AllocsPerRun(5, func() {
		for _, c := range cs {
			wt.Estimate(c)
		}
	}); n != 0 {
		t.Errorf("a warm WorkloadTable allocates %v times per pass; want 0", n)
	}
}

// Workload is an upper bound on the true embedding count (false positives
// are ignored, never true positives).
func TestWorkloadUpperBoundsEmbeddings(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomUniform(graph.GenConfig{
			NumVertices: 80, NumLabels: 2, AvgDegree: 4, Seed: seed,
		})
		q := graph.RandomConnectedQuery("rq", 3, rng.Intn(2), 2, rng)
		tr := order.BuildBFSTree(q, 0)
		c := Build(q, g, tr)
		o := order.PathBased(tr, c)
		return EstimateWorkload(c) >= float64(Count(c, o))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// countTreeEmbeddings counts tree mappings by explicit one-at-a-time
// backtracking (no dynamic programming, no products): every assignment of a
// candidate to each query vertex such that tree edges are respected counts
// once. Tests use it as an independent check of the workload estimator.
// Only safe on small CSTs.
func countTreeEmbeddings(c *CST) int64 {
	t := c.Tree
	assigned := make([]CandIndex, c.Query.NumVertices())
	var total int64
	var rec func(pos int)
	rec = func(pos int) {
		if pos == len(t.BFSOrder) {
			total++
			return
		}
		u := t.BFSOrder[pos]
		if u == t.Root {
			for i := range c.Cand[u] {
				assigned[u] = CandIndex(i)
				rec(pos + 1)
			}
			return
		}
		up := t.Parent[u]
		for _, k := range c.Adjacency(up, u, assigned[up]) {
			assigned[u] = k
			rec(pos + 1)
		}
	}
	rec(0)
	return total
}
