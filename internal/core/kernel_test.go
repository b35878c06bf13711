package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fastmatch/graph"
	"fastmatch/internal/cst"
	"fastmatch/internal/fpgasim"
	"fastmatch/internal/order"
)

// fig1Setup builds the paper's Fig. 1 query/data pair and its CST.
func fig1Setup(t testing.TB) (*cst.CST, order.Order, *graph.Graph) {
	t.Helper()
	q := graph.MustQuery("fig1", []graph.Label{0, 1, 2, 3},
		[][2]graph.QueryVertex{{0, 1}, {0, 2}, {1, 2}, {2, 3}})
	labels := []graph.Label{0, 0, 2, 1, 2, 1, 2, 3, 3, 3, 4, 4}
	edges := [][2]graph.VertexID{
		{0, 3}, {0, 2}, {0, 6}, {3, 2}, {2, 8}, {1, 5}, {1, 4},
		{5, 4}, {5, 6}, {4, 9}, {6, 9}, {5, 7}, {6, 10}, {8, 11},
	}
	g, err := graph.FromEdgeList(labels, edges)
	if err != nil {
		t.Fatal(err)
	}
	tr := order.BuildBFSTree(q, 0)
	c := cst.Build(q, g, tr)
	return c, order.Order{0, 1, 2, 3}, g
}

func TestVariantStrings(t *testing.T) {
	want := map[Variant]string{
		VariantDRAM: "FAST-DRAM", VariantBasic: "FAST-BASIC",
		VariantTask: "FAST-TASK", VariantSep: "FAST-SEP",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), s)
		}
	}
	if len(Variants()) != 4 {
		t.Errorf("Variants() = %v", Variants())
	}
}

func TestKernelFindsPaperEmbeddings(t *testing.T) {
	c, o, g := fig1Setup(t)
	for _, v := range Variants() {
		res, err := Run(c, o, Options{Variant: v, Config: fpgasim.DefaultConfig(), Collect: true})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.Count != 2 || len(res.Embeddings) != 2 {
			t.Fatalf("%v: count=%d embeddings=%d, want 2", v, res.Count, len(res.Embeddings))
		}
		for _, e := range res.Embeddings {
			if err := graph.VerifyEmbedding(c.Query, g, e); err != nil {
				t.Errorf("%v: invalid embedding %v: %v", v, e, err)
			}
		}
		if res.Cycles <= 0 || res.Duration <= 0 {
			t.Errorf("%v: cycles=%d duration=%v", v, res.Cycles, res.Duration)
		}
	}
}

func TestKernelEmitCallback(t *testing.T) {
	c, o, _ := fig1Setup(t)
	var got int
	_, err := Run(c, o, Options{
		Variant: VariantSep,
		Config:  fpgasim.DefaultConfig(),
		Emit:    func(graph.Embedding) { got++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("emit called %d times, want 2", got)
	}
}

// TestVariantEquivalenceProperty: all variants find exactly the embedding
// set of the CPU enumerator, on random graphs and queries.
func TestVariantEquivalenceProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomUniform(graph.GenConfig{
			NumVertices: 60 + rng.Intn(100),
			NumLabels:   2 + rng.Intn(3),
			AvgDegree:   2 + rng.Float64()*4,
			Seed:        seed,
		})
		q := graph.RandomConnectedQuery("rq", 2+rng.Intn(4), rng.Intn(3), g.NumLabels(), rng)
		tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
		c := cst.Build(q, g, tr)
		o := order.PathBased(tr, c)
		want := make(map[string]bool)
		for _, e := range cst.CollectAll(c, o) {
			want[e.Key()] = true
		}
		for _, v := range Variants() {
			res, err := Run(c, o, Options{Variant: v, Config: fpgasim.DefaultConfig(), Collect: true})
			if err != nil {
				t.Logf("seed %d %v: %v", seed, v, err)
				return false
			}
			if int(res.Count) != len(want) {
				t.Logf("seed %d %v: count %d want %d", seed, v, res.Count, len(want))
				return false
			}
			for _, e := range res.Embeddings {
				if !want[e.Key()] {
					t.Logf("seed %d %v: extra embedding %v", seed, v, e)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCycleOrdering: the paper's optimisation ladder must hold cycle-wise on
// every input: SEP ≤ TASK ≤ BASIC ≤ DRAM (DRAM pays latency on every CST
// access; BASIC pays a one-off load instead).
func TestCycleOrdering(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomPowerLaw(graph.GenConfig{
			NumVertices: 150 + rng.Intn(150),
			NumLabels:   2 + rng.Intn(2),
			AvgDegree:   4 + rng.Float64()*4,
			Seed:        seed,
		})
		q := graph.RandomConnectedQuery("rq", 3+rng.Intn(3), 1+rng.Intn(2), g.NumLabels(), rng)
		tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
		c := cst.Build(q, g, tr)
		o := order.PathBased(tr, c)
		cycles := make(map[Variant]int64)
		for _, v := range Variants() {
			res, err := Run(c, o, Options{Variant: v, Config: fpgasim.DefaultConfig()})
			if err != nil {
				t.Logf("seed %d %v: %v", seed, v, err)
				return false
			}
			cycles[v] = res.Cycles
		}
		if cycles[VariantSep] > cycles[VariantTask] {
			t.Logf("seed %d: SEP %d > TASK %d", seed, cycles[VariantSep], cycles[VariantTask])
			return false
		}
		if cycles[VariantTask] > cycles[VariantBasic] {
			t.Logf("seed %d: TASK %d > BASIC %d", seed, cycles[VariantTask], cycles[VariantBasic])
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestImprovementCaps: task parallelism gains at most ~50% over BASIC and
// generator separation at most ~33% over TASK (Section VI-C/D).
func TestImprovementCaps(t *testing.T) {
	c, o, _ := fig1Setup(t)
	var cy [4]int64
	for _, v := range Variants() {
		res, err := Run(c, o, Options{Variant: v, Config: fpgasim.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		cy[v] = res.Cycles
	}
	if gain := 1 - float64(cy[VariantTask])/float64(cy[VariantBasic]); gain > 0.505 {
		t.Errorf("TASK gain %.3f exceeds 50%% cap", gain)
	}
	if gain := 1 - float64(cy[VariantSep])/float64(cy[VariantTask]); gain > 0.34 {
		t.Errorf("SEP gain %.3f exceeds 33%% cap", gain)
	}
}

// TestKernelCyclesTrackEquations: measured cycles follow the paper's closed
// forms, evaluated with the run's own N (Partials) and M (EdgeTasks) —
// Eq. 2 = 4N+2M (BASIC), Eq. 3 = 2N+max(N,M) (TASK), Eq. 4 = N+max(N,M)
// (SEP). The equations are a floor: pipeline fill, round overhead, the CST
// load and the result flush only add, and on a workload of a few rounds
// they add at most a few percent.
func TestKernelCyclesTrackEquations(t *testing.T) {
	g := graph.RandomPowerLaw(graph.GenConfig{NumVertices: 1200, NumLabels: 3, AvgDegree: 6, Seed: 31})
	rng := rand.New(rand.NewSource(31))
	q := graph.RandomConnectedQuery("rq", 4, 2, 3, rng)
	tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
	c := cst.Build(q, g, tr)
	o := order.PathBased(tr, c)
	equations := map[Variant]func(n, m int64) int64{
		VariantBasic: func(n, m int64) int64 { return 4*n + 2*m },
		VariantTask:  func(n, m int64) int64 { return 2*n + max(n, m) },
		VariantSep:   func(n, m int64) int64 { return n + max(n, m) },
	}
	for _, v := range []Variant{VariantBasic, VariantTask, VariantSep} {
		res, err := Run(c, o, Options{Variant: v, Config: fpgasim.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Partials == 0 || res.EdgeTasks == 0 {
			t.Fatalf("%v: fixture too small: N=%d M=%d", v, res.Partials, res.EdgeTasks)
		}
		eq := equations[v](res.Partials, res.EdgeTasks)
		ratio := float64(res.Cycles) / float64(eq)
		t.Logf("%v: N=%d M=%d rounds=%d cycles=%d eq=%d cycles/eq=%.4f",
			v, res.Partials, res.EdgeTasks, res.Rounds, res.Cycles, eq, ratio)
		if ratio < 1.0 || ratio > 1.06 {
			t.Errorf("%v: cycles/eq %.4f outside [1.0, 1.06]", v, ratio)
		}
	}
}

// TestDRAMPenalty: on a non-trivial workload the DRAM variant must be
// several times slower than BASIC — the Fig. 7 effect (≈5× in the paper).
func TestDRAMPenalty(t *testing.T) {
	g := graph.RandomPowerLaw(graph.GenConfig{NumVertices: 2000, NumLabels: 3, AvgDegree: 8, Seed: 77})
	rng := rand.New(rand.NewSource(77))
	q := graph.RandomConnectedQuery("rq", 4, 2, 3, rng)
	tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
	c := cst.Build(q, g, tr)
	o := order.PathBased(tr, c)
	dram, err := Run(c, o, Options{Variant: VariantDRAM, Config: fpgasim.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	basic, err := Run(c, o, Options{Variant: VariantBasic, Config: fpgasim.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if basic.Count != dram.Count {
		t.Fatalf("count mismatch: %d vs %d", basic.Count, dram.Count)
	}
	ratio := float64(dram.Cycles) / float64(basic.Cycles)
	if ratio < 2 {
		t.Errorf("DRAM/BASIC cycle ratio %.2f, want ≥2 (paper: ≈5)", ratio)
	}
}

// TestBufferBound: the deepest-first strategy keeps the resident partials
// within (|V(q)|−1)·No even with a tiny No, and the kernel still finds all
// embeddings via the resume cursor.
func TestBufferBound(t *testing.T) {
	g := graph.RandomUniform(graph.GenConfig{NumVertices: 300, NumLabels: 2, AvgDegree: 6, Seed: 9})
	rng := rand.New(rand.NewSource(9))
	q := graph.RandomConnectedQuery("rq", 4, 1, 2, rng)
	tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
	c := cst.Build(q, g, tr)
	o := order.PathBased(tr, c)
	want := cst.Count(c, o)

	cfg := fpgasim.DefaultConfig()
	cfg.No = 4 // force many resume rounds
	res, err := Run(c, o, Options{Variant: VariantSep, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("count %d, want %d", res.Count, want)
	}
	bound := (q.NumVertices() - 1) * cfg.No
	if res.BufferHighWater > bound {
		t.Errorf("buffer high-water %d exceeds bound %d", res.BufferHighWater, bound)
	}
	if res.Rounds <= 4 {
		t.Errorf("expected many rounds with No=4, got %d", res.Rounds)
	}
}

// TestNoAmortisation: Eq. 2 — increasing No amortises per-round overhead, so
// cycles decrease (weakly) as No grows.
func TestNoAmortisation(t *testing.T) {
	g := graph.RandomUniform(graph.GenConfig{NumVertices: 400, NumLabels: 2, AvgDegree: 6, Seed: 15})
	rng := rand.New(rand.NewSource(15))
	q := graph.RandomConnectedQuery("rq", 4, 1, 2, rng)
	tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
	c := cst.Build(q, g, tr)
	o := order.PathBased(tr, c)

	var prev int64 = -1
	for _, no := range []int{2, 16, 256, 4096} {
		cfg := fpgasim.DefaultConfig()
		cfg.No = no
		res, err := Run(c, o, Options{Variant: VariantBasic, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.Cycles > prev+prev/20 {
			t.Errorf("No=%d raised cycles to %d from %d", no, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

// TestBRAMAdmission: a CST larger than BRAM must be rejected for BRAM
// variants (the host is supposed to partition first) but accepted by DRAM.
func TestBRAMAdmission(t *testing.T) {
	c, o, _ := fig1Setup(t)
	cfg := fpgasim.DefaultConfig()
	cfg.BRAMBytes = 256 // absurdly small: even Fig. 1's CST cannot fit
	cfg.No = 2
	if _, err := Run(c, o, Options{Variant: VariantBasic, Config: cfg}); err == nil {
		t.Error("BASIC accepted oversized CST")
	}
	if _, err := Run(c, o, Options{Variant: VariantDRAM, Config: cfg}); err != nil {
		t.Errorf("DRAM rejected: %v", err)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	c, _, _ := fig1Setup(t)
	if _, err := Run(c, order.Order{3, 2, 1, 0}, Options{Config: fpgasim.DefaultConfig()}); err == nil {
		t.Error("accepted invalid matching order")
	}
	if _, err := Run(c, order.Order{0, 1, 2, 3}, Options{Config: fpgasim.Config{}}); err == nil {
		t.Error("accepted zero config")
	}
	// A card whose BRAM admits the buffer but whose No·|V(q)|(|V(q)|−1)/2
	// arena slots overflow the partials' int32 offsets.
	huge := fpgasim.DefaultConfig()
	huge.No = 1 << 29
	huge.BRAMBytes = 1 << 40
	if _, err := Run(c, order.Order{0, 1, 2, 3}, Options{Variant: VariantDRAM, Config: huge}); err == nil {
		t.Error("accepted a partial-mapping arena beyond int32 offsets")
	}
}

// TestEmptyCST: kernels on an empty search space terminate with zero count
// and near-zero cycles.
func TestEmptyCST(t *testing.T) {
	q := graph.MustQuery("missing", []graph.Label{9, 9}, [][2]graph.QueryVertex{{0, 1}})
	g := graph.RandomUniform(graph.GenConfig{NumVertices: 50, NumLabels: 3, AvgDegree: 4, Seed: 3})
	tr := order.BuildBFSTree(q, 0)
	c := cst.Build(q, g, tr)
	res, err := Run(c, order.Order{0, 1}, Options{Variant: VariantSep, Config: fpgasim.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 || res.Rounds != 0 {
		t.Errorf("empty CST: count=%d rounds=%d", res.Count, res.Rounds)
	}
}
