package host

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"fastmatch/graph"
	"fastmatch/internal/baseline"
	"fastmatch/internal/core"
	"fastmatch/internal/cst"
	"fastmatch/internal/fpgasim"
	"fastmatch/internal/order"
	"fastmatch/ldbc"
)

func smallSocial(t testing.TB) *graph.Graph {
	t.Helper()
	return ldbc.Generate(ldbc.Config{ScaleFactor: 1, Seed: 42})
}

func TestMatchAgreesWithOracle(t *testing.T) {
	g := smallSocial(t)
	for _, q := range ldbc.Queries() {
		want, err := baseline.Backtrack(q, g, baseline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Match(context.Background(), q, g, Config{})
		if err != nil {
			t.Fatalf("%s: %v", q.Name(), err)
		}
		if rep.Embeddings != want.Count {
			t.Errorf("%s: host found %d, oracle %d", q.Name(), rep.Embeddings, want.Count)
		}
		if rep.Total <= 0 || rep.BuildTime <= 0 {
			t.Errorf("%s: timings %+v", q.Name(), rep)
		}
	}
}

func TestMatchCollectsValidEmbeddings(t *testing.T) {
	g := smallSocial(t)
	q, _ := ldbc.QueryByName("q2")
	rep, err := Match(context.Background(), q, g, Config{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rep.Collected)) != rep.Embeddings {
		t.Fatalf("collected %d, count %d", len(rep.Collected), rep.Embeddings)
	}
	for _, e := range rep.Collected {
		if err := graph.VerifyEmbedding(q, g, e); err != nil {
			t.Fatalf("invalid embedding: %v", err)
		}
	}
}

// TestDeltaSplitsWork: with δ > 0 some partitions go to the CPU, the
// CPU's workload share respects δ (within one-CST granularity), and the
// total embedding count is conserved.
func TestDeltaSplitsWork(t *testing.T) {
	g := smallSocial(t)
	q, _ := ldbc.QueryByName("q5")
	// Force many partitions so the scheduler has real choices.
	pc := cst.PartitionConfig{MaxSizeBytes: 1 << 13, MaxCandDegree: 64}
	ref, err := Match(context.Background(), q, g, Config{Partition: pc})
	if err != nil {
		t.Fatal(err)
	}
	if ref.NumPartitions < 4 {
		t.Skipf("only %d partitions; need more for a meaningful test", ref.NumPartitions)
	}
	rep, err := Match(context.Background(), q, g, Config{Partition: pc, Delta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Embeddings != ref.Embeddings {
		t.Errorf("δ changed results: %d vs %d", rep.Embeddings, ref.Embeddings)
	}
	if rep.CPUPartitions == 0 {
		t.Error("δ=0.3 assigned nothing to the CPU")
	}
	total := rep.CPUWorkload + rep.FPGAWorkload
	if total > 0 && rep.CPUWorkload/total > 0.3+0.15 {
		t.Errorf("CPU share %.2f grossly exceeds δ", rep.CPUWorkload/total)
	}
	if ref.CPUPartitions != 0 || ref.CPUWorkload != 0 {
		t.Errorf("δ=0 sent work to the CPU: %+v", ref)
	}
}

// TestMultiFPGAConservesAndBalances: more cards must not change results and
// should cut the slowest card's busy time.
func TestMultiFPGAConservesAndBalances(t *testing.T) {
	g := smallSocial(t)
	q, _ := ldbc.QueryByName("q7")
	pc := cst.PartitionConfig{MaxSizeBytes: 1 << 13, MaxCandDegree: 64}
	one, err := Match(context.Background(), q, g, Config{Partition: pc, NumFPGAs: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Match(context.Background(), q, g, Config{Partition: pc, NumFPGAs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if one.Embeddings != four.Embeddings {
		t.Errorf("multi-FPGA changed results: %d vs %d", one.Embeddings, four.Embeddings)
	}
	if one.NumPartitions >= 4 && four.FPGATime >= one.FPGATime {
		t.Errorf("4 cards not faster: %v vs %v (%d partitions)",
			four.FPGATime, one.FPGATime, one.NumPartitions)
	}
}

// TestVariantsAgreeEndToEnd: the host pipeline returns identical counts for
// every kernel variant.
func TestVariantsAgreeEndToEnd(t *testing.T) {
	g := smallSocial(t)
	q, _ := ldbc.QueryByName("q3")
	var want int64 = -1
	for _, v := range core.Variants() {
		rep, err := Match(context.Background(), q, g, Config{Variant: v})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if want == -1 {
			want = rep.Embeddings
		} else if rep.Embeddings != want {
			t.Errorf("%v: %d embeddings, want %d", v, rep.Embeddings, want)
		}
	}
}

// TestOrderStrategiesAgree: all matching-order strategies and explicit
// random orders give the same counts (Fig. 15's premise).
func TestOrderStrategiesAgree(t *testing.T) {
	g := smallSocial(t)
	q, _ := ldbc.QueryByName("q4")
	var want int64 = -1
	for _, s := range []OrderStrategy{OrderPath, OrderCFL, OrderDAF, OrderCECI} {
		rep, err := Match(context.Background(), q, g, Config{Strategy: s})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if want == -1 {
			want = rep.Embeddings
		} else if rep.Embeddings != want {
			t.Errorf("%s: %d, want %d", s, rep.Embeddings, want)
		}
	}
	// Explicit random orders.
	root := order.SelectRoot(q, g)
	tree := order.BuildBFSTree(q, root)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3; i++ {
		o := order.RandomConnected(tree, rng)
		rep, err := Match(context.Background(), q, g, Config{ExplicitOrder: o})
		if err != nil {
			t.Fatalf("order %v: %v", o, err)
		}
		if rep.Embeddings != want {
			t.Errorf("order %v: %d, want %d", o, rep.Embeddings, want)
		}
	}
}

func TestMatchRejectsBadConfig(t *testing.T) {
	g := smallSocial(t)
	q, _ := ldbc.QueryByName("q0")
	if _, err := Match(context.Background(), q, g, Config{Delta: 1.5}); err == nil {
		t.Error("accepted delta 1.5")
	}
	bad := fpgasim.DefaultConfig()
	bad.ClockMHz = -1
	if _, err := Match(context.Background(), q, g, Config{Device: bad}); err == nil {
		t.Error("accepted invalid device")
	}
	tree := order.BuildBFSTree(q, 0)
	_ = tree
	if _, err := Match(context.Background(), q, g, Config{ExplicitOrder: order.Order{1, 0, 2, 3, 4}}); err == nil {
		t.Error("accepted invalid explicit order")
	}
}

func TestEmptyResultFastPath(t *testing.T) {
	// A query whose labels cannot match returns zero quickly.
	q := graph.MustQuery("none", []graph.Label{ldbc.TagClass, ldbc.TagClass, ldbc.TagClass},
		[][2]graph.QueryVertex{{0, 1}, {1, 2}, {0, 2}}) // TagClass triangle: none exists
	g := smallSocial(t)
	rep, err := Match(context.Background(), q, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Embeddings != 0 {
		t.Errorf("found %d embeddings of an impossible query", rep.Embeddings)
	}
}

// TestSchedulerDeltaProperty: the assignToCPU invariant — W_C stays under
// δ·(W_C+W_F) after every decision, within the granularity of one CST.
func TestSchedulerDeltaProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		delta := rng.Float64() * 0.5
		s := scheduler{delta: delta}
		for i := 0; i < 200; i++ {
			w := rng.Float64() * 1000
			before := s.wc
			toCPU := s.assignToCPU(w)
			if toCPU && s.wc != before+w {
				return false
			}
			// The decision rule guarantees: if assigned to CPU, the new
			// share is below δ.
			if toCPU && s.wc >= delta*(s.wc+s.wf)+1e-9 && s.wf > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPartitionedMatchesUnpartitioned: aggressive partitioning must not
// change end-to-end counts (Theorem 1 + Fig. 4's no-overlap claim at the
// system level).
func TestPartitionedMatchesUnpartitioned(t *testing.T) {
	g := smallSocial(t)
	for _, name := range []string{"q2", "q5", "q8"} {
		q, _ := ldbc.QueryByName(name)
		loose, err := Match(context.Background(), q, g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		tight, err := Match(context.Background(), q, g, Config{
			Partition: cst.PartitionConfig{MaxSizeBytes: 1 << 12, MaxCandDegree: 16},
		})
		if err != nil {
			t.Fatal(err)
		}
		if loose.Embeddings != tight.Embeddings {
			t.Errorf("%s: %d (loose) vs %d (tight, %d partitions)",
				name, loose.Embeddings, tight.Embeddings, tight.NumPartitions)
		}
		if tight.NumPartitions <= loose.NumPartitions {
			t.Errorf("%s: tight budget produced %d partitions vs %d", name,
				tight.NumPartitions, loose.NumPartitions)
		}
	}
}

// TestMatchAllocsBounded is the tripwire for a channel or goroutine creeping
// into the Workers <= 1 path: a cached-plan Match on the inline pool costs a
// few dozen allocations (the bounds are the counts measured before the two
// schedulers became one pipeline), where one pass through the fanned-out
// pool costs about twice that. The serving benchmarks run at this width, so
// a regression here is a regression in their allocs_per_op.
func TestMatchAllocsBounded(t *testing.T) {
	g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 400, Seed: 42})
	for name, bound := range map[string]float64{"q1": 47, "q3": 56} {
		q, err := ldbc.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Workers: 1, Delta: 0.1}
		if cfg.Plan, err = Prepare(context.Background(), q, g, cfg); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Match(context.Background(), q, g, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > bound {
			t.Errorf("%s: cached-plan Match allocates %v times per run; want <= %v", name, allocs, bound)
		}
	}
}
