package host

import (
	"context"
	"slices"
	"sort"
	"sync"
	"testing"

	"fastmatch/graph"
	"fastmatch/internal/core"
	"fastmatch/internal/cst"
	"fastmatch/internal/fpgasim"
	"fastmatch/ldbc"
)

// parallelTestSetup returns a small LDBC-like graph and a host config whose
// shrunken BRAM forces real partitioning (mirroring internal/exp's scaled
// card) so the worker pool has something to fan out.
func parallelTestSetup() (*graph.Graph, Config) {
	g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 120, Seed: 7})
	dev := fpgasim.DefaultConfig()
	dev.BRAMBytes = 256 << 10
	dev.No = 256
	return g, Config{
		Device:    dev,
		Variant:   core.VariantSep,
		Delta:     0.1,
		Partition: cst.PartitionConfig{MaxSizeBytes: 8 << 10, MaxCandDegree: 64},
	}
}

// widthCounts is everything a Report states that must not depend on the
// pipeline's width: the embedding total, the partition counts, the δ split
// and the aggregated kernel statistics.
type widthCounts struct {
	Embeddings                                                  int64
	NumPartitions, CPUPartitions                                int
	CPUWorkload, FPGAWorkload                                   float64
	KernelCycles, KernelPartials, KernelEdgeTasks, KernelRounds int64
	CSTBytes                                                    int64
	MaxBufferUse                                                int
}

func countsOf(r Report) widthCounts {
	return widthCounts{
		r.Embeddings, r.NumPartitions, r.CPUPartitions, r.CPUWorkload, r.FPGAWorkload,
		r.KernelCycles, r.KernelPartials, r.KernelEdgeTasks, r.KernelRounds, r.CSTBytes, r.MaxBufferUse,
	}
}

// checkWidthParity runs every LDBC query at each (δ, Workers) cell and
// requires the Workers=1 row's counts byte-for-byte: it is one pipeline run
// at different widths, so nothing the scheduler decides may move.
func checkWidthParity(t *testing.T, deltas []float64, workers []int) {
	t.Helper()
	g, base := parallelTestSetup()
	for _, name := range []string{"q1", "q2", "q3", "q4", "q5"} {
		q, err := ldbc.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, delta := range deltas {
			cfg := base
			cfg.Delta = delta
			ref, err := Match(context.Background(), q, g, cfg)
			if err != nil {
				t.Fatalf("%s δ=%v: reference match: %v", name, delta, err)
			}
			if ref.Embeddings == 0 || ref.NumPartitions < 2 {
				t.Fatalf("%s δ=%v: %d embeddings in %d partitions — test has no teeth",
					name, delta, ref.Embeddings, ref.NumPartitions)
			}
			for _, w := range workers {
				cfg.Workers = w
				rep, err := Match(context.Background(), q, g, cfg)
				if err != nil {
					t.Fatalf("%s δ=%v workers=%d: %v", name, delta, w, err)
				}
				if got, want := countsOf(rep), countsOf(ref); got != want {
					t.Errorf("%s δ=%v workers=%d:\n got %+v\nwant %+v", name, delta, w, got, want)
				}
			}
		}
	}
}

// TestMatchWorkersCountsEqualSequential: fanning the consumers out, even
// and odd, with the δ-share on or off, reproduces the inline pool's counts.
func TestMatchWorkersCountsEqualSequential(t *testing.T) {
	checkWidthParity(t, []float64{0, 0.1}, []int{2, 3, 4})
}

// TestMatchWorkersCollectSameSet: at Workers <= 1 the collected embeddings
// are a deterministic sequence — FPGA-bound pieces in producer order, then
// the δ-share — which is the emission order fast.Engine documents; under
// Workers > 1 they arrive in a nondeterministic order but must form the same
// set.
func TestMatchWorkersCollectSameSet(t *testing.T) {
	g, base := parallelTestSetup()
	q, err := ldbc.QueryByName("q2")
	if err != nil {
		t.Fatal(err)
	}
	base.Collect = true
	keys := func(es []graph.Embedding) []string {
		out := make([]string, len(es))
		for i, e := range es {
			out[i] = e.Key()
		}
		return out
	}
	var seq []string
	for _, tc := range []struct {
		name         string
		workers      int
		sameSequence bool
	}{
		{"inline", 1, true},
		{"inline again", 1, true},
		{"fanned out", 4, false},
		{"fanned out, odd", 3, false},
	} {
		cfg := base
		cfg.Workers = tc.workers
		rep, err := Match(context.Background(), q, g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := keys(rep.Collected)
		if seq == nil {
			if rep.CPUPartitions == 0 || rep.CPUPartitions == rep.NumPartitions {
				t.Fatalf("%d of %d partitions on the CPU — need both sides for the order to mean anything",
					rep.CPUPartitions, rep.NumPartitions)
			}
			seq = got
			continue
		}
		want := seq
		if !tc.sameSequence {
			sort.Strings(got)
			want = append([]string(nil), seq...)
			sort.Strings(want)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: collected %d embeddings differing from the inline run's %d (same sequence required: %v)",
				tc.name, len(got), len(want), tc.sameSequence)
		}
	}
}

// TestPreparePlanReuse: a cached Plan must produce identical results to
// planning from scratch, including when shared by concurrent Match calls
// over a common worker-pool token bucket (the Engine's usage).
func TestPreparePlanReuse(t *testing.T) {
	g, base := parallelTestSetup()
	q, err := ldbc.QueryByName("q4")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Match(context.Background(), q, g, base)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Prepare(context.Background(), q, g, base)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.Plan = plan
	cfg.Workers = 3
	cfg.Pool = make(chan struct{}, 3)
	const calls = 4
	var wg sync.WaitGroup
	reports := make([]Report, calls)
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = Match(context.Background(), q, g, cfg)
		}(i)
	}
	wg.Wait()
	for i := 0; i < calls; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if reports[i].Embeddings != want.Embeddings {
			t.Errorf("call %d: %d embeddings, want %d", i, reports[i].Embeddings, want.Embeddings)
		}
		if reports[i].NumPartitions != want.NumPartitions {
			t.Errorf("call %d: %d partitions, want %d", i, reports[i].NumPartitions, want.NumPartitions)
		}
	}
}

// TestMatchWorkersTightDRAM: when card DRAM has room for only one staged
// partition, fanned-out workers must wait for in-flight releases rather than
// fail — any workload that succeeds on the inline pool succeeds fanned out.
func TestMatchWorkersTightDRAM(t *testing.T) {
	g, base := parallelTestSetup()
	base.Delta = 0 // keep the partition stream independent of scheduling
	q, err := ldbc.QueryByName("q5")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Prepare(context.Background(), q, g, base)
	if err != nil {
		t.Fatal(err)
	}
	var maxSize int64
	parts := cst.Partition(plan.CST, plan.Order, base.Partition, func(p *cst.CST) {
		if s := p.SizeBytes(); s > maxSize {
			maxSize = s
		}
	})
	if parts < 2 {
		t.Fatalf("need multiple partitions, got %d", parts)
	}
	// Fits one staged partition, never two.
	base.Device.DRAMBytes = maxSize + maxSize/2
	seq, err := Match(context.Background(), q, g, base)
	if err != nil {
		t.Fatalf("sequential under tight DRAM: %v", err)
	}
	cfg := base
	cfg.Workers = 4
	par, err := Match(context.Background(), q, g, cfg)
	if err != nil {
		t.Fatalf("parallel under tight DRAM: %v", err)
	}
	if par.Embeddings != seq.Embeddings {
		t.Errorf("tight DRAM: %d embeddings, want %d", par.Embeddings, seq.Embeddings)
	}
}

// TestMatchWorkersMultiFPGA: the least-loaded-card selection under devMu
// keeps multi-card runs correct when fanned out.
func TestMatchWorkersMultiFPGA(t *testing.T) {
	g, base := parallelTestSetup()
	q, err := ldbc.QueryByName("q3")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Match(context.Background(), q, g, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.NumFPGAs = 3
	cfg.Workers = 4
	par, err := Match(context.Background(), q, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if par.Embeddings != seq.Embeddings {
		t.Errorf("multi-FPGA parallel: %d embeddings, want %d", par.Embeddings, seq.Embeddings)
	}
	if par.Devices != 3 {
		t.Errorf("Devices = %d, want 3", par.Devices)
	}
}
