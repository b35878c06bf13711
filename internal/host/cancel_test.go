package host

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"fastmatch/graph"
	"fastmatch/internal/cst"
	"fastmatch/ldbc"
)

// cancelConfig forces many partitions and a fat CPU δ-share so both the
// FPGA fan-out and the δ-share drain are mid-flight when cancellation hits.
func cancelConfig(workers int) Config {
	return Config{
		Delta:     0.3,
		Workers:   workers,
		Partition: cst.PartitionConfig{MaxSizeBytes: 16 << 10, MaxCandDegree: 64},
	}
}

// TestHostLimitExact: Config.Limit yields exactly min(limit, total)
// embeddings for every worker shape, including while the concurrent
// δ-share drain is running (run under -race in CI).
func TestHostLimitExact(t *testing.T) {
	g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 150, Seed: 11})
	q, err := ldbc.QueryByName("q5")
	if err != nil {
		t.Fatal(err)
	}
	full, err := Match(context.Background(), q, g, cancelConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if full.Embeddings < 10 || full.CPUPartitions == 0 {
		t.Skipf("workload too small: %d embeddings, %d CPU partitions", full.Embeddings, full.CPUPartitions)
	}
	limit := full.Embeddings / 2
	for _, workers := range []int{1, 2, 4} {
		cfg := cancelConfig(workers)
		cfg.Limit = limit
		rep, err := Match(context.Background(), q, g, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Embeddings != limit || !rep.Partial {
			t.Errorf("workers=%d: %d embeddings (partial=%v), want exactly %d partial",
				workers, rep.Embeddings, rep.Partial, limit)
		}
		if rep.KernelAborts != 0 {
			t.Errorf("workers=%d: limit stop tallied %d kernel aborts; filling the budget throws nothing away",
				workers, rep.KernelAborts)
		}
		cfg.Limit = full.Embeddings + 100
		rep, err = Match(context.Background(), q, g, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Embeddings != full.Embeddings || rep.Partial {
			t.Errorf("workers=%d over-limit: %d embeddings (partial=%v), want full %d",
				workers, rep.Embeddings, rep.Partial, full.Embeddings)
		}
	}
}

// TestHostCancelDuringShareDrain cancels through the Emit hook while the
// CPU δ-share (and, with Workers > 1, the kernel fan-out) is mid-drain,
// asserting a clean partial return for every worker shape under -race.
func TestHostCancelDuringShareDrain(t *testing.T) {
	g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 150, Seed: 11})
	q, err := ldbc.QueryByName("q5")
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("drain interrupted")
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := cancelConfig(workers)
			var seen atomic.Int64
			cfg.Emit = func(graph.Embedding) error {
				if seen.Add(1) >= 5 {
					return sentinel
				}
				return nil
			}
			rep, err := Match(context.Background(), q, g, cfg)
			if !errors.Is(err, sentinel) {
				t.Fatalf("err = %v, want the emit sentinel", err)
			}
			if !rep.Partial {
				t.Error("interrupted run not marked Partial")
			}
			if rep.Embeddings < 5 {
				t.Errorf("Embeddings = %d, want >= 5 (delivered before the stop)", rep.Embeddings)
			}
		})
	}
}

// TestHostContextCancelMidPartition cancels via the context while the
// partition producer is running; the producer, workers and δ-share
// consumer all stop and Match returns the context's error with a partial
// report.
func TestHostContextCancelMidPartition(t *testing.T) {
	g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 150, Seed: 11})
	q, err := ldbc.QueryByName("q5")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := cancelConfig(workers)
		var seen atomic.Int64
		cfg.Emit = func(graph.Embedding) error {
			if seen.Add(1) == 3 {
				cancel()
			}
			return nil
		}
		rep, err := Match(ctx, q, g, cfg)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if !rep.Partial {
			t.Errorf("workers=%d: cancelled run not marked Partial", workers)
		}
	}
}
