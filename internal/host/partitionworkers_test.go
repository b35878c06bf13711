package host

import (
	"context"
	"sync"
	"testing"

	"fastmatch/ldbc"
)

// TestMatchPartitionWorkersParity is the producer-width half of the parity
// table: the concurrent producer feeding the inline pool (Workers 1) and an
// odd fan-out, with the FAST-SHARE Steal hook in play. The CI -race job runs
// this, pitting the concurrent producer against the δ-share drain and the
// FPGA worker pool at once.
func TestMatchPartitionWorkersParity(t *testing.T) {
	checkWidthParity(t, []float64{0.1}, []int{1, 3}, []int{2, 4})
}

// TestMatchPartitionWorkersConcurrentCallers: many goroutines running
// Matches with the concurrent producer, the δ share and the FPGA fan-out all
// enabled at once stay race-clean and deterministic — the Engine serving
// pattern, exercised below the facade.
func TestMatchPartitionWorkersConcurrentCallers(t *testing.T) {
	g, cfg := parallelTestSetup()
	q, err := ldbc.QueryByName("q2")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	cfg.PartitionWorkers = 2
	ref, err := Match(context.Background(), q, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 6
	var wg sync.WaitGroup
	results := make([]int64, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := Match(context.Background(), q, g, cfg)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = rep.Embeddings
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != ref.Embeddings {
			t.Errorf("caller %d: %d embeddings, want %d", i, results[i], ref.Embeddings)
		}
	}
}
