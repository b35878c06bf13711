package host

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fastmatch/graph"
	"fastmatch/internal/faultinject"
	"fastmatch/internal/fpgasim"
	"fastmatch/ldbc"
)

// smallCardConfig is the 32 KiB / No 32 card the count lineage runs on; q8
// over smallSocial splits into dozens of pieces there.
func smallCardConfig(workers int) Config {
	dev := fpgasim.DefaultConfig()
	dev.BRAMBytes = 32 << 10
	dev.No = 32
	return Config{Device: dev, Workers: workers}
}

// panicEveryLaunch injects a kernel panic at every launch.
func panicEveryLaunch() *faultinject.Injector {
	return faultinject.New(1, faultinject.Rule{
		Site: faultinject.SiteKernel, Kind: faultinject.Panic, EveryNth: 1,
	})
}

// TestTerminalErrorStopsProducer: a terminal error on a consumer stops the
// partition producer even on a call with no context, limit or stream. Every
// kernel launch panics, so the first piece fails the run; the producer may
// only have delivered what the consumers and their queues held by then —
// one piece inline, and at most Workers in flight plus both queues plus the
// piece being routed when fanned out — instead of walking the whole split
// tree only to discard every piece.
func TestTerminalErrorStopsProducer(t *testing.T) {
	g := smallSocial(t)
	q, err := ldbc.QueryByName("q8")
	if err != nil {
		t.Fatal(err)
	}
	full, err := Match(context.Background(), q, g, smallCardConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		bound := 1
		if workers > 1 {
			bound = workers + 2*min(2*workers, 8) + 1
		}
		if full.NumPartitions <= bound {
			t.Fatalf("fault-free run has %d pieces, need more than %d for the test to have teeth", full.NumPartitions, bound)
		}
		cfg := smallCardConfig(workers)
		cfg.Faults = panicEveryLaunch()
		rep, err := Match(context.Background(), q, g, cfg)
		var kp *KernelPanicError
		if !errors.As(err, &kp) {
			t.Fatalf("workers=%d: err = %v, want *KernelPanicError", workers, err)
		}
		if rep.NumPartitions > bound {
			t.Errorf("workers=%d: producer delivered %d of %d pieces after the first kernel panic, want <= %d",
				workers, rep.NumPartitions, full.NumPartitions, bound)
		}
	}
}

// TestMatchGoroutineCeiling: whatever way a call ends — completed, cancelled
// mid-run, cut by its limit, or failed by a kernel panic — every goroutine
// it started has exited within a second of Match returning.
func TestMatchGoroutineCeiling(t *testing.T) {
	g := smallSocial(t)
	q, err := ldbc.QueryByName("q8")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for _, tc := range []struct {
			name string
			run  func(cfg Config) error
		}{
			{"plain", func(cfg Config) error {
				_, err := Match(context.Background(), q, g, cfg)
				return err
			}},
			{"cancelled", func(cfg Config) error {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var seen atomic.Int64
				cfg.Emit = func(graph.Embedding) error {
					if seen.Add(1) == 3 {
						cancel()
					}
					return nil
				}
				if _, err := Match(ctx, q, g, cfg); !errors.Is(err, context.Canceled) {
					return fmt.Errorf("err = %v, want context.Canceled", err)
				}
				return nil
			}},
			{"limit", func(cfg Config) error {
				cfg.Limit = 5
				rep, err := Match(context.Background(), q, g, cfg)
				if err == nil && rep.Embeddings != 5 {
					return fmt.Errorf("%d embeddings, want the limit 5", rep.Embeddings)
				}
				return err
			}},
			{"kernel panic", func(cfg Config) error {
				cfg.Faults = panicEveryLaunch()
				var kp *KernelPanicError
				if _, err := Match(context.Background(), q, g, cfg); !errors.As(err, &kp) {
					return fmt.Errorf("err = %v, want *KernelPanicError", err)
				}
				return nil
			}},
		} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				cfg := smallCardConfig(workers)
				cfg.Delta = 0.1
				base := runtime.NumGoroutine()
				if err := tc.run(cfg); err != nil {
					t.Fatal(err)
				}
				deadline := time.Now().Add(time.Second)
				for runtime.NumGoroutine() > base {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines a second after Match returned, baseline %d", runtime.NumGoroutine(), base)
					}
					time.Sleep(5 * time.Millisecond)
				}
			})
		}
	}
}
