package fast

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fastmatch/graph"
	"fastmatch/ldbc"
)

// cancelTestGraph is big enough that q5 produces real work to interrupt.
func cancelTestGraph() *graph.Graph {
	return ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 200, Seed: 7})
}

// cancelTestOptions shrinks the modelled card so CSTs partition into many
// pieces — the pipeline then has many check points between partitions.
func cancelTestOptions(workers int) *Options {
	dev := DefaultDevice()
	dev.BRAMBytes = 64 << 10
	dev.BatchSize = 64
	return &Options{Variant: VariantShare, Device: dev, Workers: workers}
}

// awaitGoroutineBaseline fails the test if the goroutine count does not
// drain back to the pre-test baseline — the "no leaked goroutines"
// acceptance criterion for cancellation.
func awaitGoroutineBaseline(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak after cancellation: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMatchContextExpiredDeadline: an already-expired deadline returns
// promptly — before planning — with context.DeadlineExceeded and a partial
// zero Result, on the heaviest benchmark query.
func TestMatchContextExpiredDeadline(t *testing.T) {
	g := cancelTestGraph()
	q, _ := ldbc.QueryByName("q5")
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := MatchContext(ctx, q, g, cancelTestOptions(2))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("result = %+v, want non-nil Partial", res)
	}
	if res.Count != 0 || res.Partitions != 0 || res.BuildTime != 0 {
		t.Errorf("expired deadline still did work: %+v", res)
	}
}

// TestMatchContextCancelMidRun cancels a running match from inside its own
// stream callback — guaranteed mid-run — for Workers ∈ {2, 4}, and asserts
// a partial result, ErrCanceled, and that every pipeline goroutine exits
// (run under -race in CI).
func TestMatchContextCancelMidRun(t *testing.T) {
	g := cancelTestGraph()
	q, _ := ldbc.QueryByName("q5")
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			eng, err := NewEngine(g, cancelTestOptions(workers))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var seen atomic.Int64
			res, err := eng.MatchStream(ctx, q, func(graph.Embedding) error {
				if seen.Add(1) == 10 {
					cancel()
				}
				return nil
			})
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if res == nil || !res.Partial {
				t.Fatalf("result = %+v, want partial", res)
			}
			if res.Count < 10 {
				t.Errorf("Count = %d, want >= 10 (embeddings seen before cancel)", res.Count)
			}
			awaitGoroutineBaseline(t, base)
		})
	}
}

// TestMatchContextCompletedThenCancelled: a call whose work finished before
// the context fired keeps its full counts and reports no error.
func TestMatchContextCompletedThenCancelled(t *testing.T) {
	g := engineTestGraph()
	q, _ := ldbc.QueryByName("q2")
	want, err := Match(q, g, engineTestOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	res, err := MatchContext(ctx, q, g, engineTestOptions(2))
	cancel()
	if err != nil {
		t.Fatalf("completed call returned %v", err)
	}
	if res.Partial {
		t.Error("completed call reported Partial")
	}
	if res.Count != want.Count {
		t.Errorf("Count = %d, want %d", res.Count, want.Count)
	}
}

// TestWithLimitDeterminism: limit ≥ total keeps counts byte-identical to
// the unbounded run, and limit < total yields exactly limit embeddings —
// both regardless of Workers.
func TestWithLimitDeterminism(t *testing.T) {
	g := engineTestGraph()
	q, _ := ldbc.QueryByName("q5")
	want, err := Match(q, g, engineTestOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if want.Count < 20 {
		t.Skipf("q5 count %d too small to exercise limits", want.Count)
	}
	under := want.Count / 2
	for _, workers := range []int{1, 2, 4} {
		eng, err := NewEngine(g, engineTestOptions(workers))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			limit       int64
			wantCount   int64
			wantPartial bool
		}{
			{want.Count, want.Count, false},
			{want.Count + 10, want.Count, false},
			{under, under, true},
		} {
			res, err := eng.MatchContext(context.Background(), q, WithLimit(tc.limit))
			if err != nil {
				t.Fatalf("workers=%d limit=%d: %v", workers, tc.limit, err)
			}
			if res.Count != tc.wantCount {
				t.Errorf("workers=%d limit=%d: Count = %d, want %d", workers, tc.limit, res.Count, tc.wantCount)
			}
			if res.Partial != tc.wantPartial {
				t.Errorf("workers=%d limit=%d: Partial = %v, want %v", workers, tc.limit, res.Partial, tc.wantPartial)
			}
		}
	}
}

// TestWithLimitCollect: a limited collecting call materialises exactly the
// counted embeddings, all valid.
func TestWithLimitCollect(t *testing.T) {
	g := engineTestGraph()
	q, _ := ldbc.QueryByName("q2")
	res, err := MatchContext(context.Background(), q, g, engineTestOptions(0),
		WithLimit(25), WithCollect(true))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(res.Embeddings)) != res.Count {
		t.Fatalf("collected %d embeddings, counted %d", len(res.Embeddings), res.Count)
	}
	for _, e := range res.Embeddings {
		if err := graph.VerifyEmbedding(q, g, e); err != nil {
			t.Fatalf("invalid embedding: %v", err)
		}
	}
}

// TestMatchStream: the stream sees every embedding exactly once (count
// parity with the unbounded match), calls are serialized, and a callback
// error stops enumeration with a partial result.
func TestMatchStream(t *testing.T) {
	g := engineTestGraph()
	q, _ := ldbc.QueryByName("q2")
	want, err := Match(q, g, engineTestOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, engineTestOptions(4))
	if err != nil {
		t.Fatal(err)
	}

	var streamed, inFlight, overlaps atomic.Int64
	res, err := eng.MatchStream(context.Background(), q, func(e graph.Embedding) error {
		if inFlight.Add(1) != 1 {
			overlaps.Add(1)
		}
		defer inFlight.Add(-1)
		if err := graph.VerifyEmbedding(q, g, e); err != nil {
			return err
		}
		streamed.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if overlaps.Load() != 0 {
		t.Errorf("emit callback ran concurrently %d times", overlaps.Load())
	}
	if res.Count != want.Count || streamed.Load() != want.Count {
		t.Errorf("stream count %d / result %d, want %d", streamed.Load(), res.Count, want.Count)
	}
	if res.Partial {
		t.Error("full stream reported Partial")
	}

	// Early stop: the callback's error comes back with a partial result.
	sentinel := errors.New("stop right there")
	var n atomic.Int64
	res, err = eng.MatchStream(context.Background(), q, func(graph.Embedding) error {
		if n.Add(1) >= 10 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the callback's sentinel", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("result = %+v, want partial", res)
	}
	if eng2, _ := NewEngine(g, engineTestOptions(1)); eng2 != nil {
		if _, err := eng2.MatchStream(context.Background(), q, nil); err == nil {
			t.Error("nil emit callback accepted")
		}
	}
}

// TestWithDeltaZero: the δ = 0 override must actually apply — the
// regression where a documented "δ >= 0 applies" zero was silently ignored
// because the plumbing tested δ > 0.
func TestWithDeltaZero(t *testing.T) {
	g := testGraph()
	q, _ := ldbc.QueryByName("q7")
	dev := DefaultDevice()
	dev.BRAMBytes = 1 << 16
	dev.BatchSize = 64
	opts := &Options{Variant: VariantShare, Device: dev}
	ref, err := Match(q, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Partitions < 2 || ref.CPUPartitions == 0 {
		t.Skipf("workload too small to exercise δ: %d partitions, %d CPU", ref.Partitions, ref.CPUPartitions)
	}
	// Per-call override.
	res, err := MatchContext(context.Background(), q, g, opts, WithDelta(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.CPUPartitions != 0 {
		t.Errorf("WithDelta(0): %d partitions still went to the CPU", res.CPUPartitions)
	}
	if res.Count != ref.Count {
		t.Errorf("WithDelta(0) changed the count: %d vs %d", res.Count, ref.Count)
	}
	// Legacy struct override.
	res, err = Match(q, g, &Options{Variant: VariantShare, Device: dev, Delta: 0, DeltaSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPUPartitions != 0 {
		t.Errorf("Options.DeltaSet zero: %d partitions still went to the CPU", res.CPUPartitions)
	}
	// And without DeltaSet the zero still means "variant default".
	res, err = Match(q, g, &Options{Variant: VariantShare, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPUPartitions == 0 {
		t.Error("unset delta no longer falls back to the VariantShare default")
	}
	// An out-of-range per-call δ fails cleanly.
	if _, err := MatchContext(context.Background(), q, g, opts, WithDelta(1.5)); err == nil {
		t.Error("WithDelta(1.5) accepted")
	}
}

// TestMatchBatchContextAggregateErrors: every per-query failure is
// reported, wrapped with its index, lowest index first, and errors.Is sees
// each underlying cause.
func TestMatchBatchContextAggregateErrors(t *testing.T) {
	g := engineTestGraph()
	eng, err := NewEngine(g, engineTestOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	q1, _ := ldbc.QueryByName("q1")
	results, err := eng.MatchBatchContext(context.Background(), []*graph.Query{q1, nil, nil})
	if err == nil {
		t.Fatal("batch with nil queries returned no error")
	}
	if results[0] == nil || results[0].Count <= 0 {
		t.Error("healthy query did not run to completion")
	}
	if !strings.HasPrefix(err.Error(), "fast: MatchBatch query 1") {
		t.Errorf("lowest-index failure not first: %q", err.Error())
	}
	if got := strings.Count(err.Error(), "fast: MatchBatch query"); got != 2 {
		t.Errorf("aggregate reports %d failures, want 2:\n%s", got, err.Error())
	}
}

// TestMatchBatchContextCancel cancels a batch mid-flight and asserts the
// call returns, reports the cancellation, and leaks no goroutines.
func TestMatchBatchContextCancel(t *testing.T) {
	g := cancelTestGraph()
	base := runtime.NumGoroutine()
	eng, err := NewEngine(g, cancelTestOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	q5, _ := ldbc.QueryByName("q5")
	qs := make([]*graph.Query, 12)
	for i := range qs {
		qs[i] = q5
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		// Cancel as soon as the first embedding proves the batch is truly
		// mid-flight.
		_, _ = eng.MatchStream(context.Background(), q5, func(graph.Embedding) error {
			return errors.New("probe done")
		})
		cancel()
		close(done)
	}()
	results, err := eng.MatchBatchContext(ctx, qs)
	<-done
	if err == nil {
		// The batch may legitimately win the race on a fast machine; the
		// full counts must then all be present.
		for i, r := range results {
			if r == nil || r.Partial {
				t.Errorf("uncancelled batch entry %d incomplete: %+v", i, r)
			}
		}
	} else if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled in the aggregate", err)
	}
	awaitGoroutineBaseline(t, base)
}

// TestMatchBatchContextCancelledSkipsSubmission: once ctx has fired, batch
// submission short-circuits — unstarted queries are never scheduled (no
// goroutine per query, and their query pointers are never even inspected);
// their slots fill with a partial zero Result and ErrCanceled. The
// regression: a cancelled 10k-query batch still acquired the semaphore and
// spawned one no-op goroutine per query, each of which looked at the query
// first — so a nil entry in a cancelled batch surfaced a "nil query" error
// instead of the cancellation.
func TestMatchBatchContextCancelledSkipsSubmission(t *testing.T) {
	g := engineTestGraph()
	base := runtime.NumGoroutine()
	eng, err := NewEngine(g, engineTestOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	q1, _ := ldbc.QueryByName("q1")
	qs := make([]*graph.Query, 10_000)
	for i := range qs {
		qs[i] = q1
	}
	// The nil entry is the submission sentinel: only a goroutine that was
	// actually scheduled would trip over it.
	qs[5000] = nil

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := eng.MatchBatchContext(ctx, qs)
	if err == nil {
		t.Fatal("cancelled batch returned no error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if strings.Contains(err.Error(), "nil query") {
		t.Error("cancelled batch still submitted queries: nil entry was inspected")
	}
	if len(results) != len(qs) {
		t.Fatalf("got %d results, want %d", len(results), len(qs))
	}
	for i, res := range results {
		if res == nil || !res.Partial || res.Count != 0 {
			t.Fatalf("results[%d] = %+v, want partial zero Result", i, res)
		}
	}
	// Nothing was scheduled, so nothing can linger.
	awaitGoroutineBaseline(t, base)
}

// TestMatchTimeoutOption: WithTimeout bounds a call's wall clock; the
// partial result surfaces context.DeadlineExceeded.
func TestMatchTimeoutOption(t *testing.T) {
	g := cancelTestGraph()
	q, _ := ldbc.QueryByName("q5")
	eng, err := NewEngine(g, cancelTestOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.MatchContext(context.Background(), q, WithTimeout(time.Nanosecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("result = %+v, want partial", res)
	}
}
