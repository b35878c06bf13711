package fast

import (
	"context"
	"fmt"
	"testing"

	"fastmatch/graph"
	"fastmatch/ldbc"
)

// lineageCells is the count lineage: the 30 cells every recorded sweep
// since PR 2 was required to reproduce before it was committed (last
// recording: BENCH_pr10.json, from which these rows were extracted
// mechanically). Workload: ldbc.Generate SF 1, base 400, seed 42; variant
// share on the 32 KiB / BatchSize 32 card; PartitionWorkers = Workers.
var lineageCells = []struct {
	query                     string
	workers                   int
	limit                     int64
	count                     int64
	partitions, cpuPartitions int
	kernelCycles, cstBytes    int64
}{
	{"q1", 1, 0, 18435, 12, 1, 56968, 222224},
	{"q1", 1, 2000, 2000, 1, 0, 6532, 24952},
	{"q2", 1, 0, 1000, 11, 1, 260585, 251364},
	{"q2", 1, 2000, 1000, 11, 1, 260585, 251364},
	{"q3", 1, 0, 710, 13, 1, 63795, 310052},
	{"q3", 1, 2000, 710, 13, 1, 63795, 310052},
	{"q4", 1, 0, 2332, 4, 1, 234046, 55992},
	{"q4", 1, 2000, 2000, 3, 0, 200561, 54460},
	{"q5", 1, 0, 4464, 16, 2, 173863, 317460},
	{"q5", 1, 2000, 2000, 10, 2, 81208, 183480},
	{"q1", 2, 0, 18435, 12, 1, 56968, 222224},
	{"q1", 2, 2000, 2000, 5, 0, 6532, 102312},
	{"q2", 2, 0, 1000, 11, 1, 260585, 251364},
	{"q2", 2, 2000, 1000, 11, 1, 260585, 251364},
	{"q3", 2, 0, 710, 13, 1, 63795, 310052},
	{"q3", 2, 2000, 710, 13, 1, 63795, 310052},
	{"q4", 2, 0, 2332, 4, 1, 234046, 55992},
	{"q4", 2, 2000, 2000, 4, 1, 200561, 55992},
	{"q5", 2, 0, 4464, 16, 2, 173863, 317460},
	{"q5", 2, 2000, 2000, 13, 2, 81208, 253856},
	{"q1", 4, 0, 18435, 12, 1, 56968, 222224},
	{"q1", 4, 2000, 2000, 10, 1, 6532, 190644},
	{"q2", 4, 0, 1000, 11, 1, 260585, 251364},
	{"q2", 4, 2000, 1000, 11, 1, 260585, 251364},
	{"q3", 4, 0, 710, 13, 1, 63795, 310052},
	{"q3", 4, 2000, 710, 13, 1, 63795, 310052},
	{"q4", 4, 0, 2332, 4, 1, 234046, 55992},
	{"q4", 4, 2000, 2000, 4, 1, 200561, 55992},
	{"q5", 4, 0, 4464, 16, 2, 173863, 317460},
	{"q5", 4, 2000, 2000, 11, 2, 81208, 211400},
}

// TestCountLineage is the whole-pipeline oracle: every cell's Count is
// deterministic at every width, and so are Partitions, CPUPartitions,
// KernelCycles and CSTBytes wherever the limit did not cut the run short
// (and at Workers = 1, where a cut run stops at the same piece every time).
// A cut run fanned out over several consumers stops wherever they happen to
// be, so those cells pin Count only. Drift is reported per cell and the
// sweep keeps going, so one run lists every cell that moved.
func TestCountLineage(t *testing.T) {
	g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 400, Seed: 42})
	ctx := context.Background()
	dev := DefaultDevice()
	dev.BRAMBytes = 32 << 10
	dev.BatchSize = 32

	engines := make(map[int]*Engine)
	queries := make(map[string]*graph.Query)
	for _, c := range lineageCells {
		if queries[c.query] == nil {
			q, err := ldbc.QueryByName(c.query)
			if err != nil {
				t.Fatal(err)
			}
			queries[c.query] = q
		}
		if engines[c.workers] == nil {
			eng, err := NewEngine(g, &Options{
				Variant: VariantShare, Device: dev, Workers: c.workers, PartitionWorkers: c.workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			engines[c.workers] = eng
		}
	}
	// Every recording measured warm calls: plan each query once per engine.
	for w, eng := range engines {
		for name, q := range queries {
			if _, err := eng.MatchContext(ctx, q); err != nil {
				t.Fatalf("%s/w%d: planning call: %v", name, w, err)
			}
		}
	}

	for _, c := range lineageCells {
		cell := fmt.Sprintf("%s/share/w%d/pw%d/l%d", c.query, c.workers, c.workers, c.limit)
		var opts []MatchOption
		if c.limit > 0 {
			opts = append(opts, WithLimit(c.limit))
		}
		res, err := engines[c.workers].MatchContext(ctx, queries[c.query], opts...)
		if err != nil {
			t.Errorf("%s: %v", cell, err)
			continue
		}
		if res.Count != c.count {
			t.Errorf("%s: count got %d want %d", cell, res.Count, c.count)
		}
		if cut := c.limit > 0 && c.count == c.limit; cut && c.workers > 1 {
			continue
		}
		for _, f := range []struct {
			name      string
			got, want int64
		}{
			{"partitions", int64(res.Partitions), int64(c.partitions)},
			{"cpu_partitions", int64(res.CPUPartitions), int64(c.cpuPartitions)},
			{"kernel_cycles", res.KernelCycles, c.kernelCycles},
			{"cst_bytes", res.CSTBytes, c.cstBytes},
		} {
			if f.got != f.want {
				t.Errorf("%s: %s got %d want %d", cell, f.name, f.got, f.want)
			}
		}
	}
}
