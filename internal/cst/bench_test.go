package cst

import (
	"fmt"
	"testing"

	"fastmatch/internal/order"
	"fastmatch/ldbc"
)

// benchInput builds the LDBC-like data graph and one query's BFS tree,
// shared by the build and partition benchmarks.
func benchInput(b *testing.B, queryName string, basePersons int) (*CST, order.Order, PartitionConfig) {
	b.Helper()
	g := ldbc.Generate(ldbc.Config{BasePersons: basePersons, Seed: 42})
	q, err := ldbc.QueryByName(queryName)
	if err != nil {
		b.Fatal(err)
	}
	root := order.SelectRoot(q, g)
	tree := order.BuildBFSTree(q, root)
	c := Build(q, g, tree)
	o := order.PathBased(tree, c)
	// Thresholds small enough that the benchmark CSTs really split, the way
	// the bench harness shrinks the modelled card.
	cfg := PartitionConfig{MaxSizeBytes: 16 << 10, MaxCandDegree: 64}
	return c, o, cfg
}

// BenchmarkCSTBuild measures Algorithm 1 (candidate filtering plus both
// adjacency passes) — the host-side critical path the FPGA idles behind.
func BenchmarkCSTBuild(b *testing.B) {
	for _, name := range []string{"q1", "q5"} {
		g := ldbc.Generate(ldbc.Config{BasePersons: 200, Seed: 42})
		q, err := ldbc.QueryByName(name)
		if err != nil {
			b.Fatal(err)
		}
		root := order.SelectRoot(q, g)
		tree := order.BuildBFSTree(q, root)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := Build(q, g, tree)
				if c.IsEmpty() {
					b.Fatal("empty CST")
				}
			}
		})
	}
}

// BenchmarkPartition measures Algorithm 2's sequential restrict-and-recurse
// over a CST that genuinely violates the thresholds.
func BenchmarkPartition(b *testing.B) {
	for _, name := range []string{"q1", "q5"} {
		c, o, cfg := benchInput(b, name, 200)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var pieces int
			for i := 0; i < b.N; i++ {
				n := Partition(c, o, cfg, func(*CST) {})
				if pieces == 0 {
					pieces = n
				} else if n != pieces {
					b.Fatalf("piece drift: %d then %d", pieces, n)
				}
			}
		})
	}
}

// BenchmarkCSTBuildWorkers measures the parallel stamp-probe build across
// pool sizes; workers=1 is the serial Build baseline on the same input.
func BenchmarkCSTBuildWorkers(b *testing.B) {
	g := ldbc.Generate(ldbc.Config{BasePersons: 200, Seed: 42})
	q, err := ldbc.QueryByName("q5")
	if err != nil {
		b.Fatal(err)
	}
	root := order.SelectRoot(q, g)
	tree := order.BuildBFSTree(q, root)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := BuildWorkers(q, g, tree, workers)
				if c.IsEmpty() {
					b.Fatal("empty CST")
				}
			}
		})
	}
}

// BenchmarkEnumerate measures the prepared Enumerator's count-only walk — a
// pooled enumerator Reset against the same CST each iteration, the shape
// host.Match's inactive-counter path runs per partition piece.
func BenchmarkEnumerate(b *testing.B) {
	for _, name := range []string{"q1", "q5"} {
		c, o, _ := benchInput(b, name, 200)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var e Enumerator
			var n int64
			for i := 0; i < b.N; i++ {
				e.Reset(c, o)
				n = e.Run(nil)
			}
			if n == 0 {
				b.Fatal("no embeddings")
			}
		})
	}
}
