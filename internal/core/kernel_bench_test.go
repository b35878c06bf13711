package core

import (
	"fmt"
	"testing"

	"fastmatch/graph"
	"fastmatch/internal/cst"
	"fastmatch/internal/fpgasim"
	"fastmatch/internal/order"
	"fastmatch/ldbc"
)

// ldbcGraph is the seed-42 LDBC graph the kernel tests and benchmarks run
// over.
func ldbcGraph(basePersons int) *graph.Graph {
	return ldbc.Generate(ldbc.Config{BasePersons: basePersons, Seed: 42})
}

// ldbcPlan builds the (CST, order) pair the kernel tests and benchmarks run
// over, mirroring host.Prepare without importing it (host depends on core).
func ldbcPlan(tb testing.TB, g *graph.Graph, queryName string) (*cst.CST, order.Order) {
	tb.Helper()
	q, err := ldbc.QueryByName(queryName)
	if err != nil {
		tb.Fatal(err)
	}
	root := order.SelectRoot(q, g)
	tree := order.BuildBFSTree(q, root)
	c := cst.Build(q, g, tree)
	return c, order.PathBased(tree, c)
}

// BenchmarkKernelRound measures one full kernel execution over an
// unpartitioned CST — the Run loop is all batch rounds, so ns/op and
// allocs/op track exactly the per-round hot path (Generator, Visited
// Validator, Edge Validator, Synchronizer). The base-1600 sweep is the
// kernel census cell (default card, VariantSep, a warm Scratch as the host
// pool provides): there 72–95% of the partials are generated at the last
// query vertex, and on q2/q3/q5 nearly all of those fail validation.
func BenchmarkKernelRound(b *testing.B) {
	for _, sc := range []struct {
		base    int
		queries []string
		scratch bool
	}{
		{200, []string{"q1", "q5"}, false},
		{1600, []string{"q0", "q1", "q2", "q3", "q5"}, true},
	} {
		g := ldbcGraph(sc.base)
		for _, name := range sc.queries {
			c, o := ldbcPlan(b, g, name)
			opts := Options{Variant: VariantSep, Config: fpgasim.DefaultConfig()}
			if sc.scratch {
				opts.Scratch = new(Scratch)
			}
			b.Run(fmt.Sprintf("base=%d/%s", sc.base, name), func(b *testing.B) {
				b.ReportAllocs()
				var count int64
				for i := 0; i < b.N; i++ {
					res, err := Run(c, o, opts)
					if err != nil {
						b.Fatal(err)
					}
					if count == 0 {
						count = res.Count
					} else if res.Count != count {
						b.Fatalf("count drift: %d then %d", count, res.Count)
					}
				}
			})
		}
	}
}

// BenchmarkKernelRoundScratch is BenchmarkKernelRound with one reused
// Scratch — the steady state of host.Match's sync.Pool, where the arena is
// allocated once and every later run borrows it.
func BenchmarkKernelRoundScratch(b *testing.B) {
	for _, name := range []string{"q1", "q5"} {
		c, o := ldbcPlan(b, ldbcGraph(200), name)
		cfg := fpgasim.DefaultConfig()
		opts := Options{Variant: VariantSep, Config: cfg, Scratch: new(Scratch)}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(c, o, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelRoundCollect includes embedding materialisation, whose
// per-embedding allocations are inherent to the Collect contract.
func BenchmarkKernelRoundCollect(b *testing.B) {
	c, o := ldbcPlan(b, ldbcGraph(200), "q1")
	cfg := fpgasim.DefaultConfig()
	opts := Options{Variant: VariantSep, Config: cfg, Collect: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c, o, opts); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSink graph.VertexID

// BenchmarkVertexLookup pins the cost of the innermost CST probe the
// validators perform per candidate.
func BenchmarkVertexLookup(b *testing.B) {
	c, _ := ldbcPlan(b, ldbcGraph(200), "q1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = c.Vertex(0, 0)
	}
}
