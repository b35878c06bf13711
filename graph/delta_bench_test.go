package graph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"fastmatch/graph"
	"fastmatch/ldbc"
)

// BenchmarkApplyDelta times one small batch against the whole graph: four
// edge deletes off the hubs (both endpoints of degree at most 32, as the
// benchmark's delta generator draws them), seed 42, on the LDBC graph of
// each base. The batch is the same at every base, so time and bytes per
// op that grow with the base are the graph copy's.
func BenchmarkApplyDelta(b *testing.B) {
	for _, base := range []int{400, 1600, 6400} {
		b.Run(fmt.Sprintf("base=%d", base), func(b *testing.B) {
			g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: base, Seed: 42})
			d := graph.Delta{DelEdges: offHubEdges(g, 4, 42)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := g.ApplyDelta(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// offHubEdges draws k distinct edges of g whose endpoints both have degree
// at most 32.
func offHubEdges(g *graph.Graph, k int, seed int64) [][2]graph.VertexID {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]graph.VertexID]bool)
	var es [][2]graph.VertexID
	for len(es) < k {
		u := graph.VertexID(rng.Intn(g.NumVertices()))
		ns := g.Neighbors(u)
		if len(ns) == 0 || len(ns) > 32 {
			continue
		}
		v := ns[rng.Intn(len(ns))]
		e := [2]graph.VertexID{min(u, v), max(u, v)}
		if g.Degree(v) > 32 || seen[e] {
			continue
		}
		seen[e] = true
		es = append(es, e)
	}
	return es
}
