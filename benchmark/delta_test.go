package main

import (
	"math/rand"
	"testing"

	"fastmatch/graph"
	"fastmatch/ldbc"
)

func TestDeltaGenMakesBatchesApplyDeltaAccepts(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g0 := ldbc.Generate(ldbc.Config{BasePersons: 60, Seed: seed})
		gen := deltaGen{rng: rand.New(rand.NewSource(seed)), mirror: g0}
		var batches []graph.Delta
		for k := 0; k < 200; k++ {
			d := gen.next() // panics on a batch its own mirror rejects
			if n := d.Ops(); n < 1 || n > maxBatchOps {
				t.Fatalf("seed %d batch %d has %d ops", seed, k, n)
			}
			if len(d.AddVertices)+len(d.DelVertices) != 0 {
				t.Fatalf("seed %d batch %d touches vertices: not label-preserving", seed, k)
			}
			batches = append(batches, d)
		}
		// The served graph sees the batches one by one, from epoch 0.
		g := g0
		for k, d := range batches {
			next, _, err := g.ApplyDelta(d)
			if err != nil {
				t.Fatalf("seed %d batch %d rejected: %v", seed, k, err)
			}
			g = next
		}
		if g.Epoch() != 200 || gen.mirror.NumEdges() != g.NumEdges() {
			t.Errorf("seed %d: replay reached epoch %d with %d edges, mirror has %d", seed, g.Epoch(), g.NumEdges(), gen.mirror.NumEdges())
		}
		for l := 0; l < g0.NumLabels(); l++ {
			if (g0.LabelFrequency(graph.Label(l)) > 0) != (g.LabelFrequency(graph.Label(l)) > 0) {
				t.Errorf("seed %d: label %d's liveness changed", seed, l)
			}
		}
	}
}
