package main

import (
	"math/rand"

	"fastmatch/graph"
)

const (
	// maxBatchOps is the largest delta batch the generator makes.
	maxBatchOps = 8
	// maxOpDegree keeps ops off the hubs of the power-law graph: the region
	// a batch dirties, and with it what notify enumerates and allocates,
	// grows with the degrees it touches, and one hub would let the seed
	// decide a run's cost. 97% of the vertices are at or below it.
	maxOpDegree = 32
)

// deltaGen makes the write side of serve_mutate: seeded batches of 1 to 8
// edge inserts and deletes that are valid against a mirror of the served
// graph, which it advances as it goes. Batches touch no vertex, so the set
// of live labels never changes and the Router carries plan seeds across
// every one of them (a label-preserving batch: the next call of each query
// shape rebuilds its CST but keeps root, tree and order). cmd/fastmutate
// has a generator too, but in package main, so the benchmark carries its
// own.
type deltaGen struct {
	rng    *rand.Rand
	mirror *graph.Graph
}

// next returns the next batch and applies it to the mirror.
func (d *deltaGen) next() graph.Delta {
	g := d.mirror
	var batch graph.Delta
	used := map[[2]graph.VertexID]bool{}
	canon := func(u, v graph.VertexID) [2]graph.VertexID {
		if u > v {
			u, v = v, u
		}
		return [2]graph.VertexID{u, v}
	}
	want := 1 + d.rng.Intn(maxBatchOps)
	// An op is built around an existing edge (u, v) so that inserts keep
	// the generator's relation shapes: delete it, or give u another
	// neighbour with v's label. A draw that collides with the batch or the
	// graph is simply redrawn.
	for batch.Ops() < want {
		u := graph.VertexID(d.rng.Intn(g.NumVertices()))
		nbrs := g.Neighbors(u)
		if len(nbrs) == 0 || len(nbrs) > maxOpDegree {
			continue
		}
		v := nbrs[d.rng.Intn(len(nbrs))]
		if g.Degree(v) > maxOpDegree {
			continue
		}
		if d.rng.Intn(2) == 0 {
			if e := canon(u, v); !used[e] {
				used[e] = true
				batch.DelEdges = append(batch.DelEdges, [2]graph.VertexID{u, v})
			}
			continue
		}
		peers := g.VerticesWithLabel(g.Label(v))
		w := peers[d.rng.Intn(len(peers))]
		if e := canon(u, w); w != u && g.Degree(w) <= maxOpDegree && !g.HasEdge(u, w) && !used[e] {
			used[e] = true
			batch.AddEdges = append(batch.AddEdges, [2]graph.VertexID{u, w})
		}
	}
	next, _, err := g.ApplyDelta(batch)
	if err != nil {
		panic("benchmark: delta generator made an invalid batch: " + err.Error())
	}
	d.mirror = next
	return batch
}
