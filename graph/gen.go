package graph

import (
	"math/rand"
)

// GenConfig parameterises the synthetic generators used in tests and
// property checks (the LDBC-like benchmark generator lives in package ldbc).
type GenConfig struct {
	NumVertices int
	NumLabels   int
	AvgDegree   float64
	Seed        int64
}

// RandomUniform generates an Erdős–Rényi-style labelled graph: each vertex
// gets a uniform label and ⌊n·avgDeg/2⌋ distinct random edges are inserted.
func RandomUniform(cfg GenConfig) *Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.NumVertices
	m := int(float64(n) * cfg.AvgDegree / 2)
	b := NewBuilder(n, m)
	for i := 0; i < n; i++ {
		b.AddVertex(Label(rng.Intn(cfg.NumLabels)))
	}
	for i := 0; i < m; i++ {
		u := VertexID(rng.Intn(n))
		v := VertexID(rng.Intn(n))
		b.AddEdge(u, v) // self loops and duplicates are dropped by the builder
	}
	return b.MustBuild()
}

// RandomPowerLaw generates a labelled graph with a heavy-tailed degree
// distribution via preferential attachment: each new vertex attaches
// ~avgDeg/2 edges to endpoints sampled proportionally to current degree.
// Real-world graphs' power-law degrees are what make CST workloads skewed
// (Section V-C), so tests for the workload estimator use this generator.
func RandomPowerLaw(cfg GenConfig) *Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.NumVertices
	k := int(cfg.AvgDegree / 2)
	if k < 1 {
		k = 1
	}
	b := NewBuilder(n, n*k)
	for i := 0; i < n; i++ {
		b.AddVertex(Label(rng.Intn(cfg.NumLabels)))
	}
	// endpoints repeats each vertex once per incident edge, so sampling a
	// uniform element of it is degree-proportional sampling.
	endpoints := make([]VertexID, 0, 2*n*k)
	endpoints = append(endpoints, 0)
	for v := 1; v < n; v++ {
		for j := 0; j < k && j < v; j++ {
			var w VertexID
			if rng.Float64() < 0.15 { // uniform escape keeps the graph connected-ish
				w = VertexID(rng.Intn(v))
			} else {
				w = endpoints[rng.Intn(len(endpoints))]
			}
			b.AddEdge(VertexID(v), w)
			endpoints = append(endpoints, VertexID(v), w)
		}
	}
	return b.MustBuild()
}

// RandomConnectedQuery generates a random connected query graph with nv
// vertices, extra random edges beyond the spanning tree, and labels drawn
// from the data graph's alphabet. Used by property tests to fuzz engines.
func RandomConnectedQuery(name string, nv, extraEdges, numLabels int, rng *rand.Rand) *Query {
	labels := make([]Label, nv)
	for i := range labels {
		labels[i] = Label(rng.Intn(numLabels))
	}
	var edges [][2]QueryVertex
	seen := make(map[[2]QueryVertex]bool)
	add := func(u, v QueryVertex) bool {
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]QueryVertex{u, v}] {
			return false
		}
		seen[[2]QueryVertex{u, v}] = true
		edges = append(edges, [2]QueryVertex{u, v})
		return true
	}
	for v := 1; v < nv; v++ {
		add(v, rng.Intn(v)) // random spanning tree keeps it connected
	}
	for t := 0; t < extraEdges; t++ {
		add(rng.Intn(nv), rng.Intn(nv))
	}
	q, err := NewQuery(name, labels, edges)
	if err != nil {
		panic(err) // unreachable: construction guarantees validity
	}
	return q
}

// SampleEdges returns a new graph keeping every vertex of g but only a
// uniform fraction of its edges (Fig. 17's |E(G)| scalability experiment).
// fraction is clamped to [0,1]; the sample is deterministic in seed: one
// draw per edge, edges taken by ascending (u, v) id.
func SampleEdges(g *Graph, fraction float64, seed int64) *Graph {
	if fraction >= 1 {
		return g
	}
	if fraction < 0 {
		fraction = 0
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(g.NumVertices(), int(float64(g.NumEdges())*fraction)+1)
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertex(g.Label(VertexID(v)))
	}
	var adj []halfEdge
	for v := 0; v < g.NumVertices(); v++ {
		adj = g.idOrder(VertexID(v), adj)
		for _, h := range adj {
			if VertexID(v) < h.w && rng.Float64() < fraction {
				b.AddEdge(VertexID(v), h.w)
			}
		}
	}
	return b.MustBuild()
}
