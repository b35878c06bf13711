package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// triangleWithTail builds the 4-vertex graph 0-1-2-0, 2-3 with labels
// A,B,B,C used across the basic tests.
func triangleWithTail(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdgeList(
		[]Label{0, 1, 1, 2},
		[][2]VertexID{{0, 1}, {1, 2}, {0, 2}, {2, 3}},
	)
	if err != nil {
		t.Fatalf("FromEdgeList: %v", err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := triangleWithTail(t)
	if g.NumVertices() != 4 {
		t.Errorf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", g.NumEdges())
	}
	if g.Degree(2) != 3 {
		t.Errorf("Degree(2) = %d, want 3", g.Degree(2))
	}
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d, want 3", g.MaxDegree())
	}
	if got := g.AvgDegree(); got != 2 {
		t.Errorf("AvgDegree = %v, want 2", got)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderDeduplicatesAndDropsSelfLoops(t *testing.T) {
	b := NewBuilder(3, 6)
	b.AddVertex(0)
	b.AddVertex(0)
	b.AddVertex(0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop
	b.AddEdge(1, 2)
	g := b.MustBuild()
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	if g.HasEdge(2, 2) {
		t.Error("self loop survived")
	}
}

func TestBuilderRejectsDanglingEdge(t *testing.T) {
	b := NewBuilder(1, 1)
	b.AddVertex(0)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted edge to missing vertex")
	}
}

func TestHasEdge(t *testing.T) {
	g := triangleWithTail(t)
	cases := []struct {
		u, v VertexID
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {0, 2, true}, {2, 3, true},
		{0, 3, false}, {1, 3, false}, {3, 3, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestVerticesWithLabel(t *testing.T) {
	g := triangleWithTail(t)
	if got := g.VerticesWithLabel(1); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("VerticesWithLabel(1) = %v, want [1 2]", got)
	}
	if got := g.VerticesWithLabel(7); got != nil {
		t.Errorf("VerticesWithLabel(7) = %v, want nil", got)
	}
	if g.LabelFrequency(2) != 1 {
		t.Errorf("LabelFrequency(2) = %d, want 1", g.LabelFrequency(2))
	}
}

func TestNeighborsWithLabelAndDegreeWithLabel(t *testing.T) {
	g := triangleWithTail(t)
	got := g.NeighborsWithLabel(2, 1, nil)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("NeighborsWithLabel(2, 1) = %v, want [1]", got)
	}
	if d := g.DegreeWithLabel(2, 0); d != 1 {
		t.Errorf("DegreeWithLabel(2, 0) = %d, want 1", d)
	}
	if d := g.DegreeWithLabel(2, 2); d != 1 {
		t.Errorf("DegreeWithLabel(2, 2) = %d, want 1", d)
	}
}

func TestRandomUniformValid(t *testing.T) {
	g := RandomUniform(GenConfig{NumVertices: 500, NumLabels: 5, AvgDegree: 8, Seed: 1})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumVertices() != 500 {
		t.Errorf("NumVertices = %d", g.NumVertices())
	}
	if g.AvgDegree() < 4 || g.AvgDegree() > 8.5 {
		t.Errorf("AvgDegree = %v, outside plausible range", g.AvgDegree())
	}
}

func TestRandomPowerLawHeavyTail(t *testing.T) {
	g := RandomPowerLaw(GenConfig{NumVertices: 3000, NumLabels: 5, AvgDegree: 8, Seed: 7})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// A power-law graph's max degree should dwarf the average.
	if float64(g.MaxDegree()) < 4*g.AvgDegree() {
		t.Errorf("MaxDegree %d vs avg %.1f: tail not heavy", g.MaxDegree(), g.AvgDegree())
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := RandomUniform(GenConfig{NumVertices: 200, NumLabels: 4, AvgDegree: 6, Seed: 42})
	b := RandomUniform(GenConfig{NumVertices: 200, NumLabels: 4, AvgDegree: 6, Seed: 42})
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		av, bv := a.Neighbors(VertexID(v)), b.Neighbors(VertexID(v))
		if len(av) != len(bv) {
			t.Fatalf("vertex %d: degree mismatch", v)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("vertex %d: adjacency mismatch", v)
			}
		}
	}
}

func TestSampleEdges(t *testing.T) {
	g := RandomUniform(GenConfig{NumVertices: 1000, NumLabels: 3, AvgDegree: 10, Seed: 3})
	half := SampleEdges(g, 0.5, 9)
	if err := half.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if half.NumVertices() != g.NumVertices() {
		t.Errorf("sampling changed |V|: %d vs %d", half.NumVertices(), g.NumVertices())
	}
	ratio := float64(half.NumEdges()) / float64(g.NumEdges())
	if ratio < 0.42 || ratio > 0.58 {
		t.Errorf("edge ratio %.3f, want ≈0.5", ratio)
	}
	// Every sampled edge must exist in the original.
	for v := 0; v < half.NumVertices(); v++ {
		for _, w := range half.Neighbors(VertexID(v)) {
			if !g.HasEdge(VertexID(v), w) {
				t.Fatalf("sample invented edge (%d,%d)", v, w)
			}
		}
	}
	// The sample itself is pinned: one draw per edge, in ascending id order.
	if got, want := sampledEdgesHash(half), "8fcaeb628ffff45e7a2c7cc68de57dfb55cba762090351a78dd96f41b8027c69"; got != want {
		t.Errorf("sampled edge list sha256 = %s, want %s", got, want)
	}
	if full := SampleEdges(g, 1.0, 9); full != g {
		t.Error("fraction 1.0 should return the original graph")
	}
	if empty := SampleEdges(g, 0, 9); empty.NumEdges() != 0 {
		t.Errorf("fraction 0 kept %d edges", empty.NumEdges())
	}
}

// Property: HasEdge is symmetric and consistent with Neighbors on random
// graphs.
func TestHasEdgeSymmetryProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomUniform(GenConfig{
			NumVertices: 50 + rng.Intn(100),
			NumLabels:   1 + rng.Intn(5),
			AvgDegree:   1 + rng.Float64()*8,
			Seed:        seed,
		})
		for trial := 0; trial < 200; trial++ {
			u := VertexID(rng.Intn(g.NumVertices()))
			v := VertexID(rng.Intn(g.NumVertices()))
			if g.HasEdge(u, v) != g.HasEdge(v, u) {
				return false
			}
		}
		for v := 0; v < g.NumVertices(); v++ {
			for _, w := range g.Neighbors(VertexID(v)) {
				if !g.HasEdge(VertexID(v), w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: degree sums to twice the edge count.
func TestDegreeSumProperty(t *testing.T) {
	check := func(seed int64) bool {
		g := RandomPowerLaw(GenConfig{NumVertices: 300, NumLabels: 4, AvgDegree: 6, Seed: seed})
		sum := 0
		for v := 0; v < g.NumVertices(); v++ {
			sum += g.Degree(VertexID(v))
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
