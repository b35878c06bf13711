package graph

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"
)

// goldenEdgeLabeled generates an edge-labelled graph mixing the three kinds
// of edge the builder accepts: unlabelled, one label on both half-edges,
// and distinct half-edge labels.
func goldenEdgeLabeled() *Graph {
	rng := rand.New(rand.NewSource(23))
	const n = 150
	b := NewBuilder(n, 4*n)
	for i := 0; i < n; i++ {
		b.AddVertex(Label(rng.Intn(5)))
	}
	for i := 0; i < 4*n; i++ {
		u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
		switch rng.Intn(3) {
		case 0:
			b.AddEdge(u, v)
		case 1:
			b.AddEdgeLabeled(u, v, EdgeLabel(1+rng.Intn(4)))
		default:
			b.AddEdgeArcs(u, v, EdgeLabel(1+rng.Intn(4)), EdgeLabel(1+rng.Intn(4)))
		}
	}
	return b.MustBuild()
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestFileFormatsGolden pins the exact bytes WriteBinary and WriteText emit
// for one edge-unlabelled and one edge-labelled generated graph, so the
// in-memory adjacency layout can change without changing either format.
func TestFileFormatsGolden(t *testing.T) {
	for _, tc := range []struct {
		name      string
		g         *Graph
		bin, text string
	}{
		{
			name: "unlabeled",
			g:    RandomPowerLaw(GenConfig{NumVertices: 200, NumLabels: 6, AvgDegree: 8, Seed: 17}),
			bin:  "ddb99177132b759bbcfdc387d4a03d1d68e20a74fa297692071e51b889cdb056",
			text: "73e8ded25dd03ef38ac1278b3c352b3edfb6a686a6c20773cdc1fa8872069a6e",
		},
		{
			name: "edge-labeled",
			g:    goldenEdgeLabeled(),
			bin:  "b621028dac875942825a107a908b5a2d6e8551a488a9bb76e221fb3bbc56ef61",
			text: "7c0bcd9afc1382718249972c83b25f221f823fdca5a042629f71d19beb8c293e",
		},
	} {
		var bin, text bytes.Buffer
		if err := WriteBinary(&bin, tc.g); err != nil {
			t.Fatalf("%s: WriteBinary: %v", tc.name, err)
		}
		if err := WriteText(&text, tc.g); err != nil {
			t.Fatalf("%s: WriteText: %v", tc.name, err)
		}
		if got := sha256Hex(bin.Bytes()); got != tc.bin {
			t.Errorf("%s: WriteBinary sha256 = %s, want %s", tc.name, got, tc.bin)
		}
		if got := sha256Hex(text.Bytes()); got != tc.text {
			t.Errorf("%s: WriteText sha256 = %s, want %s", tc.name, got, tc.text)
		}
	}
}

// sampledEdgesHash hashes g's edge list in ascending (u, v) order, u < v,
// independent of how adjacency is laid out in memory.
func sampledEdgesHash(g *Graph) string {
	var edges [][2]VertexID
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(VertexID(v)) {
			if VertexID(v) < w {
				edges = append(edges, [2]VertexID{VertexID(v), w})
			}
		}
	}
	slices.SortFunc(edges, func(a, b [2]VertexID) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	var buf []byte
	for _, e := range edges {
		buf = binary.LittleEndian.AppendUint32(buf, e[0])
		buf = binary.LittleEndian.AppendUint32(buf, e[1])
	}
	return sha256Hex(buf)
}
