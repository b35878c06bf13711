package graph

import (
	"bytes"
	"strings"
	"testing"
)

func edgeLabeledSample(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(4, 4)
	b.AddVertex(0)
	b.AddVertex(1)
	b.AddVertex(1)
	b.AddVertex(2)
	b.AddEdgeLabeled(0, 1, 3)
	b.AddEdgeArcs(1, 2, 4, 5)
	b.AddEdge(2, 3) // unlabeled → wildcard half-edges
	return b.MustBuild()
}

func edgeLabelsEqual(a, b *Graph) bool {
	if a.EdgeLabeled() != b.EdgeLabeled() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		for _, w := range a.Neighbors(VertexID(v)) {
			la, _ := a.EdgeLabelBetween(VertexID(v), w)
			lb, _ := b.EdgeLabelBetween(VertexID(v), w)
			if la != lb {
				return false
			}
		}
	}
	return true
}

func TestTextRoundTripEdgeLabels(t *testing.T) {
	g := edgeLabeledSample(t)
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "e 0 1 3") {
		t.Errorf("symmetric label not written:\n%s", out)
	}
	if !strings.Contains(out, "e 1 2 4 5") {
		t.Errorf("arc labels not written:\n%s", out)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, g2) || !edgeLabelsEqual(g, g2) {
		t.Error("text round trip lost edge labels")
	}
}

func TestBinaryRoundTripEdgeLabels(t *testing.T) {
	g := edgeLabeledSample(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("FGB2")) {
		t.Error("edge-labeled graph not written as FGB2")
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, g2) || !edgeLabelsEqual(g, g2) {
		t.Error("binary round trip lost edge labels")
	}
}

func TestBinaryV1StillUnlabeled(t *testing.T) {
	g := RandomUniform(GenConfig{NumVertices: 30, NumLabels: 2, AvgDegree: 4, Seed: 2})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("FGB1")) {
		t.Error("unlabeled graph not written as FGB1")
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.EdgeLabeled() {
		t.Error("V1 graph came back edge-labeled")
	}
}

func TestReadQueryTextEdgeLabels(t *testing.T) {
	src := "t 2 1\nv 0 0\nv 1 1\ne 0 1 7\n"
	q, err := ReadQueryText("lq", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if q.EdgeLabel(0, 1) != 7 || q.EdgeLabel(1, 0) != 7 {
		t.Errorf("labels %d/%d, want 7/7", q.EdgeLabel(0, 1), q.EdgeLabel(1, 0))
	}
	src2 := "t 2 1\nv 0 0\nv 1 1\ne 0 1 7 9\n"
	q2, err := ReadQueryText("aq", strings.NewReader(src2))
	if err != nil {
		t.Fatal(err)
	}
	if q2.EdgeLabel(0, 1) != 7 || q2.EdgeLabel(1, 0) != 9 {
		t.Errorf("arc labels %d/%d, want 7/9", q2.EdgeLabel(0, 1), q2.EdgeLabel(1, 0))
	}
}

func TestReadTextRejectsBadEdgeLabels(t *testing.T) {
	bad := []string{
		"t 2 1\nv 0 0\nv 1 1\ne 0 1 x\n",
		"t 2 1\nv 0 0\nv 1 1\ne 0 1 1 y\n",
	}
	for i, s := range bad {
		if _, err := ReadText(strings.NewReader(s)); err == nil {
			t.Errorf("bad edge label %d accepted", i)
		}
	}
}

func TestSaveLoadFileEdgeLabels(t *testing.T) {
	g := edgeLabeledSample(t)
	dir := t.TempDir()
	for _, format := range []string{"text", "binary"} {
		path := dir + "/g-" + format
		if err := SaveFile(path, format, g); err != nil {
			t.Fatal(err)
		}
		g2, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !edgeLabelsEqual(g, g2) {
			t.Errorf("%s file round trip lost edge labels", format)
		}
	}
}
