package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func graphsEqual(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Label(VertexID(v)) != b.Label(VertexID(v)) {
			return false
		}
		av, bv := a.Neighbors(VertexID(v)), b.Neighbors(VertexID(v))
		if len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

func TestTextRoundTrip(t *testing.T) {
	g := RandomUniform(GenConfig{NumVertices: 120, NumLabels: 5, AvgDegree: 6, Seed: 11})
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if !graphsEqual(g, g2) {
		t.Error("text round trip changed the graph")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := RandomPowerLaw(GenConfig{NumVertices: 150, NumLabels: 7, AvgDegree: 6, Seed: 13})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !graphsEqual(g, g2) {
		t.Error("binary round trip changed the graph")
	}
}

func TestReadTextCommentsAndErrors(t *testing.T) {
	src := "# comment\n% another\nt 2 1\nv 0 3\nv 1 4\ne 0 1\n"
	g, err := ReadText(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if g.NumVertices() != 2 || g.NumEdges() != 1 || g.Label(1) != 4 {
		t.Errorf("parsed %v", g)
	}
	bad := []string{
		"",                             // empty
		"v 0 1\n",                      // vertex before header
		"t 1 0\nv 3 0\n",               // non-dense id
		"t 1 0\nx 0 0\n",               // unknown record
		"t 2 1\nv 0 1\ne 0 1\n",        // edge to undeclared vertex (id 1 missing)
		"t 1 0\nv 0 zebra\n",           // bad label
		"t 2 1\nv 0 1\nv 1 1\ne 0 q\n", // bad edge endpoint
	}
	for i, s := range bad {
		if _, err := ReadText(strings.NewReader(s)); err == nil {
			t.Errorf("bad input %d accepted", i)
		}
	}
}

func TestReadQueryText(t *testing.T) {
	src := "t 3 3\nv 0 0\nv 1 1\nv 2 1\ne 0 1\ne 1 2\ne 0 2\n"
	q, err := ReadQueryText("tri", strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadQueryText: %v", err)
	}
	if q.NumVertices() != 3 || q.NumEdges() != 3 || q.Label(2) != 1 {
		t.Errorf("parsed %v", q)
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("accepted bad magic")
	}
	if _, err := ReadBinary(bytes.NewReader([]byte("FGB1"))); err == nil {
		t.Error("accepted truncated header")
	}
}

// binaryHeader is a bare FGB1 header (magic, n, half-edges, labels) with
// no body: the smallest input that asks ReadBinary to size its arrays.
func binaryHeader(n, nn, numLabels uint64) []byte {
	b := []byte(binMagic)
	for _, x := range []uint64{n, nn, numLabels} {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

// TestReadBinaryBoundsHeaderAllocation: a 28-byte body declaring a huge
// graph fails without the decoder allocating what the header asks for —
// out-of-range sizes before any allocation, in-range ones after reading at
// most a chunk of the missing body — and a header that would turn negative
// as an int errors instead of panicking in make.
func TestReadBinaryBoundsHeaderAllocation(t *testing.T) {
	for _, tc := range []struct {
		name string
		hdr  []byte
	}{
		{"2^40 vertices", binaryHeader(1<<40, 0, 1)},
		{"2^32-1 vertices", binaryHeader(math.MaxUint32, 0, 1)},
		{"2^32-1 vertices, 2^40 half-edges", binaryHeader(math.MaxUint32, 1<<40, 1)},
		{"2^63 vertices", binaryHeader(1<<63, 0, 1)},
		{"2^63 half-edges", binaryHeader(4, 1<<63, 1)},
		{"2^64-1 labels", binaryHeader(4, 0, math.MaxUint64)},
	} {
		if len(tc.hdr) != 28 {
			t.Fatalf("%s: header is %d bytes, want 28", tc.name, len(tc.hdr))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(bytes.NewReader(tc.hdr))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted a header with no body", tc.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: TotalAlloc grew by %d B, want < 1 MiB", tc.name, grew)
		}
	}
}

// FuzzReadBinary: ReadBinary never panics, and whatever it accepts is a
// graph that re-encodes to the bytes it was decoded from.
func FuzzReadBinary(f *testing.F) {
	for _, g := range []*Graph{
		RandomUniform(GenConfig{NumVertices: 12, NumLabels: 3, AvgDegree: 3, Seed: 1}),
		RandomPowerLaw(GenConfig{NumVertices: 20, NumLabels: 2, AvgDegree: 4, Seed: 2}),
		edgeLabeledSample(f),
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(binaryHeader(1<<40, 0, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("WriteBinary of a decoded graph: %v", err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("decoded graph re-encodes to %d bytes that are not a prefix of the %d-byte input", buf.Len(), len(data))
		}
	})
}

func TestSaveLoadFile(t *testing.T) {
	g := RandomUniform(GenConfig{NumVertices: 60, NumLabels: 3, AvgDegree: 4, Seed: 21})
	dir := t.TempDir()
	for _, format := range []string{"text", "binary"} {
		path := filepath.Join(dir, "g."+format)
		if err := SaveFile(path, format, g); err != nil {
			t.Fatalf("SaveFile(%s): %v", format, err)
		}
		g2, err := LoadFile(path)
		if err != nil {
			t.Fatalf("LoadFile(%s): %v", format, err)
		}
		if !graphsEqual(g, g2) {
			t.Errorf("%s round trip via file changed the graph", format)
		}
	}
	if err := SaveFile(filepath.Join(dir, "g.x"), "xml", g); err == nil {
		t.Error("accepted unknown format")
	}
}

func TestStats(t *testing.T) {
	g := RandomUniform(GenConfig{NumVertices: 100, NumLabels: 4, AvgDegree: 6, Seed: 5})
	s := ComputeStats("t", g)
	if s.NumVertices != 100 || s.NumEdges != g.NumEdges() {
		t.Errorf("stats mismatch: %+v", s)
	}
	if s.NumLabels > 4 || s.NumLabels < 1 {
		t.Errorf("NumLabels = %d", s.NumLabels)
	}
	hist := DegreeHistogram(g)
	total := 0
	for _, dc := range hist {
		total += dc[1]
	}
	if total != 100 {
		t.Errorf("degree histogram covers %d vertices", total)
	}
	lh := LabelHistogram(g)
	sum := 0
	for _, c := range lh {
		sum += c
	}
	if sum != 100 {
		t.Errorf("label histogram covers %d vertices", sum)
	}
}

// readTextOutOfRange holds text inputs whose numbers overflow their type or
// the declared vertex count; each must fail with an error naming its line.
var readTextOutOfRange = []struct {
	name, src, line string
}{
	{"negative vertex count", "t -1 0\n", "line 1"},
	{"edge count above n(n-1)/2", "t 3 99999999999999\n", "line 1"},
	{"vertex label above uint16", "t 1 0\nv 0 70000\n", "line 2"},
	{"edge endpoint above uint32", "t 2 1\nv 0 0\nv 1 0\ne 0 4294967297\n", "line 4"},
}

func TestReadTextBoundsNumbers(t *testing.T) {
	for _, tc := range readTextOutOfRange {
		_, err := ReadText(strings.NewReader(tc.src))
		if err == nil || !strings.Contains(err.Error(), tc.line) {
			t.Errorf("%s: ReadText = %v, want an error naming %s", tc.name, err, tc.line)
		}
	}
}

// FuzzReadText: ReadText never panics, and whatever it accepts is a valid
// graph that survives a WriteText → ReadText round trip.
func FuzzReadText(f *testing.F) {
	for _, tc := range readTextOutOfRange {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ReadText(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoded graph fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			t.Fatalf("WriteText of a decoded graph: %v", err)
		}
		g2, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-reading WriteText output: %v", err)
		}
		if !graphsEqual(g, g2) || !edgeLabelsEqual(g, g2) {
			t.Fatal("WriteText → ReadText changed the graph")
		}
	})
}
