package graph

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// The text format is the one used by most subgraph-matching codebases
// (CFL-Match, DAF, CECI and the in-memory study of Sun & Luo):
//
//	t <numVertices> <numEdges>
//	v <id> <label> [degree]
//	e <u> <v> [fwdEdgeLabel [revEdgeLabel]]
//
// Lines starting with '#' or '%' are comments. The optional degree field is
// ignored on load and emitted on save for compatibility. Edge labels are
// emitted only for edge-labeled graphs; a single label means both
// half-edges carry it, two labels encode a directed relation.

// WriteText serialises g in the text format, each vertex's edges in
// ascending id order.
func WriteText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "t %d %d\n", g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Fprintf(bw, "v %d %d %d\n", v, g.Label(VertexID(v)), g.Degree(VertexID(v)))
	}
	var adj []halfEdge
	for v := 0; v < g.NumVertices(); v++ {
		adj = g.idOrder(VertexID(v), adj)
		for _, h := range adj {
			w2 := h.w
			if VertexID(v) >= w2 {
				continue
			}
			if !g.EdgeLabeled() {
				fmt.Fprintf(bw, "e %d %d\n", v, w2)
				continue
			}
			fwd := h.l
			rev, _ := g.EdgeLabelBetween(w2, VertexID(v))
			if fwd == rev {
				fmt.Fprintf(bw, "e %d %d %d\n", v, w2, fwd)
			} else {
				fmt.Fprintf(bw, "e %d %d %d %d\n", v, w2, fwd, rev)
			}
		}
	}
	return bw.Flush()
}

// maxTextPrealloc caps the vertices and edges ReadText preallocates from
// its header; a larger graph grows the builder as its lines arrive.
const maxTextPrealloc = 1 << 16

// ReadText parses the text format into a Graph. The input is untrusted:
// every number is range-checked before it is converted — vertex ids and
// edge endpoints against the header's vertex count, labels against
// uint16 — and the header's counts bound, never size, what the builder
// preallocates. Errors name the offending line.
func ReadText(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var b *Builder
	var n uint64 // vertex count the header declares
	var fields []string
	line := 0
	// num parses fields[i] as a decimal integer below limit.
	num := func(i int, what string, limit uint64) (uint64, error) {
		x, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("graph io: line %d: %s: %v", line, what, err)
		}
		if x >= limit {
			return 0, fmt.Errorf("graph io: line %d: %s %d out of range (limit %d)", line, what, x, limit)
		}
		return x, nil
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields = strings.Fields(text)
		switch fields[0] {
		case "t":
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph io: line %d: malformed header", line)
			}
			var err error
			if n, err = num(1, "vertex count", maxBinaryVertices+1); err != nil {
				return nil, err
			}
			m, err := num(2, "edge count", n*(n-1)/2+1)
			if err != nil {
				return nil, err
			}
			b = NewBuilder(int(min(n, maxTextPrealloc)), int(min(m, maxTextPrealloc)))
		case "v":
			if b == nil {
				return nil, fmt.Errorf("graph io: line %d: 'v' before 't' header", line)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph io: line %d: malformed vertex", line)
			}
			id, err := num(1, "vertex id", n)
			if err != nil {
				return nil, err
			}
			if id != uint64(b.NumVertices()) {
				return nil, fmt.Errorf("graph io: line %d: vertex ids must be dense and ascending (got %d, want %d)", line, id, b.NumVertices())
			}
			l, err := num(2, "vertex label", maxBinaryLabels)
			if err != nil {
				return nil, err
			}
			b.AddVertex(Label(l))
		case "e":
			if b == nil {
				return nil, fmt.Errorf("graph io: line %d: 'e' before 't' header", line)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph io: line %d: malformed edge", line)
			}
			var ends, labs [2]uint64
			for i := range ends {
				var err error
				if ends[i], err = num(1+i, "edge endpoint", n); err != nil {
					return nil, err
				}
			}
			for i := 0; i < 2 && 3+i < len(fields); i++ {
				var err error
				if labs[i], err = num(3+i, "edge label", maxBinaryLabels); err != nil {
					return nil, err
				}
			}
			u, v := VertexID(ends[0]), VertexID(ends[1])
			switch len(fields) {
			case 3:
				b.AddEdge(u, v)
			case 4:
				b.AddEdgeLabeled(u, v, EdgeLabel(labs[0]))
			default:
				b.AddEdgeArcs(u, v, EdgeLabel(labs[0]), EdgeLabel(labs[1]))
			}
		default:
			return nil, fmt.Errorf("graph io: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph io: empty input")
	}
	return b.Build()
}

// ReadQueryText parses the same text format into a Query.
func ReadQueryText(name string, r io.Reader) (*Query, error) {
	g, err := ReadText(r)
	if err != nil {
		return nil, err
	}
	labels := make([]Label, g.NumVertices())
	var edges [][2]QueryVertex
	for v := 0; v < g.NumVertices(); v++ {
		labels[v] = g.Label(VertexID(v))
		for _, w := range g.Neighbors(VertexID(v)) {
			if VertexID(v) < w {
				edges = append(edges, [2]QueryVertex{v, int(w)})
			}
		}
	}
	q, err := NewQuery(name, labels, edges)
	if err != nil {
		return nil, err
	}
	if g.EdgeLabeled() {
		for _, e := range edges {
			fwd, _ := g.EdgeLabelBetween(VertexID(e[0]), VertexID(e[1]))
			rev, _ := g.EdgeLabelBetween(VertexID(e[1]), VertexID(e[0]))
			if fwd != WildcardEdgeLabel || rev != WildcardEdgeLabel {
				if err := q.SetEdgeArcLabels(e[0], e[1], fwd, rev); err != nil {
					return nil, err
				}
			}
		}
	}
	return q, nil
}

// LoadFile reads a graph from path, choosing binary format when the file
// starts with the binary magic and text otherwise.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	head, err := br.Peek(4)
	if err == nil && (string(head) == binMagic || string(head) == binMagic2) {
		return ReadBinary(br)
	}
	return ReadText(br)
}

// SaveFile writes g to path in the given format ("text" or "binary").
func SaveFile(path, format string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case "text":
		return WriteText(f, g)
	case "binary":
		return WriteBinary(f, g)
	default:
		return fmt.Errorf("graph io: unknown format %q", format)
	}
}

const (
	binMagic  = "FGB1" // FAST graph binary, version 1 (vertex labels only)
	binMagic2 = "FGB2" // version 2: adds per-half-edge labels
)

// WriteBinary serialises g in a compact little-endian binary format:
// magic, n, m, labels, offsets, neighbours[, edge labels], each vertex's
// neighbours (and edge labels) in ascending id order.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	magic := binMagic
	if g.EdgeLabeled() {
		magic = binMagic2
	}
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	hdr := [3]uint64{uint64(g.NumVertices()), uint64(len(g.neighbors)), uint64(g.numLabels)}
	for _, x := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, x); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.labels); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.offsets); err != nil {
		return err
	}
	ids := make([]VertexID, 0, len(g.neighbors))
	var elabs []EdgeLabel
	if g.EdgeLabeled() {
		elabs = make([]EdgeLabel, 0, len(g.neighbors))
	}
	var adj []halfEdge
	for v := 0; v < g.NumVertices(); v++ {
		adj = g.idOrder(VertexID(v), adj)
		for _, h := range adj {
			ids = append(ids, h.w)
			if elabs != nil {
				elabs = append(elabs, h.l)
			}
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, ids); err != nil {
		return err
	}
	if g.EdgeLabeled() {
		if err := binary.Write(bw, binary.LittleEndian, elabs); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// idOrder returns v's half-edges in ascending neighbour id order, the order
// both file formats store and SampleEdges draws in, reusing buf.
func (g *Graph) idOrder(v VertexID, buf []halfEdge) []halfEdge {
	buf = buf[:0]
	labs := g.EdgeLabels(v)
	for i, w := range g.Neighbors(v) {
		h := halfEdge{w: w}
		if labs != nil {
			h.l = labs[i]
		}
		buf = append(buf, h)
	}
	slices.SortFunc(buf, func(a, b halfEdge) int { return cmp.Compare(a.w, b.w) })
	return buf
}

// Header bounds for ReadBinary and ReadText: vertex ids are uint32 and
// labels uint16, so no valid graph declares more, and a simple graph on n
// vertices has at most n(n−1) half-edges (which cannot overflow a uint64
// under this vertex bound).
const (
	maxBinaryVertices = math.MaxUint32
	maxBinaryLabels   = 1 << 16
)

// ReadBinary parses the binary format written by WriteBinary. The header's
// sizes are untrusted: each is range-checked, and every array is read in
// bounded chunks, so what ReadBinary allocates follows the bytes actually
// received rather than the sizes a header declares.
func ReadBinary(r io.Reader) (*Graph, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	if string(magic) != binMagic && string(magic) != binMagic2 {
		return nil, fmt.Errorf("graph io: bad magic %q", magic)
	}
	var hdr [3]uint64
	for i := range hdr {
		if err := binary.Read(r, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, err
		}
	}
	switch {
	case hdr[0] > maxBinaryVertices:
		return nil, fmt.Errorf("graph io: header declares %d vertices (max %d)", hdr[0], uint64(maxBinaryVertices))
	case hdr[1] > hdr[0]*(hdr[0]-1):
		return nil, fmt.Errorf("graph io: header declares %d half-edges for %d vertices", hdr[1], hdr[0])
	case hdr[2] > maxBinaryLabels:
		return nil, fmt.Errorf("graph io: header declares %d labels (max %d)", hdr[2], maxBinaryLabels)
	}
	n, nn, numLabels := int(hdr[0]), int(hdr[1]), int(hdr[2])
	g := &Graph{numLabels: numLabels}
	var err error
	if g.labels, err = readChunked[Label](r, n); err != nil {
		return nil, err
	}
	if g.offsets, err = readChunked[int64](r, n+1); err != nil {
		return nil, err
	}
	if g.neighbors, err = readChunked[VertexID](r, nn); err != nil {
		return nil, err
	}
	if string(magic) == binMagic2 {
		if g.edgeLabels, err = readChunked[EdgeLabel](r, nn); err != nil {
			return nil, err
		}
	}
	// Corrupt labels, offsets, out-of-range neighbours or adjacency that is
	// not strictly id-sorted must fail before the adjacency is regrouped.
	for _, l := range g.labels {
		if int(l) >= numLabels {
			return nil, fmt.Errorf("graph io: label %d out of range (numLabels=%d)", l, numLabels)
		}
	}
	if g.offsets[0] != 0 || g.offsets[n] != int64(nn) {
		return nil, fmt.Errorf("graph io: corrupt binary graph: offsets endpoints [%d,%d]", g.offsets[0], g.offsets[n])
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return nil, fmt.Errorf("graph io: corrupt binary graph: offsets not monotone at %d", v)
		}
	}
	for v := 0; v < n; v++ {
		adj := g.Neighbors(VertexID(v))
		for i, w := range adj {
			if int(w) >= n {
				return nil, fmt.Errorf("graph io: corrupt binary graph: neighbour %d out of range (n=%d)", w, n)
			}
			if i > 0 && adj[i-1] >= w {
				return nil, fmt.Errorf("graph io: corrupt binary graph: adjacency of %d not strictly id-sorted", v)
			}
		}
	}
	g.byLabel = make([][]VertexID, numLabels)
	for v, l := range g.labels {
		g.byLabel[l] = append(g.byLabel[l], VertexID(v))
	}
	g.runOff = make([]int64, n+1)
	var buf []halfEdge
	for v := 0; v < n; v++ {
		buf = g.groupByLabel(v, buf)
		g.maxDegree = max(g.maxDegree, g.Degree(VertexID(v)))
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph io: corrupt binary graph: %v", err)
	}
	return g, nil
}

// readChunked reads n little-endian values of T. It reads at most
// readChunk values at a time and grows the slice geometrically up to n, so
// a stream that ends early fails having allocated about twice what it
// delivered, and a complete one ends with capacity exactly n.
func readChunked[T Label | VertexID | int64](r io.Reader, n int) ([]T, error) {
	const readChunk = 1 << 16
	out := make([]T, 0, min(n, readChunk))
	for len(out) < n {
		if len(out) == cap(out) {
			grown := make([]T, len(out), min(n, 2*cap(out)))
			copy(grown, out)
			out = grown
		}
		k := min(cap(out)-len(out), readChunk)
		if err := binary.Read(r, binary.LittleEndian, out[len(out):len(out)+k]); err != nil {
			return nil, err
		}
		out = out[:len(out)+k]
	}
	return out, nil
}
