package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// deltaModel is the mutable reference implementation randomized batches are
// checked against: plain maps, rebuilt into expectations from scratch after
// every ApplyDelta — the rebuild-from-scratch oracle.
type deltaModel struct {
	labels  []Label
	deleted map[VertexID]bool
	edges   map[[2]VertexID]EdgeLabel // canonical u<v
	labeled bool
}

func newDeltaModel(g *Graph) *deltaModel {
	m := &deltaModel{
		labels:  append([]Label(nil), g.labels...),
		deleted: make(map[VertexID]bool),
		edges:   make(map[[2]VertexID]EdgeLabel),
		labeled: g.EdgeLabeled(),
	}
	for v := 0; v < g.NumVertices(); v++ {
		for i, w := range g.Neighbors(VertexID(v)) {
			if VertexID(v) < w {
				var l EdgeLabel
				if m.labeled {
					l = g.EdgeLabels(VertexID(v))[i]
				}
				m.edges[[2]VertexID{VertexID(v), w}] = l
			}
		}
	}
	return m
}

func (m *deltaModel) apply(d Delta) {
	m.labels = append(m.labels, d.AddVertices...)
	for _, v := range d.DelVertices {
		m.deleted[v] = true
		for k := range m.edges {
			if k[0] == v || k[1] == v {
				delete(m.edges, k)
			}
		}
	}
	for i, e := range d.AddEdges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		var l EdgeLabel
		if len(d.AddEdgeLabels) > 0 {
			l = d.AddEdgeLabels[i]
		}
		m.edges[[2]VertexID{u, v}] = l
	}
	for _, e := range d.DelEdges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		delete(m.edges, [2]VertexID{u, v})
	}
}

// adjacency returns every vertex's expected adjacency, in (label, id)
// order, with aligned half-edge labels (nil lists on an edge-unlabelled
// model). It makes one pass over the edges, so checking a graph of
// thousands of vertices stays linear in its size.
func (m *deltaModel) adjacency() ([][]VertexID, [][]EdgeLabel) {
	hs := make([][]halfEdge, len(m.labels))
	for k, l := range m.edges {
		hs[k[0]] = append(hs[k[0]], halfEdge{w: k[1], l: l})
		hs[k[1]] = append(hs[k[1]], halfEdge{w: k[0], l: l})
	}
	ns := make([][]VertexID, len(hs))
	var ls [][]EdgeLabel
	if m.labeled {
		ls = make([][]EdgeLabel, len(hs))
	}
	for v, h := range hs {
		sort.Slice(h, func(i, j int) bool {
			if li, lj := m.labels[h[i].w], m.labels[h[j].w]; li != lj {
				return li < lj
			}
			return h[i].w < h[j].w
		})
		for _, e := range h {
			ns[v] = append(ns[v], e.w)
			if m.labeled {
				ls[v] = append(ls[v], e.l)
			}
		}
	}
	return ns, ls
}

// oracleGraph rebuilds the expected post-delta graph from scratch with the
// Builder (tombstones become isolated vertices — their byLabel exclusion is
// checked separately against the incremental graph).
func (m *deltaModel) oracleGraph(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(len(m.labels), len(m.edges))
	for _, l := range m.labels {
		b.AddVertex(l)
	}
	for k, l := range m.edges {
		if m.labeled {
			b.AddEdgeLabeled(k[0], k[1], l)
		} else {
			b.AddEdge(k[0], k[1])
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("oracle rebuild: %v", err)
	}
	return g
}

// checkAgainstModel compares the incrementally maintained graph against the
// model and the scratch-rebuilt oracle: structure, per-label lists, the
// label runs (vs the oracle's independently built ones), and Validate.
func checkAgainstModel(t testing.TB, g *Graph, m *deltaModel) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumVertices() != len(m.labels) {
		t.Fatalf("NumVertices = %d, want %d", g.NumVertices(), len(m.labels))
	}
	if g.NumEdges() != len(m.edges) {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), len(m.edges))
	}
	if g.NumDeleted() != len(m.deleted) {
		t.Fatalf("NumDeleted = %d, want %d", g.NumDeleted(), len(m.deleted))
	}
	oracle := m.oracleGraph(t)
	if g.MaxDegree() != oracle.MaxDegree() {
		t.Fatalf("MaxDegree = %d, oracle %d", g.MaxDegree(), oracle.MaxDegree())
	}
	maxL := g.NumLabels()
	adj, adjLab := m.adjacency()
	for v := 0; v < g.NumVertices(); v++ {
		vid := VertexID(v)
		if g.Label(vid) != m.labels[v] {
			t.Fatalf("Label(%d) = %d, want %d", v, g.Label(vid), m.labels[v])
		}
		if g.Deleted(vid) != m.deleted[vid] {
			t.Fatalf("Deleted(%d) = %v, want %v", v, g.Deleted(vid), m.deleted[vid])
		}
		wantN := adj[v]
		gotN := g.Neighbors(vid)
		if len(gotN) != len(wantN) {
			t.Fatalf("Neighbors(%d) = %v, want %v", v, gotN, wantN)
		}
		for i := range wantN {
			if gotN[i] != wantN[i] {
				t.Fatalf("Neighbors(%d) = %v, want %v", v, gotN, wantN)
			}
		}
		if m.labeled {
			gotL, wantL := g.EdgeLabels(vid), adjLab[v]
			for i := range wantL {
				if gotL[i] != wantL[i] {
					t.Fatalf("EdgeLabels(%d) = %v, want %v", v, gotL, wantL)
				}
			}
		}
		// Label-run equality against the oracle's independent build: the
		// per-label runs must agree for every label either side knows.
		for l := 0; l < maxL; l++ {
			got := g.NeighborsWithLabel(vid, Label(l), nil)
			want := oracle.NeighborsWithLabel(vid, Label(l), nil)
			if len(got) != len(want) {
				t.Fatalf("NeighborsWithLabel(%d,%d) = %v, oracle %v", v, l, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("NeighborsWithLabel(%d,%d) = %v, oracle %v", v, l, got, want)
				}
			}
		}
	}
	// Per-label candidate lists: the oracle lists tombstones (it rebuilds
	// them as isolated vertices), the incremental graph must not.
	for l := 0; l < maxL; l++ {
		var want []VertexID
		for _, v := range oracle.VerticesWithLabel(Label(l)) {
			if !m.deleted[v] {
				want = append(want, v)
			}
		}
		got := g.VerticesWithLabel(Label(l))
		if len(got) != len(want) {
			t.Fatalf("VerticesWithLabel(%d) = %v, want %v", l, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("VerticesWithLabel(%d) = %v, want %v", l, got, want)
			}
		}
	}
}

// bruteCount counts embeddings by exhaustive backtracking straight off the
// Graph API — the match-count oracle. Candidates come from VerticesWithLabel,
// so tombstones are excluded on the incremental side by construction; on the
// Builder-rebuilt oracle tombstones are isolated, and the connected queries
// used here require every query vertex to have degree ≥ 1, so they can never
// match there either.
func bruteCount(q *Query, g *Graph) int64 {
	n := q.NumVertices()
	emb := make([]VertexID, n)
	used := make(map[VertexID]bool)
	var rec func(u int) int64
	rec = func(u int) int64 {
		if u == n {
			return 1
		}
		var total int64
		for _, v := range g.VerticesWithLabel(q.Label(u)) {
			if used[v] {
				continue
			}
			ok := true
			for _, un := range q.Neighbors(u) {
				if un < u && !g.HasEdge(v, emb[un]) {
					ok = false
					break
				}
			}
			if ok {
				emb[u] = v
				used[v] = true
				total += rec(u + 1)
				delete(used, v)
			}
		}
		return total
	}
	return rec(0)
}

// randomDelta fabricates a valid batch against the model: new vertices, edge
// inserts (possibly at batch-new vertices), edge deletes and vertex deletes,
// all respecting ApplyDelta's validity rules.
func randomDelta(rng *rand.Rand, m *deltaModel, numLabels int, labeled bool) Delta {
	var d Delta
	nOld := len(m.labels)
	for i := rng.Intn(3); i > 0; i-- {
		d.AddVertices = append(d.AddVertices, Label(rng.Intn(numLabels)))
	}
	n := nOld + len(d.AddVertices)

	delV := make(map[VertexID]bool)
	var live []VertexID
	for v := 0; v < nOld; v++ {
		if !m.deleted[VertexID(v)] {
			live = append(live, VertexID(v))
		}
	}
	for i := rng.Intn(2); i > 0 && len(live) > 2; i-- {
		v := live[rng.Intn(len(live))]
		if !delV[v] {
			delV[v] = true
			d.DelVertices = append(d.DelVertices, v)
		}
	}

	canon := func(u, v VertexID) [2]VertexID {
		if u > v {
			u, v = v, u
		}
		return [2]VertexID{u, v}
	}
	seen := make(map[[2]VertexID]bool)
	for i := rng.Intn(6); i > 0; i-- {
		u := VertexID(rng.Intn(n))
		v := VertexID(rng.Intn(n))
		if u == v || delV[u] || delV[v] {
			continue
		}
		if int(u) < nOld && m.deleted[u] || int(v) < nOld && m.deleted[v] {
			continue
		}
		k := canon(u, v)
		if seen[k] {
			continue
		}
		if _, exists := m.edges[k]; exists {
			continue
		}
		seen[k] = true
		d.AddEdges = append(d.AddEdges, [2]VertexID{u, v})
		if labeled {
			d.AddEdgeLabels = append(d.AddEdgeLabels, EdgeLabel(rng.Intn(4)))
		}
	}
	if !labeled {
		d.AddEdgeLabels = nil
	}

	var existing [][2]VertexID
	for k := range m.edges {
		if !delV[k[0]] && !delV[k[1]] {
			existing = append(existing, k)
		}
	}
	sort.Slice(existing, func(i, j int) bool {
		if existing[i][0] != existing[j][0] {
			return existing[i][0] < existing[j][0]
		}
		return existing[i][1] < existing[j][1]
	})
	for i := rng.Intn(4); i > 0 && len(existing) > 0; i-- {
		k := existing[rng.Intn(len(existing))]
		if seen[k] {
			continue
		}
		seen[k] = true
		d.DelEdges = append(d.DelEdges, k)
	}
	return d
}

func runDeltaPropSequence(t *testing.T, seed int64, labeled bool) {
	rng := rand.New(rand.NewSource(seed))
	const numLabels = 3

	// Random connected-ish base graph.
	b := NewBuilder(12, 30)
	for i := 0; i < 12; i++ {
		b.AddVertex(Label(rng.Intn(numLabels)))
	}
	for i := 0; i < 20; i++ {
		u := VertexID(rng.Intn(12))
		v := VertexID(rng.Intn(12))
		if u == v {
			continue
		}
		if labeled {
			b.AddEdgeLabeled(u, v, EdgeLabel(rng.Intn(4)))
		} else {
			b.AddEdge(u, v)
		}
	}
	g := b.MustBuild()
	m := newDeltaModel(g)

	queries := []*Query{
		MustQuery("pp-path", []Label{0, 1, 0}, [][2]QueryVertex{{0, 1}, {1, 2}}),
		MustQuery("pp-tri", []Label{1, 2, 0}, [][2]QueryVertex{{0, 1}, {1, 2}, {0, 2}}),
	}

	for step := 0; step < 25; step++ {
		d := randomDelta(rng, m, numLabels, labeled)
		g2, _, err := g.ApplyDelta(d)
		if err != nil {
			t.Fatalf("step %d seed %d: ApplyDelta(%+v): %v", step, seed, d, err)
		}
		if g2.Epoch() != g.Epoch()+1 {
			t.Fatalf("step %d: epoch %d after %d", step, g2.Epoch(), g.Epoch())
		}
		m.apply(d)
		checkAgainstModel(t, g2, m)
		// Match-count equality per epoch vs the scratch-rebuilt oracle.
		oracle := m.oracleGraph(t)
		for _, q := range queries {
			if got, want := bruteCount(q, g2), bruteCount(q, oracle); got != want {
				t.Fatalf("step %d seed %d query %s: count %d, oracle %d", step, seed, q.Name(), got, want)
			}
		}
		g = g2
	}
}

func TestDeltaPropertyRandomBatches(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		runDeltaPropSequence(t, seed, false)
	}
}

func TestDeltaPropertyRandomBatchesEdgeLabeled(t *testing.T) {
	for seed := int64(10); seed <= 13; seed++ {
		runDeltaPropSequence(t, seed, true)
	}
}

// TestDeltaPropertyLongCleanSpans runs 1–4-op batches over a power-law
// graph of thousands of vertices, where a batch's dirty vertices are a few
// among thousands, so ApplyDelta copies long clean ranges in bulk — the
// 12-vertex sequences above dirty nearly every vertex. The batches cycle
// through an edge between vertex 0 and the last old vertex (the only two
// dirty ones, so one clean range spans the rest), a new vertex wired to
// one of them, a vertex delete (later epochs carry its tombstone inside a
// clean range), and edge ops at random vertices that begin with a delete
// at the maximum-degree vertex.
func TestDeltaPropertyLongCleanSpans(t *testing.T) {
	for _, labeled := range []bool{false, true} {
		runDeltaLongSpans(t, 20, labeled)
	}
}

func runDeltaLongSpans(t *testing.T, seed int64, labeled bool) {
	const numLabels = 3
	rng := rand.New(rand.NewSource(seed))
	g := RandomPowerLaw(GenConfig{NumVertices: 3000, NumLabels: numLabels, AvgDegree: 6, Seed: seed})
	if labeled {
		b := NewBuilder(g.NumVertices(), g.NumEdges())
		for v := 0; v < g.NumVertices(); v++ {
			b.AddVertex(g.Label(VertexID(v)))
		}
		for v := 0; v < g.NumVertices(); v++ {
			for _, w := range g.Neighbors(VertexID(v)) {
				if VertexID(v) < w {
					b.AddEdgeLabeled(VertexID(v), w, EdgeLabel(rng.Intn(4)))
				}
			}
		}
		g = b.MustBuild()
	}
	m := newDeltaModel(g)
	for step := 0; step < 36; step++ {
		d := spanDelta(rng, g, m, step, numLabels)
		if ops := d.Ops(); ops < 1 || ops > 4 {
			t.Fatalf("step %d: batch of %d ops", step, ops)
		}
		g2, touched, err := g.ApplyDelta(d)
		if err != nil {
			t.Fatalf("step %d labeled %v: ApplyDelta(%+v): %v", step, labeled, d, err)
		}
		if !slices.IsSorted(touched) || len(slices.Compact(slices.Clone(touched))) != len(touched) {
			t.Fatalf("step %d: touched %v not sorted and distinct", step, touched)
		}
		if last := VertexID(g.NumVertices() - 1); step%4 == 0 && !slices.Equal(touched, []VertexID{0, last}) {
			t.Fatalf("step %d: touched %v, want [0 %d]", step, touched, last)
		}
		m.apply(d)
		checkAgainstModel(t, g2, m)
		g = g2
	}
	if g.NumDeleted() == 0 {
		t.Fatalf("labeled %v: no tombstone after %d epochs", labeled, 36)
	}
}

// spanDelta returns the 1–4-op batch of epoch step for
// TestDeltaPropertyLongCleanSpans, valid against g and its model m.
// Vertex 0 and the last old vertex are never deleted.
func spanDelta(rng *rand.Rand, g *Graph, m *deltaModel, step, numLabels int) Delta {
	var d Delta
	nOld := g.NumVertices()
	last := VertexID(nOld - 1)
	seen := make(map[[2]VertexID]bool)
	edgeLabel := func() {
		if m.labeled {
			d.AddEdgeLabels = append(d.AddEdgeLabels, EdgeLabel(rng.Intn(4)))
		}
	}
	// toggle deletes (u, v) if present and inserts it otherwise.
	toggle := func(u, v VertexID) {
		k := [2]VertexID{min(u, v), max(u, v)}
		if u == v || seen[k] || g.Deleted(u) || g.Deleted(v) {
			return
		}
		seen[k] = true
		if g.HasEdge(u, v) {
			d.DelEdges = append(d.DelEdges, k)
			return
		}
		d.AddEdges = append(d.AddEdges, k)
		edgeLabel()
	}
	switch step % 4 {
	case 0:
		toggle(0, last)
	case 1:
		d.AddVertices = []Label{Label(rng.Intn(numLabels))}
		end := VertexID(0)
		if rng.Intn(2) == 1 {
			end = last
		}
		d.AddEdges = [][2]VertexID{{end, VertexID(nOld)}}
		edgeLabel()
	case 2:
		for {
			v := VertexID(1 + rng.Intn(nOld-2))
			if !g.Deleted(v) && g.Degree(v) <= 16 {
				d.DelVertices = []VertexID{v}
				break
			}
		}
	case 3:
		hub := VertexID(0)
		for v := 0; v < nOld; v++ {
			if g.Degree(VertexID(v)) > g.Degree(hub) {
				hub = VertexID(v)
			}
		}
		ns := g.Neighbors(hub)
		toggle(hub, ns[rng.Intn(len(ns))])
		for i := rng.Intn(4); i > 0; i-- {
			toggle(VertexID(rng.Intn(nOld)), VertexID(rng.Intn(nOld)))
		}
	}
	return d
}

// FuzzApplyDelta decodes arbitrary bytes into a delta sequence against a
// fixed base graph. Invalid batches must fail atomically (graph unchanged);
// valid ones must keep the incremental structures equal to the
// rebuild-from-scratch oracle.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03, 0x04})
	f.Add([]byte{0xff, 0x00, 0x10, 0x20, 0x30, 0x40, 0x51})
	f.Add([]byte("delta-fuzz-seed"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := FromEdgeList(
			[]Label{0, 1, 2, 0, 1, 2},
			[][2]VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}},
		)
		if err != nil {
			t.Fatalf("base: %v", err)
		}
		m := newDeltaModel(g)
		pos := 0
		next := func() (byte, bool) {
			if pos >= len(data) {
				return 0, false
			}
			b := data[pos]
			pos++
			return b, true
		}
		for batch := 0; batch < 8; batch++ {
			var d Delta
			nops, ok := next()
			if !ok {
				break
			}
			for i := 0; i < int(nops%5)+1; i++ {
				op, ok := next()
				if !ok {
					break
				}
				a, _ := next()
				c, _ := next()
				switch op % 4 {
				case 0:
					d.AddVertices = append(d.AddVertices, Label(a%3))
				case 1:
					d.DelVertices = append(d.DelVertices, VertexID(a%8))
				case 2:
					d.AddEdges = append(d.AddEdges, [2]VertexID{VertexID(a % 10), VertexID(c % 10)})
				case 3:
					d.DelEdges = append(d.DelEdges, [2]VertexID{VertexID(a % 8), VertexID(c % 8)})
				}
			}
			g2, _, err := g.ApplyDelta(d)
			if err != nil {
				// Atomic failure: the source snapshot is untouched.
				if verr := g.Validate(); verr != nil {
					t.Fatalf("failed batch corrupted source: %v", verr)
				}
				continue
			}
			m.apply(d)
			checkAgainstModel(t, g2, m)
			g = g2
		}
	})
}
