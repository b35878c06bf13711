package order

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fastmatch/graph"
)

// fig1Query recreates the paper's Fig. 1 query: A(u0)-B(u1), A-C(u2),
// B-C, C-D(u3).
func fig1Query() *graph.Query {
	return graph.MustQuery("fig1", []graph.Label{0, 1, 2, 3},
		[][2]graph.QueryVertex{{0, 1}, {0, 2}, {1, 2}, {2, 3}})
}

func fig1Data() *graph.Graph {
	// Fig. 1(b): v1,v2:A v3..v6ish — we rebuild the exact data graph.
	// Labels: A=0 B=1 C=2 D=3 E=4.
	// Vertices: v1:A v2:A v3:C v4:B v5:C v6:B v7:C v8:D v9:D v10:D v11:E v12:E
	// (ids shifted to 0-based: v1→0 ... v12→11)
	b := graph.NewBuilder(12, 20)
	labels := []graph.Label{0, 0, 2, 1, 2, 1, 2, 3, 3, 3, 4, 4}
	for _, l := range labels {
		b.AddVertex(l)
	}
	edges := [][2]graph.VertexID{
		{0, 3}, {0, 2}, {3, 2}, // v1-v4, v1-v3, v4-v3
		{0, 5}, {1, 5}, {1, 4}, {5, 4}, // v1-v6, v2-v6, v2-v5, v6-v5
		{1, 6}, {6, 4}, // v2-v7, v7-v5
		{2, 8}, {4, 9}, {6, 10}, // v3-v9, v5-v10, v7-v11
		{3, 7}, {5, 7}, // v4-v8, v6-v8
		{6, 11}, // v7-v12
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}

func TestBFSTreeStructure(t *testing.T) {
	q := fig1Query()
	tr := BuildBFSTree(q, 0)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tr.Root != 0 || tr.Parent[1] != 0 || tr.Parent[2] != 0 {
		t.Errorf("unexpected parents: %v", tr.Parent)
	}
	// u3 hangs off u2 (C), discovered from u2 at level 2.
	if tr.Parent[3] != 2 || tr.Level[3] != 2 {
		t.Errorf("u3: parent=%d level=%d", tr.Parent[3], tr.Level[3])
	}
	// The only non-tree edge is (u1,u2), as in the paper's Example 2.
	if len(tr.NonTreeEdges) != 1 || tr.NonTreeEdges[0] != [2]graph.QueryVertex{1, 2} {
		t.Errorf("NonTreeEdges = %v, want [[1 2]]", tr.NonTreeEdges)
	}
	nn := tr.NonTreeNeighbors(1)
	if len(nn) != 1 || nn[0] != 2 {
		t.Errorf("NonTreeNeighbors(1) = %v", nn)
	}
	paths := tr.RootToLeafPaths()
	if len(paths) != 2 { // one per leaf: u1 and u3
		t.Errorf("RootToLeafPaths = %v", paths)
	}
	for _, p := range paths {
		if p[0] != 0 {
			t.Errorf("path %v does not start at root", p)
		}
	}
}

func TestSelectRootPrefersSelective(t *testing.T) {
	q := fig1Query()
	g := fig1Data()
	root := SelectRoot(q, g)
	// A appears twice with degree ≥ 2 → score 2/2=1 for u0; D appears 3
	// times with degree 1, but u3 has degree 1 → score 3. u0 or u2 are the
	// selective picks; u2 (C, 3 candidates, degree 3) scores 1 as well.
	if root != 0 && root != 2 {
		t.Errorf("SelectRoot = %d, want 0 or 2", root)
	}
}

func TestOrderValidateCatchesBadOrders(t *testing.T) {
	q := fig1Query()
	tr := BuildBFSTree(q, 0)
	good := Order{0, 1, 2, 3}
	if err := good.Validate(tr); err != nil {
		t.Errorf("good order rejected: %v", err)
	}
	bad := []Order{
		{1, 0, 2, 3}, // doesn't start at root
		{0, 1, 2},    // too short
		{0, 1, 1, 3}, // repeated vertex
		{0, 3, 2, 1}, // u3 before its parent u2
		{0, 1, 3, 2}, // u3 before parent
	}
	for i, o := range bad {
		if err := o.Validate(tr); err == nil {
			t.Errorf("bad order %d (%v) accepted", i, o)
		}
	}
}

func TestStrategiesProduceValidOrders(t *testing.T) {
	q := fig1Query()
	g := fig1Data()
	tr := BuildBFSTree(q, SelectRoot(q, g))
	est := LabelDegreeEstimator{Q: q, G: g}
	for name, o := range map[string]Order{
		"path": PathBased(tr, est),
		"cfl":  CFLLike(tr, est),
		"daf":  DAFLike(tr, est),
		"ceci": CECILike(tr, est),
	} {
		if err := o.Validate(tr); err != nil {
			t.Errorf("%s order invalid: %v (order %v)", name, err, o)
		}
	}
}

func TestRandomConnectedProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := graph.RandomConnectedQuery("rq", 2+rng.Intn(6), rng.Intn(4), 3, rng)
		tr := BuildBFSTree(q, rng.Intn(q.NumVertices()))
		if err := tr.Validate(); err != nil {
			return false
		}
		o := RandomConnected(tr, rng)
		return o.Validate(tr) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAllConnectedEnumerates(t *testing.T) {
	q := fig1Query()
	tr := BuildBFSTree(q, 0)
	orders := AllConnected(tr, 0)
	// Orders must be distinct, valid, and include the canonical one.
	seen := make(map[string]bool)
	foundCanonical := false
	for _, o := range orders {
		if err := o.Validate(tr); err != nil {
			t.Fatalf("enumerated invalid order %v: %v", o, err)
		}
		key := ""
		for _, u := range o {
			key += string(rune('a' + u))
		}
		if seen[key] {
			t.Fatalf("duplicate order %v", o)
		}
		seen[key] = true
		if key == "abcd" {
			foundCanonical = true
		}
	}
	if !foundCanonical {
		t.Error("canonical order 0,1,2,3 not enumerated")
	}
	// Cap works.
	if capped := AllConnected(tr, 2); len(capped) != 2 {
		t.Errorf("cap ignored: got %d orders", len(capped))
	}
}

func TestAllConnectedMatchesValidOrderCount(t *testing.T) {
	// For the Fig. 1 query rooted at u0 the connected topological orders
	// are: 0123 is valid; u1 and u2 are interchangeable after root;
	// u3 requires u2. Enumerate by brute force over permutations.
	q := fig1Query()
	tr := BuildBFSTree(q, 0)
	want := 0
	perm := []graph.QueryVertex{0, 1, 2, 3}
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			o := append(Order(nil), perm...)
			if o.Validate(tr) == nil {
				want++
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	if got := len(AllConnected(tr, 0)); got != want {
		t.Errorf("AllConnected found %d orders, brute force %d", got, want)
	}
}
