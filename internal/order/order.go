package order

import (
	"fmt"
	"math/rand"
	"sort"

	"fastmatch/graph"
)

// Estimator supplies per-vertex candidate statistics to the order
// strategies. The CST implements it after construction; before CST exists,
// root selection uses LabelDegreeEstimator backed by the raw data graph.
type Estimator interface {
	// CandCount returns |C(u)|, the candidate-set size of query vertex u.
	CandCount(u graph.QueryVertex) int
	// AvgBranch returns the average number of CST children a candidate of
	// parent vertex up has towards child vertex uc (≥ 0).
	AvgBranch(up, uc graph.QueryVertex) float64
}

// Order is a matching order: a permutation of the query vertices. Position i
// holds the i-th vertex to be matched.
type Order []graph.QueryVertex

// PositionOf returns, for each query vertex, its index in the order.
func (o Order) PositionOf() []int {
	pos := make([]int, len(o))
	for i, u := range o {
		pos[u] = i
	}
	return pos
}

// Validate checks that o is a connected topological order of tree t:
// it starts at the root, every vertex appears exactly once, each vertex's
// tree parent precedes it, and each non-root vertex has some query neighbour
// before it (connectivity).
func (o Order) Validate(t *Tree) error {
	return o.ValidateInto(t, make([]int, t.Query.NumVertices()))
}

// ValidateInto is Validate over a caller-supplied position table of length
// |V(q)|. On success pos holds what PositionOf returns, so a caller that
// needs both — the kernel, once per run — pays one pass and no allocation.
func (o Order) ValidateInto(t *Tree, pos []int) error {
	n := t.Query.NumVertices()
	if len(o) != n {
		return fmt.Errorf("order length %d, want %d", len(o), n)
	}
	if o[0] != t.Root {
		return fmt.Errorf("order starts at %d, want root %d", o[0], t.Root)
	}
	if len(pos) != n {
		return fmt.Errorf("position table length %d, want %d", len(pos), n)
	}
	for i := range pos {
		pos[i] = -1
	}
	for i, u := range o {
		if u < 0 || u >= n {
			return fmt.Errorf("order[%d] = %d out of range", i, u)
		}
		if pos[u] != -1 {
			return fmt.Errorf("vertex %d repeated", u)
		}
		pos[u] = i
	}
	for _, u := range o {
		if u == t.Root {
			continue
		}
		if pos[t.Parent[u]] > pos[u] {
			return fmt.Errorf("vertex %d precedes its tree parent %d", u, t.Parent[u])
		}
		connected := false
		for _, v := range t.Query.Neighbors(u) {
			if pos[v] < pos[u] {
				connected = true
				break
			}
		}
		if !connected {
			return fmt.Errorf("vertex %d has no earlier neighbour", u)
		}
	}
	return nil
}

// SelectRoot picks the CST root the way CFL-Match does: the query vertex
// minimising |C_ini(u)| / d_q(u), where C_ini(u) counts data vertices with
// u's label and at least u's degree.
func SelectRoot(q *graph.Query, g *graph.Graph) graph.QueryVertex {
	best, bestScore := 0, 0.0
	for u := 0; u < q.NumVertices(); u++ {
		count := 0
		for _, v := range g.VerticesWithLabel(q.Label(u)) {
			if g.Degree(v) >= q.Degree(u) {
				count++
			}
		}
		score := float64(count) / float64(q.Degree(u))
		if u == 0 || score < bestScore {
			best, bestScore = u, score
		}
	}
	return best
}

// PathBased implements the paper's matching-order strategy: decompose t into
// root-to-leaf paths, estimate each path's cost as the product of average
// branching factors along it, process cheap paths first, and emit vertices
// in path order skipping the ones already placed. The result is always a
// connected topological order of t.
func PathBased(t *Tree, est Estimator) Order {
	paths := t.RootToLeafPaths()
	type scored struct {
		path []graph.QueryVertex
		cost float64
	}
	items := make([]scored, len(paths))
	for i, p := range paths {
		cost := float64(est.CandCount(t.Root))
		for j := 1; j < len(p); j++ {
			b := est.AvgBranch(p[j-1], p[j])
			if b < 0.01 {
				b = 0.01 // keep the product meaningful on empty branches
			}
			cost *= b
		}
		items[i] = scored{p, cost}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].cost < items[j].cost })
	placed := make([]bool, t.Query.NumVertices())
	o := make(Order, 0, t.Query.NumVertices())
	for _, it := range items {
		for _, u := range it.path {
			if !placed[u] {
				placed[u] = true
				o = append(o, u)
			}
		}
	}
	return o
}

// CFLLike mimics CFL-Match's ordering: paths sorted by estimated embedding
// count divided by non-tree-edge coverage; operationally we sort paths by
// cost ascending but break ties preferring paths with more non-tree edges to
// earlier vertices (postponing Cartesian products).
func CFLLike(t *Tree, est Estimator) Order {
	paths := t.RootToLeafPaths()
	type scored struct {
		path  []graph.QueryVertex
		cost  float64
		bonus int
	}
	items := make([]scored, len(paths))
	for i, p := range paths {
		cost := float64(est.CandCount(t.Root))
		bonus := 0
		for j := 1; j < len(p); j++ {
			b := est.AvgBranch(p[j-1], p[j])
			if b < 0.01 {
				b = 0.01
			}
			cost *= b
			bonus += len(t.NonTreeNeighbors(p[j]))
		}
		items[i] = scored{p, cost, bonus}
	}
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].bonus != items[j].bonus {
			return items[i].bonus > items[j].bonus
		}
		return items[i].cost < items[j].cost
	})
	placed := make([]bool, t.Query.NumVertices())
	o := make(Order, 0, t.Query.NumVertices())
	for _, it := range items {
		for _, u := range it.path {
			if !placed[u] {
				placed[u] = true
				o = append(o, u)
			}
		}
	}
	return o
}

// DAFLike mimics DAF's adaptive order: greedily pick, among the unplaced
// tree-eligible vertices (parent already placed), the one with the smallest
// candidate count, i.e. a candidate-size-first greedy order.
func DAFLike(t *Tree, est Estimator) Order {
	return greedy(t, func(u graph.QueryVertex) float64 {
		return float64(est.CandCount(u))
	})
}

// CECILike mimics CECI's BFS-rank order: vertices sorted by tree level first
// and candidate count second, which is a BFS traversal biased to small
// candidate sets within a level.
func CECILike(t *Tree, est Estimator) Order {
	return greedy(t, func(u graph.QueryVertex) float64 {
		return float64(t.Level[u])*1e9 + float64(est.CandCount(u))
	})
}

// greedy builds a connected topological order by repeatedly selecting the
// eligible vertex minimising score.
func greedy(t *Tree, score func(graph.QueryVertex) float64) Order {
	n := t.Query.NumVertices()
	placed := make([]bool, n)
	o := make(Order, 0, n)
	o = append(o, t.Root)
	placed[t.Root] = true
	for len(o) < n {
		best, bestScore := -1, 0.0
		for u := 0; u < n; u++ {
			if placed[u] || !placed[t.Parent[u]] {
				continue
			}
			s := score(u)
			if best == -1 || s < bestScore {
				best, bestScore = u, s
			}
		}
		placed[best] = true
		o = append(o, best)
	}
	return o
}

// RandomConnected returns a uniformly random connected topological order of
// t: at each step a random eligible vertex (tree parent placed and at least
// one query neighbour placed) is chosen. Used by the Fig. 15 experiment.
func RandomConnected(t *Tree, rng *rand.Rand) Order {
	n := t.Query.NumVertices()
	placed := make([]bool, n)
	o := make(Order, 0, n)
	o = append(o, t.Root)
	placed[t.Root] = true
	for len(o) < n {
		var eligible []graph.QueryVertex
		for u := 0; u < n; u++ {
			if placed[u] || !placed[t.Parent[u]] {
				continue
			}
			for _, v := range t.Query.Neighbors(u) {
				if placed[v] {
					eligible = append(eligible, u)
					break
				}
			}
		}
		pick := eligible[rng.Intn(len(eligible))]
		placed[pick] = true
		o = append(o, pick)
	}
	return o
}

// AllConnected enumerates every connected topological order of t, up to a
// cap (the Fig. 15 experiment tests "all other random connected orders";
// queries are tiny so full enumeration is feasible).
func AllConnected(t *Tree, cap int) []Order {
	n := t.Query.NumVertices()
	placed := make([]bool, n)
	cur := make(Order, 0, n)
	var out []Order
	var rec func()
	rec = func() {
		if cap > 0 && len(out) >= cap {
			return
		}
		if len(cur) == n {
			out = append(out, append(Order(nil), cur...))
			return
		}
		for u := 0; u < n; u++ {
			if placed[u] || !placed[t.Parent[u]] {
				continue
			}
			ok := false
			for _, v := range t.Query.Neighbors(u) {
				if placed[v] {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
			placed[u] = true
			cur = append(cur, u)
			rec()
			cur = cur[:len(cur)-1]
			placed[u] = false
		}
	}
	placed[t.Root] = true
	cur = append(cur, t.Root)
	rec()
	return out
}

// LabelDegreeEstimator estimates candidate counts straight from the data
// graph, for use before a CST exists (root selection, first ordering pass).
type LabelDegreeEstimator struct {
	Q *graph.Query
	G *graph.Graph
}

// CandCount counts data vertices passing the label-and-degree filter for u.
func (e LabelDegreeEstimator) CandCount(u graph.QueryVertex) int {
	count := 0
	for _, v := range e.G.VerticesWithLabel(e.Q.Label(u)) {
		if e.G.Degree(v) >= e.Q.Degree(u) {
			count++
		}
	}
	return count
}

// AvgBranch estimates branching (up → uc) as avg degree of the data graph
// scaled by the label frequency of uc's label.
func (e LabelDegreeEstimator) AvgBranch(up, uc graph.QueryVertex) float64 {
	n := e.G.NumVertices()
	if n == 0 {
		return 0
	}
	frac := float64(e.G.LabelFrequency(e.Q.Label(uc))) / float64(n)
	return e.G.AvgDegree() * frac
}
