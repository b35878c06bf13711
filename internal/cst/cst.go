// Package cst implements the paper's candidate search tree (CST), the
// auxiliary data structure at the centre of the CPU–FPGA co-design
// (Section V). A CST is a graph isomorphic to the query q whose vertices
// carry candidate sets C(u) and whose edges carry candidate-level adjacency
// lists N^u_u'(v). Because the CST keeps *all* edge information of q
// (including non-tree edges), it is a complete search space: all embeddings
// of q in G can be computed by traversing only the CST (Theorem 1), which is
// what makes partitioning (Algorithm 2) and BRAM-only matching possible.
package cst

import (
	"fmt"
	"sort"

	"fastmatch/graph"
	"fastmatch/internal/order"
)

// CandIndex is an index into a candidate set C(u). The kernel operates
// entirely on candidate indices; data-vertex ids are recovered only when an
// embedding is reported.
type CandIndex = int32

// Adj is a CSR adjacency view over candidate indices for one directed query
// edge from → to: the neighbours of candidate i of the source vertex are
// Targets[Offsets[i]:Offsets[i+1]], each a candidate index of the
// destination vertex, sorted ascending. It models one BRAM-resident array of
// the paper's CST layout. Adj is a value type: Offsets and Targets are
// subslices of the owning CST's flat index arenas (or, for adjacency a
// restricted piece shares with its ancestor, of the ancestor's arenas), so hot
// paths hoist the two slice headers once and then touch only contiguous
// int32 arrays — no per-candidate pointer deref.
type Adj struct {
	Offsets []int32
	Targets []CandIndex

	// maxDeg caches the longest list in this adjacency so restricted pieces
	// can fold shared (aliased) edges into their δD statistic in O(1).
	maxDeg int32
}

// Valid reports whether this view carries an adjacency at all; the dense
// per-CST edge table holds a zero Adj for every non-edge of q.
func (a Adj) Valid() bool { return a.Offsets != nil }

// Neighbors returns N^{from}_{to}(i), aliasing the CSR storage.
func (a Adj) Neighbors(i CandIndex) []CandIndex {
	return a.Targets[a.Offsets[i]:a.Offsets[i+1]]
}

// Degree returns |N^{from}_{to}(i)|.
func (a Adj) Degree(i CandIndex) int {
	return int(a.Offsets[i+1] - a.Offsets[i])
}

// Has reports whether j ∈ N^{from}_{to}(i) — the O(1) edge-existence probe
// the FPGA's Edge Validator performs (Algorithm 7); in software it is a
// hand-rolled binary search. The kernel's batch rounds use the adaptive
// galloping/bitset intersection instead (candidates arrive sorted, so a
// cursor amortises the search); Has remains the oracle those strategies are
// property-tested against, and the probe the Enumerator uses.
func (a Adj) Has(i, j CandIndex) bool {
	lo, hi := int(a.Offsets[i]), int(a.Offsets[i+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.Targets[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < int(a.Offsets[i+1]) && a.Targets[lo] == j
}

// CST is a candidate search tree for (q, G). Adjacency is stored for both
// directions of every query edge (tree and non-tree) so that top-down,
// bottom-up and validation passes are all O(1)-indexed.
type CST struct {
	Query *graph.Query
	Tree  *order.Tree
	// Cand[u] lists the candidate data vertices of query vertex u, sorted.
	Cand [][]graph.VertexID
	// adj is a dense |V(q)|×|V(q)| table of CSR views indexed from*nq+to —
	// query vertices are small ints, so edge lookup is one multiply-add.
	// Entries are Valid exactly for the directed versions of q's edges, and
	// the views point into the flat offset/target arenas Build or restrict
	// fills (one arena pair per CST; a restricted piece's unchanged edges
	// alias its ancestor's arenas instead of copying, so a piece Partition
	// built keeps its ancestor from being recycled while it is held).
	adj []Adj

	// Size and degree statistics are queried on every partition decision,
	// so they are computed eagerly when construction finishes (Build,
	// restrict and the test fixtures all call recomputeStats or fold the
	// stats in while assembling); a CST is immutable once built.
	sizeBytes int64
	maxDeg    int

	// spare is a piece's recycling state when Partition built it, nil on
	// every other CST.
	spare *spare
}

// Recycle hands a piece Partition built back to be built into again. The
// holder of a handed-out piece — the callee of Partition's process
// callback, or the Steal hook that took it — calls Recycle exactly once,
// when nothing reads the piece any more; one never recycled is left to the
// garbage collector. On any CST Partition did not build, Build's or the
// input handed out whole, Recycle is a no-op.
func (c *CST) Recycle() {
	if c.spare != nil {
		c.spare.release()
	}
}

// newCST returns a CST shell with the candidate and dense adjacency tables
// allocated for q's vertex count.
func newCST(q *graph.Query, t *order.Tree) *CST {
	nq := q.NumVertices()
	return &CST{
		Query: q,
		Tree:  t,
		Cand:  make([][]graph.VertexID, nq),
		adj:   make([]Adj, nq*nq),
	}
}

// Edge returns the adjacency view of the directed query edge from → to; the
// view is invalid (zero) when {from,to} is not an edge of q. Hot paths hoist
// the returned value — two slice headers — once per run.
func (c *CST) Edge(from, to graph.QueryVertex) Adj {
	return c.adj[from*len(c.Cand)+to]
}

// edgeRef returns a pointer into the dense table; construction and the
// corruption tests use it, everything else goes through the Edge value view.
func (c *CST) edgeRef(from, to graph.QueryVertex) *Adj {
	return &c.adj[from*len(c.Cand)+to]
}

// setAdj installs the adjacency view for from → to.
func (c *CST) setAdj(from, to graph.QueryVertex, a Adj) {
	c.adj[from*len(c.Cand)+to] = a
}

// Candidates returns C(u) as data-vertex ids (sorted, aliasing storage).
func (c *CST) Candidates(u graph.QueryVertex) []graph.VertexID { return c.Cand[u] }

// CandCount returns |C(u)| (order.Estimator).
func (c *CST) CandCount(u graph.QueryVertex) int { return len(c.Cand[u]) }

// AvgBranch returns the average adjacency-list length from candidates of up
// towards uc (order.Estimator).
func (c *CST) AvgBranch(up, uc graph.QueryVertex) float64 {
	a := c.Edge(up, uc)
	if !a.Valid() || len(c.Cand[up]) == 0 {
		return 0
	}
	return float64(len(a.Targets)) / float64(len(c.Cand[up]))
}

// Vertex returns the data vertex of candidate i of u.
func (c *CST) Vertex(u graph.QueryVertex, i CandIndex) graph.VertexID {
	return c.Cand[u][i]
}

// Adjacency returns N^{from}_{to}(i): candidate indices of `to` adjacent to
// candidate i of `from`. {from,to} must be a query edge.
func (c *CST) Adjacency(from, to graph.QueryVertex, i CandIndex) []CandIndex {
	return c.Edge(from, to).Neighbors(i)
}

// CandIndexOf returns the candidate index of data vertex v within C(u), or
// -1 when v is not a candidate of u.
func (c *CST) CandIndexOf(u graph.QueryVertex, v graph.VertexID) CandIndex {
	cands := c.Cand[u]
	i := sort.Search(len(cands), func(i int) bool { return cands[i] >= v })
	if i < len(cands) && cands[i] == v {
		return CandIndex(i)
	}
	return -1
}

// SizeBytes returns |CST|: 4 bytes per candidate entry plus the CSR
// adjacency arrays, the quantity the δS partition threshold bounds.
func (c *CST) SizeBytes() int64 { return c.sizeBytes }

// MaxCandDegree returns D_CST, the longest candidate adjacency list in any
// direction; the δD threshold bounds it because the FPGA's array-partition
// ports cap the width of an O(1) membership probe.
func (c *CST) MaxCandDegree() int { return c.maxDeg }

// recomputeStats derives the partition statistics from scratch, including
// every view's cached maxDeg. Construction paths that assemble adjacency
// incrementally fold the stats in as they go; this full scan serves the
// synthetic fixtures that install adjacency directly via setAdj.
func (c *CST) recomputeStats() {
	c.sizeBytes, c.maxDeg = 0, 0
	for _, cands := range c.Cand {
		c.sizeBytes += int64(len(cands)) * 4
	}
	for i := range c.adj {
		a := &c.adj[i]
		if !a.Valid() {
			continue
		}
		c.sizeBytes += int64(len(a.Offsets))*4 + int64(len(a.Targets))*4
		a.maxDeg = 0
		for i := 0; i+1 < len(a.Offsets); i++ {
			if d := int32(a.Offsets[i+1] - a.Offsets[i]); d > a.maxDeg {
				a.maxDeg = d
			}
		}
		if int(a.maxDeg) > c.maxDeg {
			c.maxDeg = int(a.maxDeg)
		}
	}
}

// IsEmpty reports whether any candidate set is empty, in which case the CST
// contains no embeddings at all.
func (c *CST) IsEmpty() bool {
	for _, cands := range c.Cand {
		if len(cands) == 0 {
			return true
		}
	}
	return false
}

// Validate checks the CST's structural invariants: sorted candidate sets,
// the dense adjacency table shaped for exactly q's edges (both directions
// present, non-edges invalid), within-range adjacency targets, symmetric
// adjacency for both edge directions, adjacency only between genuine
// data-graph edges, and partition statistics consistent with the layout.
func (c *CST) Validate(g *graph.Graph) error {
	nq := c.Query.NumVertices()
	if len(c.Cand) != nq || len(c.adj) != nq*nq {
		return fmt.Errorf("cst: dense tables sized (%d, %d), want (%d, %d)", len(c.Cand), len(c.adj), nq, nq*nq)
	}
	for u, cands := range c.Cand {
		for i := 1; i < len(cands); i++ {
			if cands[i-1] >= cands[i] {
				return fmt.Errorf("cst: C(%d) not strictly sorted", u)
			}
		}
	}
	var sizeBytes int64
	maxDeg := 0
	for _, cands := range c.Cand {
		sizeBytes += int64(len(cands)) * 4
	}
	for from := 0; from < nq; from++ {
		for to := 0; to < nq; to++ {
			a := c.Edge(from, to)
			if !c.Query.HasEdge(from, to) {
				if a.Valid() {
					return fmt.Errorf("cst: adjacency (%d→%d) present for a non-edge of q", from, to)
				}
				continue
			}
			if !a.Valid() {
				return fmt.Errorf("cst: missing adjacency for query edge %d→%d", from, to)
			}
			if len(a.Offsets) != len(c.Cand[from])+1 {
				return fmt.Errorf("cst: adj %d→%d offsets length %d, want %d", from, to, len(a.Offsets), len(c.Cand[from])+1)
			}
			rev := c.Edge(to, from)
			if !rev.Valid() {
				return fmt.Errorf("cst: missing reverse adjacency for %d→%d", from, to)
			}
			sizeBytes += int64(len(a.Offsets))*4 + int64(len(a.Targets))*4
			for i := 0; i < len(c.Cand[from]); i++ {
				if d := a.Degree(CandIndex(i)); d > maxDeg {
					maxDeg = d
				}
				for _, j := range a.Neighbors(CandIndex(i)) {
					if int(j) >= len(c.Cand[to]) {
						return fmt.Errorf("cst: adj %d→%d target %d out of range", from, to, j)
					}
					if g != nil && !g.HasEdge(c.Cand[from][i], c.Cand[to][j]) {
						return fmt.Errorf("cst: adj %d→%d claims edge (%d,%d) absent from G",
							from, to, c.Cand[from][i], c.Cand[to][j])
					}
					if !rev.Has(j, CandIndex(i)) {
						return fmt.Errorf("cst: adj %d→%d entry (%d,%d) not mirrored", from, to, i, j)
					}
				}
			}
		}
	}
	if c.sizeBytes != sizeBytes || c.maxDeg != maxDeg {
		return fmt.Errorf("cst: cached stats (size %d, maxDeg %d) disagree with layout (size %d, maxDeg %d)",
			c.sizeBytes, c.maxDeg, sizeBytes, maxDeg)
	}
	return nil
}

// Stats summarises a CST for reporting.
type Stats struct {
	CandTotal  int
	AdjEntries int
	SizeBytes  int64
	MaxDegree  int
}

// ComputeStats gathers Stats.
func (c *CST) ComputeStats() Stats {
	s := Stats{SizeBytes: c.SizeBytes(), MaxDegree: c.MaxCandDegree()}
	for _, cands := range c.Cand {
		s.CandTotal += len(cands)
	}
	for i := range c.adj {
		if c.adj[i].Valid() {
			s.AdjEntries += len(c.adj[i].Targets)
		}
	}
	s.AdjEntries /= 2 // both directions stored
	return s
}

// adjRows produces the a → b rows of one query edge for writeAdjacency, in
// one of two modes. With tgt nil it counts: fwd receives the a → b offsets,
// rev[j+1] the length of reverse row j, and the longest forward row is
// returned. Otherwise fwd already holds the offsets and the rows, each
// ascending, are written into tgt.
type adjRows func(a, b graph.QueryVertex, fwd, rev []int32, tgt []CandIndex) int32

// writeAdjacency fills both directions of every query edge (a,b) in pairs
// into one exactly sized offsets arena and one exactly sized targets arena,
// then folds their size and longest rows into c's partition statistics (the
// caller seeds those with the candidate bytes and any shared edges). rows
// is called twice per edge, once to count the rows of both directions and
// once to write a → b; b → a is its transpose. cur is scratch of at least
// max |C(b)| entries, and sc carries the cancel hook the loops poll. It
// reports false when the hook fired, leaving c partial.
func (c *CST) writeAdjacency(pairs [][2]graph.QueryVertex, cur []uint32, sc *restrictScratch, rows adjRows) bool {
	offTotal := 0
	for _, e := range pairs {
		offTotal += len(c.Cand[e[0]]) + len(c.Cand[e[1]]) + 2
	}
	offArena := make([]int32, offTotal)
	offLo, tgtTotal := 0, 0
	carve := func(n int) []int32 {
		s := offArena[offLo : offLo+n : offLo+n]
		offLo += n
		return s
	}
	for _, e := range pairs {
		if sc.polled() {
			return false
		}
		a, b := e[0], e[1]
		fwd := carve(len(c.Cand[a]) + 1)
		rev := carve(len(c.Cand[b]) + 1)
		fwdMax := rows(a, b, fwd, rev, nil)
		revMax, ok := revOffsets(rev, sc)
		if !ok {
			return false
		}
		c.setAdj(a, b, Adj{Offsets: fwd, maxDeg: fwdMax})
		c.setAdj(b, a, Adj{Offsets: rev, maxDeg: revMax})
		tgtTotal += 2 * int(fwd[len(fwd)-1])
	}

	tgtArena := make([]CandIndex, tgtTotal)
	tgtLo := 0
	for _, e := range pairs {
		if sc.polled() {
			return false
		}
		a, b := e[0], e[1]
		fwd, rev := c.edgeRef(a, b), c.edgeRef(b, a)
		n := int(fwd.Offsets[len(fwd.Offsets)-1])
		fwd.Targets = tgtArena[tgtLo : tgtLo+n : tgtLo+n]
		rev.Targets = tgtArena[tgtLo+n : tgtLo+2*n : tgtLo+2*n]
		tgtLo += 2 * n
		rows(a, b, fwd.Offsets, nil, fwd.Targets)
		if !transpose(*fwd, *rev, cur, sc) {
			return false
		}
		c.sizeBytes += int64(len(fwd.Offsets)+len(rev.Offsets)+2*n) * 4
		c.maxDeg = max(c.maxDeg, int(fwd.maxDeg), int(rev.maxDeg))
	}
	return true
}

// revOffsets turns the reverse row lengths in rev[1:] into row offsets and
// returns the longest row. It reports false when sc's cancel hook fired.
func revOffsets(rev []int32, sc *restrictScratch) (int32, bool) {
	var revMax int32
	for j := 1; j < len(rev); j++ {
		if j&pollMask == 0 && sc.polled() {
			return 0, false
		}
		revMax = max(revMax, rev[j])
		rev[j] += rev[j-1]
	}
	return revMax, true
}

// transpose fills the rows of rev, the reverse direction of fwd: walking
// fwd's source rows in ascending order appends each reverse row in ascending
// order too. rev.Offsets must already hold the final row starts; the prefix
// of cur serves as the per-row write cursor. It reports false when sc's
// cancel hook fired.
func transpose(fwd, rev Adj, cur []uint32, sc *restrictScratch) bool {
	cur = cur[:len(rev.Offsets)-1]
	for j := range cur {
		cur[j] = uint32(rev.Offsets[j])
	}
	for i := 0; i+1 < len(fwd.Offsets); i++ {
		if i&pollMask == 0 && sc.polled() {
			return false
		}
		for _, j := range fwd.Targets[fwd.Offsets[i]:fwd.Offsets[i+1]] {
			rev.Targets[cur[j]] = CandIndex(i)
			cur[j]++
		}
	}
	return true
}
