package cst

// EstimateWorkload computes W_CST, the paper's workload estimate for a CST
// (Section V-C): the number of embeddings ignoring all false positives,
// i.e. the number of mappings of the spanning tree t_q into the CST's tree
// edges, with no injectivity or non-tree checks. It is the bottom-up dynamic
// program of Example 4:
//
//	c_u(v) = ∏_{uc ∈ children(u)} Σ_{v' ∈ N^u_uc(v)} c_uc(v')
//	W_CST  = Σ_{v ∈ C(root)} c_root(v)
//
// Counts are float64 because real workloads overflow int64; the scheduler
// only compares magnitudes. Its DP table is the one allocation; a caller
// pricing piece after piece holds a WorkloadTable instead.
func EstimateWorkload(c *CST) float64 {
	var wt WorkloadTable
	return wt.Estimate(c)
}

// WorkloadTable reuses the DP table of EstimateWorkload across estimates:
// it grows to the largest Σ|C(u)| seen and is never shrunk, so pricing a
// stream of pieces (Algorithm 3 prices every one) allocates only when a
// piece outgrows all before it. The zero value is ready; one WorkloadTable
// must not serve two estimates concurrently.
type WorkloadTable struct{ buf []float64 }

// Estimate returns EstimateWorkload(c), computed in the reused table.
func (wt *WorkloadTable) Estimate(c *CST) float64 { return wt.estimate(c, nil) }

// estimate returns EstimateWorkload(c), or, with m non-nil, that of the
// piece of c that m describes, without building it: the DP runs on c,
// reading only the kept rows of the changed vertices and filtering c's rows
// by the kept bitsets. Each sum visits the kept targets in the order the
// built piece lists them, so the two agree bit for bit.
func (wt *WorkloadTable) estimate(c *CST, m *keptMask) float64 {
	var offBuf [64]int
	table, off := perCandidateWorkload(c, m, offBuf[:0], wt.buf)
	wt.buf = table
	root := c.Tree.Root
	row := table[off[root]:off[root+1]]
	var total float64
	if m != nil && m.changed[root] {
		for _, j := range m.keptList[root] { // the root's chunk, ascending
			total += row[j]
		}
		return total
	}
	for _, w := range row {
		total += w
	}
	return total
}

// perCandidateWorkload returns the DP table c_u(v) as one flat slice: the
// row of query vertex u, indexed by candidate index, is
// table[off[u]:off[u+1]]. off is appended to offBuf, so a caller's array on
// the stack spares it an allocation, and the table reuses buf's storage
// when it is large enough. With m nil every entry is rewritten; otherwise
// only the entries of the piece m describes are, and the others are
// never read. Fig. 4(d)'s example is a direct test of this function.
func perCandidateWorkload(c *CST, m *keptMask, offBuf []int, buf []float64) (table []float64, off []int) {
	off = append(offBuf, 0)
	for _, cands := range c.Cand {
		off = append(off, off[len(off)-1]+len(cands))
	}
	if n := off[len(off)-1]; cap(buf) >= n {
		table = buf[:n]
	} else {
		table = make([]float64, n)
	}
	t := c.Tree
	// Bottom-up over BFS order, one child at a time: the first child's sums
	// set a row, each further child's multiply into it — the same products,
	// in the same order, as multiplying them into 1.
	for i := len(t.BFSOrder) - 1; i >= 0; i-- {
		u := t.BFSOrder[i]
		row := table[off[u]:off[u+1]]
		var rows []CandIndex // the rows to fill; nil for all of them
		if m != nil && m.changed[u] {
			rows = m.keptList[u]
		}
		n := len(row)
		if rows != nil {
			n = len(rows)
		}
		if len(t.Children[u]) == 0 {
			for r := 0; r < n; r++ {
				j := r
				if rows != nil {
					j = int(rows[r])
				}
				row[j] = 1
			}
			continue
		}
		for k, uc := range t.Children[u] {
			child, adj := table[off[uc]:off[uc+1]], c.Edge(u, uc)
			var kept []uint64 // the child's kept bitset, when it changed
			if m != nil && m.changed[uc] {
				kept = m.kept[uc]
			}
			for r := 0; r < n; r++ {
				j := r
				if rows != nil {
					j = int(rows[r])
				}
				var sum float64
				for _, x := range adj.Neighbors(CandIndex(j)) {
					if kept == nil || isKept(kept, x) {
						sum += child[x]
					}
				}
				if k == 0 {
					row[j] = sum
				} else {
					row[j] *= sum
				}
			}
		}
	}
	return table, off
}
