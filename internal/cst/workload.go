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
func (wt *WorkloadTable) Estimate(c *CST) float64 {
	var offBuf [64]int
	table, off := perCandidateWorkload(c, offBuf[:0], wt.buf)
	wt.buf = table
	root := c.Tree.Root
	var total float64
	for _, w := range table[off[root]:off[root+1]] {
		total += w
	}
	return total
}

// perCandidateWorkload returns the DP table c_u(v) as one flat slice: the
// row of query vertex u, indexed by candidate index, is
// table[off[u]:off[u+1]]. off is appended to offBuf, so a caller's array on
// the stack spares it an allocation, and the table reuses buf's storage
// when it is large enough — every entry is rewritten. Fig. 4(d)'s example
// is a direct test of this function.
func perCandidateWorkload(c *CST, offBuf []int, buf []float64) (table []float64, off []int) {
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
	// Bottom-up over BFS order.
	for i := len(t.BFSOrder) - 1; i >= 0; i-- {
		u := t.BFSOrder[i]
		row := table[off[u]:off[u+1]]
		if len(t.Children[u]) == 0 {
			for j := range row {
				row[j] = 1
			}
			continue
		}
		for j := range row {
			prod := 1.0
			for _, uc := range t.Children[u] {
				child := table[off[uc]:off[uc+1]]
				var sum float64
				for _, k := range c.Adjacency(u, uc, CandIndex(j)) {
					sum += child[k]
				}
				prod *= sum
			}
			row[j] = prod
		}
	}
	return table, off
}
