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
// only compares magnitudes.
func EstimateWorkload(c *CST) float64 {
	perCand := PerCandidateWorkload(c)
	root := c.Tree.Root
	var total float64
	for i := range c.Cand[root] {
		total += perCand[root][i]
	}
	return total
}

// PerCandidateWorkload returns the DP table c_u(v) indexed as
// [queryVertex][candidateIndex]. The partitioner uses it to split root
// candidates into balanced chunks, and Fig. 4(d)'s example is a direct test
// of this function.
func PerCandidateWorkload(c *CST) [][]float64 {
	n := c.Query.NumVertices()
	table := make([][]float64, n)
	t := c.Tree
	// Bottom-up over BFS order.
	for i := len(t.BFSOrder) - 1; i >= 0; i-- {
		u := t.BFSOrder[i]
		table[u] = make([]float64, len(c.Cand[u]))
		if len(t.Children[u]) == 0 {
			for j := range table[u] {
				table[u][j] = 1
			}
			continue
		}
		for j := range c.Cand[u] {
			prod := 1.0
			for _, uc := range t.Children[u] {
				var sum float64
				for _, k := range c.Adjacency(u, uc, CandIndex(j)) {
					sum += table[uc][k]
				}
				prod *= sum
			}
			table[u][j] = prod
		}
	}
	return table
}
