package exp

import (
	"context"
	"fmt"
	"time"

	"fastmatch/internal/cst"
	"fastmatch/internal/host"
	"fastmatch/internal/order"
)

func init() {
	register("fig8", runFig8)
	register("fig9", runFig9)
	register("fig10", runFig10)
}

// buildCST constructs the CST and matching order for (query, dataset).
func buildCST(cfg Config, dataset, query string) (*cst.CST, order.Order, error) {
	g, err := cfg.dataset(dataset)
	if err != nil {
		return nil, nil, err
	}
	qs, err := cfg.queries([]string{query})
	if err != nil {
		return nil, nil, err
	}
	q := qs[0]
	root := order.SelectRoot(q, g)
	tree := order.BuildBFSTree(q, root)
	c := cst.Build(q, g, tree)
	return c, order.PathBased(tree, c), nil
}

// runFig8 regenerates Fig. 8, the k-determination experiment: the greedy
// partition factor versus fixed k ∈ {2,4,6,8,10}, reporting the average
// number of CST partitions and average partition time across the benchmark
// queries on DG03. The paper finds greedy gives the fewest partitions and
// the least partition time, with little sensitivity for small fixed k.
func runFig8(cfg Config) ([]Table, error) {
	queries := allQueryNames
	if len(cfg.Queries) > 0 {
		queries = cfg.Queries
	}
	t := Table{
		ID:      "fig8",
		Title:   "Average #CST and partition time varying partition factor k (DG03)",
		Columns: []string{"k", "avg #CST", "avg partition time (ms)"},
		Notes:   []string{"greedy = max(|CST|/δS, D_CST/δD), the paper's strategy"},
	}
	for _, k := range []int{0, 2, 4, 6, 8, 10} {
		var totalParts int
		var totalTime time.Duration
		for _, qn := range queries {
			c, o, err := buildCST(cfg, "DG03", qn)
			if err != nil {
				return nil, err
			}
			pc := host.DefaultPartition(cfg.device(), c.Query.NumVertices())
			pc.FixedK = k
			start := time.Now()
			totalParts += cst.Partition(c, o, pc, func(*cst.CST) {})
			totalTime += time.Since(start)
		}
		label := "greedy"
		if k > 0 {
			label = fmt.Sprintf("%d", k)
		}
		t.AddRow(label,
			fmt.Sprintf("%.1f", float64(totalParts)/float64(len(queries))),
			ms(totalTime/time.Duration(len(queries))))
	}
	return []Table{t}, nil
}

// runFig9 regenerates Fig. 9: the number of CST partitions and the total
// partitioned-CST size relative to the data graph (S_CST/S_G) for the
// paper's query subset across all datasets. The paper sees #CST grow with
// graph size while S_CST/S_G stays below 60% and roughly stable.
func runFig9(cfg Config) ([]Table, error) {
	queries, err := cfg.queries([]string{"q0", "q1", "q2", "q4", "q7", "q8"})
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:      "fig9",
		Title:   "Number and total size of partitioned CST",
		Columns: []string{"query", "dataset", "#CST", "S_CST/S_G"},
	}
	for _, q := range queries {
		for _, ds := range []string{"DG01", "DG03", "DG10", "DG60"} {
			c, o, err := buildCST(cfg, ds, q.Name())
			if err != nil {
				return nil, err
			}
			g, _ := cfg.dataset(ds)
			var totalBytes int64
			n := cst.Partition(c, o, host.DefaultPartition(cfg.device(), c.Query.NumVertices()), func(p *cst.CST) {
				totalBytes += p.SizeBytes()
			})
			t.AddRow(q.Name(), ds, fmt.Sprintf("%d", n), pct(float64(totalBytes)/float64(g.SizeBytes())))
		}
	}
	return []Table{t}, nil
}

// runFig10 regenerates Fig. 10: partition time against the number of
// embeddings as the data graph grows. The paper reports partition time per
// embedding staying within the same order of magnitude from DG01 to DG60.
func runFig10(cfg Config) ([]Table, error) {
	queries, err := cfg.queries([]string{"q0", "q1", "q2", "q4", "q7", "q8"})
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:      "fig10",
		Title:   "Partition time vs #embeddings across scales",
		Columns: []string{"dataset", "query", "#emb", "partition (ms)", "ns/emb"},
	}
	for _, ds := range []string{"DG01", "DG03", "DG10", "DG60"} {
		g, err := cfg.dataset(ds)
		if err != nil {
			return nil, err
		}
		for _, q := range queries {
			rep, err := host.Match(context.Background(), q, g, cfg.hostConfig(0, 0)) // VariantSep
			if err != nil {
				return nil, err
			}
			perEmb := "-"
			if rep.Embeddings > 0 {
				perEmb = fmt.Sprintf("%.1f", float64(rep.PartitionTime.Nanoseconds())/float64(rep.Embeddings))
			}
			t.AddRow(ds, q.Name(), count(rep.Embeddings), ms(rep.PartitionTime), perEmb)
		}
	}
	return []Table{t}, nil
}
