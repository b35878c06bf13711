package exp

import (
	"fmt"

	"fastmatch/internal/core"
	"fastmatch/internal/cst"
	"fastmatch/internal/order"
)

func init() {
	register("ablation-no", runAblationNo)
	register("ablation-cycles", runAblationCycles)
}

// runAblationNo sweeps the per-round batch size No (Section VI-B, Eq. 2):
// small No leaves pipeline fill and round overheads unamortised; large No
// buys nothing more once overheads vanish but costs BRAM for the buffer.
func runAblationNo(cfg Config) ([]Table, error) {
	c, o, err := buildCST(cfg, "DG03", "q5")
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:      "ablation-no",
		Title:   "Batch size No vs kernel cycles and buffer footprint (q5, DG03, FAST-BASIC)",
		Columns: []string{"No", "cycles", "rounds", "buffer high-water", "buffer bytes"},
		Notes:   []string{"Eq. 2: overhead term ~ rounds × ΣL; buffer = (|V(q)|-1)·No slots"},
	}
	for _, no := range []int{8, 32, 128, 512, 2048} {
		dev := cfg.device()
		dev.No = no
		dev.BRAMBytes = 64 << 20 // generous so admission never interferes with the sweep
		res, err := core.Run(c, o, core.Options{Variant: core.VariantBasic, Config: dev})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", no),
			fmt.Sprintf("%d", res.Cycles),
			fmt.Sprintf("%d", res.Rounds),
			fmt.Sprintf("%d", res.BufferHighWater),
			fmt.Sprintf("%d", dev.BufferBytes(c.Query.NumVertices())))
	}
	return []Table{t}, nil
}

// runAblationCycles checks the modelled cycle counts against the paper's
// closed-form equations on a fixed workload: with N partial results and M
// edge tasks, Eq. 2 ≈ 4N+2M (BASIC), Eq. 3 ≈ 2N+max(N,M) (TASK) and
// Eq. 4 ≈ N+max(N,M) (SEP), up to fill/overhead terms.
func runAblationCycles(cfg Config) ([]Table, error) {
	g, err := cfg.dataset("DG03")
	if err != nil {
		return nil, err
	}
	queries, err := cfg.queries([]string{"q2", "q5", "q7"})
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:      "ablation-cycles",
		Title:   "Measured kernel cycles vs the paper's closed-form equations",
		Columns: []string{"query", "variant", "cycles", "equation", "cycles/eq"},
		Notes:   []string{"equation evaluated with measured N (partials) and M (edge tasks)"},
	}
	for _, q := range queries {
		root := order.SelectRoot(q, g)
		tree := order.BuildBFSTree(q, root)
		c := cst.Build(q, g, tree)
		o := order.PathBased(tree, c)
		dev := cfg.device()
		dev.BRAMBytes = 64 << 20
		for _, v := range []core.Variant{core.VariantBasic, core.VariantTask, core.VariantSep} {
			res, err := core.Run(c, o, core.Options{Variant: v, Config: dev})
			if err != nil {
				return nil, err
			}
			n, m := res.Partials, res.EdgeTasks
			var eq int64
			switch v {
			case core.VariantBasic:
				eq = 4*n + 2*m
			case core.VariantTask:
				eq = 2*n + max(n, m)
			case core.VariantSep:
				eq = n + max(n, m)
			}
			ratioCell := "-"
			if eq > 0 {
				ratioCell = fmt.Sprintf("%.2f", float64(res.Cycles)/float64(eq))
			}
			t.AddRow(q.Name(), v.String(),
				fmt.Sprintf("%d", res.Cycles),
				fmt.Sprintf("%d", eq), ratioCell)
		}
	}
	return []Table{t}, nil
}
