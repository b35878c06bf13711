package core

import (
	"reflect"
	"testing"

	"fastmatch/graph"
	"fastmatch/internal/cst"
	"fastmatch/internal/order"
)

// kernelCase is one (CST, order) pair the allocation and Scratch-reuse
// gates run.
type kernelCase struct {
	name string
	c    *cst.CST
	o    order.Order
}

// reuseCases is the sequence the allocation and Scratch-reuse gates cycle
// through one Scratch: LDBC queries at base 200, whose check slots all
// gallop, interleaved with a triangle and a 4-clique over a dense
// one-label graph (average degree 40, so every check slot takes the
// bitset). The order crosses |V(q)|, the slot count and the bitset words
// both upwards and downwards (TestKernelScratchReuseMatchesFresh checks
// that it does), so a table prepare forgets to rewrite shows up as drift.
func reuseCases(t *testing.T) []kernelCase {
	t.Helper()
	g := ldbcGraph(200)
	dense := graph.RandomUniform(graph.GenConfig{NumVertices: 120, NumLabels: 1, AvgDegree: 40, Seed: 47})
	densePlan := func(q *graph.Query) kernelCase {
		tree := order.BuildBFSTree(q, order.SelectRoot(q, dense))
		c := cst.Build(q, dense, tree)
		return kernelCase{q.Name(), c, order.PathBased(tree, c)}
	}
	triangle := graph.MustQuery("dense-triangle", []graph.Label{0, 0, 0}, [][2]graph.QueryVertex{{0, 1}, {1, 2}, {2, 0}})
	clique := graph.MustQuery("dense-4clique", []graph.Label{0, 0, 0, 0},
		[][2]graph.QueryVertex{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	var cases []kernelCase
	for _, name := range []string{"q5", "q0", "triangle", "q8", "q1", "clique", "q7", "q2", "triangle", "q4", "q3", "q6"} {
		switch name {
		case "triangle":
			cases = append(cases, densePlan(triangle))
		case "clique":
			cases = append(cases, densePlan(clique))
		default:
			c, o := ldbcPlan(t, g, name)
			cases = append(cases, kernelCase{name, c, o})
		}
	}
	return cases
}

// TestKernelRunAllocsZeroWarm is the allocation gate for the pooled
// Scratch: once a Scratch has run every case, a kernel run allocates
// nothing — not per partial, not per round and not per run — on both
// modelled cards (the default card with the BRAM-resident SEP variant, and
// the 32 KiB / No 32 card with the CST left in DRAM, whose batches resume
// across many rounds). One measured op cycles through all of reuseCases on
// the same Scratch, so a table that regrows when a plan shrinks and grows
// again fails here too. Measured 0 on Go 1.24.
func TestKernelRunAllocsZeroWarm(t *testing.T) {
	cases := reuseCases(t)
	for _, card := range oracleCards() {
		opts := Options{Variant: card.variant, Config: card.cfg, Scratch: new(Scratch), Cancel: func() bool { return false }}
		runs := make([]func(), len(cases))
		var partials int64
		for i, kc := range cases {
			res, err := Run(kc.c, kc.o, opts) // warm: sizes the Scratch
			if err != nil {
				t.Fatalf("%s %s: %v", card.name, kc.name, err)
			}
			partials += res.Partials
			runs[i] = func() {
				if _, err := Run(kc.c, kc.o, opts); err != nil {
					t.Fatal(err)
				}
			}
		}
		if partials < 100000 {
			t.Fatalf("%s: only %d partials over %d runs; workload too small for the gate to mean anything",
				card.name, partials, len(cases))
		}
		allocs := testing.AllocsPerRun(5, func() {
			for _, run := range runs {
				run()
			}
		})
		if allocs == 0 {
			continue
		}
		for i, run := range runs {
			t.Logf("%s %s: %v allocs per warm run", card.name, cases[i].name, testing.AllocsPerRun(5, run))
		}
		t.Errorf("%s: %v allocs per warm cycle of %d runs; want 0", card.name, allocs, len(runs))
	}
}

// planShape is what prepare lays out in the Scratch for one run: |V(q)|,
// the check-slot count and the bitset words.
type planShape struct{ nq, slots, words int }

// TestKernelScratchReuseMatchesFresh: a Scratch carried across runs of
// different CSTs (the host pool's reality — pieces of many shapes churn
// through one pool) must never change a Result field or the Emit sequence,
// on either modelled card. reuseCases must make every dimension of the plan
// layout both grow and shrink between consecutive runs, or the gate would
// not reach the stale-table cases it exists for.
func TestKernelScratchReuseMatchesFresh(t *testing.T) {
	cases := reuseCases(t)
	for _, card := range oracleCards() {
		sc := new(Scratch)
		var prev planShape
		var grew, shrank [3]bool
		for i, kc := range cases {
			var freshTr, reusedTr emitTrace
			fresh, err := Run(kc.c, kc.o, Options{Variant: card.variant, Config: card.cfg, Emit: freshTr.emit})
			if err != nil {
				t.Fatal(err)
			}
			reused, err := Run(kc.c, kc.o, Options{Variant: card.variant, Config: card.cfg, Emit: reusedTr.emit, Scratch: sc})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, reused) || freshTr != reusedTr {
				t.Errorf("%s %s: scratch-reuse drift:\n fresh  %+v (emit %d, %x)\n reused %+v (emit %d, %x)",
					card.name, kc.name, fresh, freshTr.n, freshTr.sum, reused, reusedTr.n, reusedTr.sum)
			}
			shape := planShape{len(kc.o), len(sc.slotQ), len(sc.bitWords)}
			if i > 0 {
				for k, d := range [3]int{shape.nq - prev.nq, shape.slots - prev.slots, shape.words - prev.words} {
					grew[k] = grew[k] || d > 0
					shrank[k] = shrank[k] || d < 0
				}
			}
			prev = shape
		}
		for k, dim := range [3]string{"|V(q)|", "check slots", "bitset words"} {
			if !grew[k] || !shrank[k] {
				t.Errorf("%s: %s never both grows and shrinks across the cases (grew %v, shrank %v)",
					card.name, dim, grew[k], shrank[k])
			}
		}
	}
}
