package core

import (
	"testing"

	"fastmatch/internal/fpgasim"
)

// TestKernelRunAllocsO1PerRound is the allocation regression gate for the
// arena refactor: with a warmed Scratch, a whole kernel run may allocate
// only its fixed per-run bookkeeping (runState, hoists, cycle counter —
// O(|V(q)|) small objects), never per partial result and never per round
// beyond that fixed set. Before the arena, this run allocated one mapping
// slice per partial (thousands per run); the bound below fails loudly if
// any per-partial allocation creeps back in.
func TestKernelRunAllocsO1PerRound(t *testing.T) {
	g := ldbcGraph(200)
	for _, name := range []string{"q1", "q5"} {
		c, o := ldbcPlan(t, g, name)
		opts := Options{Variant: VariantSep, Config: fpgasim.DefaultConfig(), Scratch: new(Scratch)}
		res, err := Run(c, o, opts) // warm: sizes the scratch arena
		if err != nil {
			t.Fatal(err)
		}
		if res.Partials < 2000 {
			t.Fatalf("%s: only %d partials; workload too small for the gate to mean anything", name, res.Partials)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Run(c, o, opts); err != nil {
				t.Fatal(err)
			}
		})
		// Fixed budget, independent of partials (>= 2000 here) and rounds:
		// generous against Go version drift, but three orders of magnitude
		// below one-alloc-per-partial.
		const budget = 60
		if allocs > budget {
			t.Errorf("%s: %v allocs per run for %d partials over %d rounds; want <= %d (O(1) per run)",
				name, allocs, res.Partials, res.Rounds, budget)
		}
	}
}

// TestKernelScratchReuseMatchesFresh: a Scratch carried across runs of
// different CSTs (the host pool's reality — partitions of many shapes churn
// through one pool) must never change counts.
func TestKernelScratchReuseMatchesFresh(t *testing.T) {
	sc := new(Scratch)
	g := ldbcGraph(200)
	for _, name := range []string{"q1", "q2", "q3", "q4", "q5"} {
		c, o := ldbcPlan(t, g, name)
		fresh, err := Run(c, o, Options{Variant: VariantSep, Config: fpgasim.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		reused, err := Run(c, o, Options{Variant: VariantSep, Config: fpgasim.DefaultConfig(), Scratch: sc})
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Count != reused.Count || fresh.Partials != reused.Partials ||
			fresh.Rounds != reused.Rounds || fresh.Cycles != reused.Cycles {
			t.Errorf("%s: scratch-reuse drift: fresh {count=%d partials=%d rounds=%d cycles=%d} vs reused {count=%d partials=%d rounds=%d cycles=%d}",
				name, fresh.Count, fresh.Partials, fresh.Rounds, fresh.Cycles,
				reused.Count, reused.Partials, reused.Rounds, reused.Cycles)
		}
	}
}
