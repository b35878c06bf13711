//go:build !race

package host

import (
	"context"
	"testing"

	"fastmatch/ldbc"
)

// poolDropAllowance is zero without the race detector: a pooled kernel
// Scratch comes back warm (see race_alloc_test.go).
const poolDropAllowance = 0

// TestPartitionedMatchAllocsFlat: on the 32 KiB / No 32 card a warm
// cached-plan Match at Workers 1 builds every piece into one its consumer
// recycled, and prices them on a pooled δ table, so it allocates under one
// fixed bound whatever its piece count: q5 at LDBC base 400 (16 pieces) and
// at base 1600 (71). It costs 16 and 35–50 allocations: the per-call
// state, the δ-share queue's growth, one per δ-share drain, and spare
// arenas regrown for a larger piece. With a fresh piece per build it
// allocated 136 and 548 times. The gate lives in the !race build because
// sync.Pool drops Puts at random under the race detector, which would make
// any flat bound false.
func TestPartitionedMatchAllocsFlat(t *testing.T) {
	q, err := ldbc.QueryByName("q5")
	if err != nil {
		t.Fatal(err)
	}
	const bound = 64
	for _, base := range []int{400, 1600} {
		g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: base, Seed: 42})
		cfg := smallCardConfig(1)
		cfg.Delta = 0.1
		if cfg.Plan, err = Prepare(context.Background(), q, g, cfg); err != nil {
			t.Fatal(err)
		}
		var pieces int
		allocs := testing.AllocsPerRun(10, func() {
			rep, err := Match(context.Background(), q, g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			pieces = rep.NumPartitions
		})
		t.Logf("base %d: %v allocations for %d pieces", base, allocs, pieces)
		if pieces < 8 {
			t.Fatalf("base %d: only %d pieces; the card is not tight enough for the gate", base, pieces)
		}
		if allocs > bound {
			t.Errorf("base %d: cached-plan Match allocates %v times for %d pieces; want <= %d whatever the piece count",
				base, allocs, pieces, bound)
		}
	}
}
