package cst

import (
	"testing"

	"fastmatch/graph"
	"fastmatch/internal/order"
	"fastmatch/ldbc"
)

// FuzzPartitionCounts fuzzes the partition/enumerate invariant across
// threshold space, including the degenerate δS/δD values a caller can hand
// PartitionConfig (zero, negative, or absurdly tiny budgets, and fixed-k
// overrides): whatever the thresholds, partitioning must terminate and the
// per-piece counts must union to exactly the unpartitioned count, for the
// sequential producer and the concurrent one.
//
// corpus selects the subject: 0 is the paper's Fig. 1 running example, 1 is
// LDBC q1 over a small generated social network (the two seeds below), and
// anything else derives a random graph/query pair from seed.
func FuzzPartitionCounts(f *testing.F) {
	// Seed corpus: the Fig. 1 example with the default-ish thresholds, the
	// same with degenerate δS/δD, and LDBC q1 with a budget tight enough to
	// force splits plus a fixed-k variant.
	f.Add(uint8(0), int64(1), int64(256), 4, 0, uint8(2))
	f.Add(uint8(0), int64(1), int64(0), -1, 0, uint8(3))
	f.Add(uint8(0), int64(2), int64(-7), 0, 3, uint8(4))
	f.Add(uint8(1), int64(7), int64(2048), 8, 0, uint8(2))
	f.Add(uint8(1), int64(7), int64(1), 1, 2, uint8(4))
	f.Add(uint8(2), int64(99), int64(512), 3, 0, uint8(2))

	f.Fuzz(func(t *testing.T, corpus uint8, seed int64, maxSize int64, maxDeg, fixedK int, workers uint8) {
		var (
			q *graph.Query
			g *graph.Graph
		)
		switch corpus % 3 {
		case 0:
			q, g = fig1Query(), fig1Data()
		case 1:
			g = ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 40, Seed: 1 + seed%4})
			var err error
			q, err = ldbc.QueryByName("q1")
			if err != nil {
				t.Fatal(err)
			}
		default:
			pc := randomPropCase(seed & 0xffff)
			q, g = pc.q, pc.g
		}
		tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
		c := Build(q, g, tr)
		o := order.PathBased(tr, c)

		// Clamp only magnitudes, never signs: zero and negative thresholds
		// are the degenerate cases under test (they make Fits always false
		// while contributing nothing to the partition factor, driving the
		// recursion to atomic pieces or the order's end).
		if maxSize > c.SizeBytes()*2 {
			maxSize = c.SizeBytes() * 2
		}
		if maxDeg > 1<<16 {
			maxDeg = 1 << 16
		}
		if fixedK < 0 {
			fixedK = -fixedK
		}
		cfg := PartitionConfig{
			MaxSizeBytes:  maxSize,
			MaxCandDegree: maxDeg,
			FixedK:        fixedK % 6,
		}
		w := int(workers%4) + 1

		want := Count(c, o)
		var seqSum int64
		seqN := Partition(c, o, cfg, func(p *CST) { seqSum += Enumerate(p, o, nil) })
		if seqSum != want {
			t.Fatalf("Partition: piece counts union to %d, want %d (cfg=%+v)", seqSum, want, cfg)
		}

		var ordSum int64
		ordN := PartitionConcurrent(c, o, cfg, w, func(p *CST) {
			ordSum += Enumerate(p, o, nil)
		})
		if ordSum != want {
			t.Fatalf("PartitionConcurrent(workers=%d): union %d, want %d (cfg=%+v)", w, ordSum, want, cfg)
		}
		if ordN != seqN {
			t.Fatalf("PartitionConcurrent(workers=%d) produced %d pieces, sequential %d (cfg=%+v)", w, ordN, seqN, cfg)
		}
	})
}
