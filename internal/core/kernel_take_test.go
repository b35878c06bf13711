package core

import (
	"testing"

	"fastmatch/internal/fpgasim"
)

// TestKernelTakeRefusalTallies pins the modelled tallies of runs that a
// Take budget stops part-way: the refused embedding's batch is charged up
// to and including the refused candidate, and nothing after it. n is the
// Take call that refuses; n = Count+1 never refuses. The figures are the
// per-candidate kernel's, on LDBC base 400 (seed 42) and the default card.
func TestKernelTakeRefusalTallies(t *testing.T) {
	type tally struct {
		count, partials, edgeTasks, pops, rounds, cycles int64
		stopped                                          bool
	}
	cases := []struct {
		query string
		n     int64
		want  tally
	}{
		{"q2", 1, tally{0, 6913, 20, 496, 4, 15858, true}},
		{"q2", 500, tally{499, 75013, 51736, 19500, 21, 152362, true}},
		{"q2", 1001, tally{1000, 115583, 83645, 31951, 32, 233742, false}},
		{"q3", 1, tally{0, 5208, 7, 3496, 5, 12454, true}},
		{"q3", 355, tally{354, 15787, 10586, 4365, 7, 33745, true}},
		{"q3", 711, tally{710, 26364, 21163, 5206, 10, 55043, false}},
		{"q5", 1, tally{0, 4517, 2, 412, 5, 10950, true}},
		{"q5", 2232, tally{2231, 38714, 34199, 2550, 13, 80130, true}},
		{"q5", 4465, tally{4464, 74393, 69806, 4604, 23, 152293, false}},
	}
	g := ldbcGraph(400)
	for _, tc := range cases {
		c, o := ldbcPlan(t, g, tc.query)
		var taken int64
		res, err := Run(c, o, Options{
			Variant: VariantSep,
			Config:  fpgasim.DefaultConfig(),
			Take:    func() bool { taken++; return taken < tc.n },
		})
		if err != nil {
			t.Fatal(err)
		}
		got := tally{res.Count, res.Partials, res.EdgeTasks, res.Pops, res.Rounds, res.Cycles, res.Stopped}
		if got != tc.want {
			t.Errorf("%s refusing take %d: got %+v, want %+v", tc.query, tc.n, got, tc.want)
		}
	}
}
