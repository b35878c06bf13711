package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[n-1-i] = float64(i + 1) // descending: percentile must not rely on order
	}
	return vs
}

func TestPercentileTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{200, 0.95, 190, true},  // 10 samples above the 190th
		{199, 0.95, 190, false}, // 9 above
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as supported")
	}
}

func TestCalmQuartileOfRounds(t *testing.T) {
	// Eight rounds, three of them inside slow spells of the machine.
	rounds := []float64{20.3, 27.2, 20.1, 22.4, 20.5, 20.2, 24.0, 20.4}
	st := calmOfRounds(rounds, false)
	if st.Value != 20.2 {
		t.Errorf("calm quartile of a lower-is-better metric = %v, want the 2nd smallest, 20.2", st.Value)
	}
	if len(st.Rounds) != len(rounds) || st.Rounds[1] != 27.2 {
		t.Errorf("per-round values not kept in order: %v", st.Rounds)
	}
	if got := calmOfRounds([]float64{45, 49, 41, 48, 50, 47, 44, 49.5}, true).Value; got != 49.5 {
		t.Errorf("calm quartile of a higher-is-better metric = %v, want the 2nd largest, 49.5", got)
	}
	if got := calmOfRounds([]float64{3, 1, 2}, false).Value; got != 1 {
		t.Errorf("calm quartile of three rounds = %v, want 1", got)
	}
	if !math.IsNaN(calmOfRounds(nil, false).Value) {
		t.Error("calm quartile of no rounds is not NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestGroupedMedianWeighsGroupsBySize(t *testing.T) {
	// Two modes a gap apart: the plain median jumps across the gap when one
	// sample changes sides; the grouped median moves by that sample's weight.
	fast, slow := []float64{1, 1, 1, 1, 1, 1}, []float64{3, 3, 3, 3}
	if got := groupedMedian([][]float64{fast, slow, nil}); got != (6*1+4*3)/10.0 {
		t.Errorf("grouped median = %v, want 1.8", got)
	}
	if got := groupedMedian([][]float64{{4, 1, 3, 2}}); got != 2.5 {
		t.Errorf("grouped median of one group = %v, want its median 2.5", got)
	}
	if !math.IsNaN(groupedMedian(nil)) {
		t.Error("grouped median of nothing is not NaN")
	}
}

func TestTailNeedsEveryRoundSupported(t *testing.T) {
	full, short := seq(200), seq(199)
	if st, ok := tailOfRounds([][]float64{full, full, full}, 0.95); !ok || st.Value != 190 {
		t.Errorf("tail over supported rounds = %v, %v; want 190, true", st.Value, ok)
	}
	// An unsupported tail keeps its value, for -smoke, and says so.
	if st, ok := tailOfRounds([][]float64{full, short, full}, 0.95); ok || st.Value != 190 {
		t.Errorf("tail with one round of fewer than ten samples beyond it = %v, %v; want 190, false", st.Value, ok)
	}
	if st, ok := tailOfRounds([][]float64{full, nil}, 0.95); ok || len(st.Rounds) != 1 {
		t.Errorf("tail with an empty round = %v, %v; want one round's value, false", st.Rounds, ok)
	}
	if _, ok := tailOfRounds(nil, 0.95); ok {
		t.Error("tail of no rounds reported as supported")
	}
}

// A cell is the workload's own measurement or a copy of op_p50_ms, by the
// table's On alone: never by how many samples a round happened to hold.
func TestInertCellsFollowTheTable(t *testing.T) {
	r := round{lat: seq(250), attempted: 250}
	r.after.at = r.before.at.Add(1e9)
	for _, w := range workloadTable {
		res := result{Workload: w.Name, E2E: summarize([]round{r, r, r}), Attempted: 750}
		if got := res.E2E["ops_per_s"].Value; got != 250 || res.E2E["op_p50_ms"].Value != 125.5 {
			t.Fatalf("ops_per_s %v, op_p50_ms %v; want 250, 125.5", got, res.E2E["op_p50_ms"].Value)
		}
		if _, ok := res.E2E["op_p95_ms"]; ok {
			t.Fatal("summarize reports op_p95_ms: only serve_mutate measures it, and does so itself")
		}
		res.E2E["setup_s"], res.E2E["live_heap_mb"] = roundStat{Value: 1}, roundStat{Value: 1}
		res.fillInert(true)
		res.check()
		missing := 0
		for _, d := range e2eTable {
			switch {
			case d.Name == "failed_share" || d.Name == "setup_s" || d.Name == "live_heap_mb":
			case !d.on(w.Name):
				if res.E2E[d.Name].Value != 125.5 {
					t.Errorf("%s: %s is not the workload's own and reads %v, want op_p50_ms", w.Name, d.Name, res.E2E[d.Name].Value)
				}
			case d.On != nil:
				missing++ // its own, and this test gave it no value
			}
		}
		if len(res.Problems) != missing {
			t.Errorf("%s: %d problems for %d own metrics without a sample: %v", w.Name, len(res.Problems), missing, res.Problems)
		}
		lenient := result{Workload: w.Name, E2E: summarize([]round{r}), Attempted: 250}
		lenient.fillInert(false)
		if len(lenient.Problems) != 0 {
			t.Errorf("%s: fillInert(false) recorded %v", w.Name, lenient.Problems)
		}
	}
}
