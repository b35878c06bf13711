package main

import (
	"fmt"
	"io"
	"math"
)

// selfCheckSeed is the second seed -selfcheck checks the oracle on.
const selfCheckSeed = 7

// selfCheck is the evidence that the benchmark repeats: it runs both passes
// of the named workloads twice on one seed and reports, per workload and
// end-to-end metric, both values and whether the second is within the
// metric's same-seed tolerance (Repeat, Floor) of the first; exact metrics,
// end-to-end and per-layer, must be identical.
// It then runs the untraced pass on a second seed, where only the oracle's
// verdict matters.
func selfCheck(w io.Writer, names []string, sz sizing, seed int64) bool {
	ok := true
	var sets [2][]*result
	for i := range sets {
		var err error
		if sets[i], err = runSet(io.Discard, names, sz, seed, []bool{false, true}, nil); err != nil {
			fmt.Fprintln(w, "selfcheck:", err)
			return false
		}
	}
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, r := range []*result{a, b} {
			for _, p := range r.Problems {
				ok = false
				fmt.Fprintf(w, "%s PROBLEM %s\n", r.Workload, p)
			}
		}
		if a.Traced {
			for _, d := range layerTable {
				if d.Exact && a.Layers[d.Name] != b.Layers[d.Name] {
					ok = false
					fmt.Fprintf(w, "%s %s %v %v %s NOT IDENTICAL\n", a.Workload, d.Name, a.Layers[d.Name], b.Layers[d.Name], d.Unit)
				}
			}
			continue
		}
		for _, d := range e2eTable {
			x, y := a.E2E[d.Name].Value, b.E2E[d.Name].Value
			verdict := "within"
			switch tolerance := math.Max(d.Repeat*math.Abs(x), d.Floor); {
			case !d.on(a.Workload):
				verdict = "inert" // a copy of op_p50_ms, judged there
			case tolerance == 0 && x != y:
				verdict = "NOT IDENTICAL"
				ok = false
			case math.Abs(y-x) > tolerance:
				verdict = "OUTSIDE"
				ok = false
			}
			fmt.Fprintf(w, "%s %s %v %v %s %s tolerance %v floor %v\n", a.Workload, d.Name, x, y, d.Unit, verdict, d.Repeat, d.Floor)
		}
	}
	second, err := runSet(io.Discard, names, sz, selfCheckSeed, []bool{false}, nil)
	if err != nil {
		fmt.Fprintln(w, "selfcheck:", err)
		return false
	}
	for _, r := range second {
		fmt.Fprintf(w, "%s seed %d attempted %d failed %d\n", r.Workload, selfCheckSeed, r.Attempted, r.Failed)
		for _, p := range r.Problems {
			fmt.Fprintf(w, "%s PROBLEM %s\n", r.Workload, p)
		}
		ok = ok && r.correct()
	}
	return ok
}
