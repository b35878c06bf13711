package main

import (
	"encoding/json"
	"io"
	"math"
	"testing"
)

// TestSmoke runs both passes of all four workloads at -smoke sizing (base
// 60, 0.2 s rounds). It measures nothing; it checks that every declared
// metric comes out, finite, that every answer passes the oracle, and that
// the driver's result line has the shape the contract fixes.
func TestSmoke(t *testing.T) {
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.Name
	}
	results, err := runSet(io.Discard, names, smokeSizing(), 42, []bool{false, true}, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*len(names) {
		t.Fatalf("%d results, want %d", len(results), 2*len(names))
	}
	for _, r := range results {
		if r.Failed != 0 || r.Attempted < 1 || len(r.Problems) > 0 {
			t.Errorf("%s traced=%v: attempted %d, failed %d, problems %v", r.Workload, r.Traced, r.Attempted, r.Failed, r.Problems)
		}
		var line struct {
			Correct   bool  `json:"correct"`
			Attempted int64 `json:"attempted"`
			Failed    int64 `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(r.driverLine()), &line); err != nil {
			t.Fatalf("%s: result line: %v", r.Workload, err)
		}
		if !line.Correct || line.Attempted != r.Attempted || line.Failed != 0 {
			t.Errorf("%s: result line %+v", r.Workload, line)
		}
		want := map[string]string{}
		if r.Traced {
			for _, d := range layerTable {
				want[d.Name] = d.Unit
			}
		} else {
			for _, d := range e2eTable {
				if v := r.E2E[d.Name].Value; d.Name != "failed_share" && !(v > 0) {
					t.Errorf("%s: %s = %v; an end-to-end metric is never 0", r.Workload, d.Name, v)
				}
				if d.Bound > 0 {
					want[d.Name] = d.Unit
				}
				if !d.on(r.Workload) && r.E2E[d.Name].Value != r.E2E["op_p50_ms"].Value {
					t.Errorf("%s: %s is not measured here and reads %v, not op_p50_ms %v", r.Workload, d.Name, r.E2E[d.Name].Value, r.E2E["op_p50_ms"].Value)
				}
			}
			if r.E2E["failed_share"].Value != 0 {
				t.Errorf("%s: failed_share %v", r.Workload, r.E2E["failed_share"].Value)
			}
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("%s traced=%v: result line has %d metrics, want %d", r.Workload, r.Traced, len(line.Metrics), len(want))
		}
		for name, unit := range want {
			m, ok := line.Metrics[name]
			if !ok || m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) || m.Unit != unit {
				t.Errorf("%s: metric %s missing, not finite or in the wrong unit: %+v", r.Workload, name, m)
			}
		}
	}
}
