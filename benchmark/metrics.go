package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
)

// This file is the one place a workload or a metric is declared. The
// printer, the -json writer and the driver's result line read these tables,
// and TestManifestMatchesTables checks BENCHMARK.json and README.md against
// them, so a name cannot exist in one and not the others.

// Workload names are fixed: later issues cite them.
const (
	wlWarmPartition = "warm_partition"
	wlWarmKernel    = "warm_kernel"
	wlColdPlan      = "cold_plan"
	wlServeMutate   = "serve_mutate"
)

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"` // one line; copied into BENCHMARK.json
}

var workloadTable = []workloadDecl{
	{wlWarmPartition, "plan-cache hits on a 32 KiB card: cst.Partition/restrict is most of the op, so partition caching or piece views must show here and kernel tuning must not"},
	{wlWarmKernel, "same engine path on the U200 card: one piece, no partitioning, so core.Run and the delta-share enumerator are the op; the bypass for partition work"},
	{wlColdPlan, "one-shot fast.MatchContext with no plan cache: host.Prepare (root, tree, order, CST build) is most of the op, so work moved into planning or a cache shows"},
	{wlServeMutate, "open-loop HTTP reads beside deltas and a subscription on two Router tenants: plan-cache rotation, notify under mutMu and queueing set the tail and the write latency"},
}

// e2eDecl declares one end-to-end metric, measured with tracing off.
type e2eDecl struct {
	Name         string `json:"name"`
	Unit         string `json:"unit"`
	HigherBetter bool   `json:"higher_better"`
	// Bound is BENCHMARK.json's bound: the share of the parent's median by
	// which the metric may worsen before the driver calls a change a
	// regression. The driver takes its medians over runs on ten different
	// seeds, so a bound is the spread measured that way (README, "Noise
	// floor") plus a margin, never below it. 0 keeps the metric out of
	// BENCHMARK.json: failed_share is 0 on a healthy run, and the driver's
	// contract wants metrics that never are; it travels as the result line's
	// attempted/failed instead.
	Bound float64 `json:"bound"`
	// Repeat and Floor are what -selfcheck holds two runs on one seed to:
	// they agree when they differ by at most Repeat of the first or by at
	// most Floor (in the metric's unit), whichever is larger. Both 0 means
	// the values must be identical.
	Repeat float64 `json:"repeat"`
	Floor  float64 `json:"floor,omitempty"`
	// On lists the workloads on which the metric is its own measurement;
	// nil means all four. The driver wants every metric from every
	// workload, so elsewhere the cell repeats the workload's op_p50_ms: an
	// inert cell that can only regress when op_p50_ms does.
	On  []string `json:"on,omitempty"`
	Def string   `json:"definition"`
}

// on reports whether the metric is its own measurement on the workload.
func (d e2eDecl) on(workload string) bool {
	return d.On == nil || slices.Contains(d.On, workload)
}

var (
	serveOnly  = []string{wlServeMutate}
	engineOnly = []string{wlWarmPartition, wlWarmKernel, wlColdPlan}
)

var e2eTable = []e2eDecl{
	{"setup_s", "s", false, 0.25, 0.10, 0.05, nil, "generation, construction and the cache-filling sweep; calm quartile of the set-ups a run makes (oracle time excluded)"},
	{"op_p50_ms", "ms", false, 0.25, 0.10, 0, nil, "median op latency (serve_mutate: reads only, from due time, the median of each request shape averaged over the shapes by their share of the reads)"},
	{"op_p95_ms", "ms", false, 0.25, 0.20, 0, serveOnly, "p95 of read latency from due time; every round must have ten samples beyond it"},
	{"ops_per_s", "1/s", true, 0.25, 0.10, 0, nil, "ok ops completed / measured wall"},
	{"cpu_ms_per_op", "ms", false, 0.25, 0.10, 0, nil, "process user+sys CPU (getrusage) / ops"},
	{"allocs_per_op", "count", false, 0.10, 0.02, 0, nil, "MemStats.Mallocs delta / ops"},
	{"alloc_kb_per_op", "KiB", false, 0.20, 0.15, 0, nil, "MemStats.TotalAlloc delta / ops"},
	{"live_heap_mb", "MiB", false, 0.05, 0.10, 0, nil, "HeapAlloc after two forced GCs with the workload's Engine/Router still referenced"},
	{"failed_share", "ratio", false, 0, 0, 0, nil, "(errors + sheds + unexpected partials + oracle mismatches) / ops attempted; must be 0"},
	{"sim_device_ms_per_op", "sim_ms", false, 0.25, 0, 0, engineOnly, "sum of Result.TransferTime + Result.FPGATime per op: modelled U200 time, never added to host time"},
	{"delta_p50_ms", "ms", false, 0.25, 0.10, 0, serveOnly, "POST /delta latency from due time"},
	{"notify_p50_ms", "ms", false, 0.25, 0.10, 0, serveOnly, "delta sent to that epoch's line read on the subscription stream"},
}

// layerDecl declares one per-layer metric of the traced pass. The layer is
// the module name before the first dot.
type layerDecl struct {
	Name         string `json:"name"`
	Unit         string `json:"unit"`
	HigherBetter bool   `json:"higher_better"`
	// Exact metrics are counts of the deterministic model or of the search
	// space: two runs on one seed must report identical values.
	Exact bool `json:"exact"`
	// Serving metrics are measured only on serve_mutate; the engine
	// workloads, which have no such layer on their path, report 0.
	Serving bool   `json:"serving_only"`
	Moves   string `json:"should_move"` // the end-to-end metric and workload it should move
}

var layerTable = []layerDecl{
	{"ldbc.generate_s", "s", false, false, false, "setup_s on all"},
	{"graph.bytes", "B", false, true, false, "size context"},
	{"graph.apply_delta_ms", "ms", false, false, true, "delta_p50_ms on serve_mutate"},
	{"order.plan_us", "us", false, false, false, "op_p50_ms on cold_plan"},
	{"cst.build_ms", "ms", false, false, false, "op_p50_ms on cold_plan; op_p95_ms, notify_p50_ms on serve_mutate"},
	{"cst.build_bytes", "B", false, true, false, "live_heap_mb on all"},
	{"cst.build_cands", "count", false, true, false, "live_heap_mb on all"},
	{"cst.size_ratio", "ratio", false, true, false, "live_heap_mb (Fig. 9)"},
	{"cst.partition_ms", "ms", false, false, false, "op_p50_ms, cpu_ms_per_op on warm_partition"},
	{"cst.pieces", "count", false, true, false, "sim_device_ms_per_op on warm_partition"},
	{"cst.piece_bytes", "B", false, true, false, "sim_device_ms_per_op on warm_partition"},
	{"cst.copy_amplification", "ratio", false, true, false, "alloc_kb_per_op on warm_partition"},
	{"cst.partition_allocs", "count", false, false, false, "allocs_per_op on warm_partition"},
	{"cst.estimate_ms", "ms", false, false, false, "op_p50_ms on warm_partition (Algorithm 3 prices every piece)"},
	{"cst.enumerate_ms", "ms", false, false, false, "op_p50_ms on warm_kernel (delta-share)"},
	{"cst.enumerate_ns_per_emb", "ns", false, false, false, "op_p50_ms on warm_kernel (delta-share)"},
	{"core.kernel_ms", "ms", false, false, false, "op_p50_ms on warm_kernel"},
	{"core.partials", "count", false, true, false, "sim_device_ms_per_op"},
	{"core.edge_tasks", "count", false, true, false, "sim_device_ms_per_op"},
	{"core.rounds", "count", false, true, false, "sim_device_ms_per_op"},
	{"core.ns_per_partial", "ns", false, false, false, "op_p50_ms on warm_kernel"},
	{"core.emb_per_partial", "ratio", true, true, false, "order/CST pruning changes"},
	{"core.allocs_per_run", "count", false, false, false, "allocs_per_op on warm_kernel"},
	{"fpgasim.kernel_cycles", "cycles", false, true, false, "sim_device_ms_per_op on engine workloads"},
	{"fpgasim.load_cycles", "cycles", false, true, false, "sim_device_ms_per_op on engine workloads"},
	{"fpgasim.flush_cycles", "cycles", false, true, false, "sim_device_ms_per_op on engine workloads"},
	{"fpgasim.transfer_bytes", "B", false, true, false, "sim_device_ms_per_op"},
	{"fpgasim.transfer_ms", "sim_ms", false, true, false, "sim_device_ms_per_op"},
	{"fpgasim.device_busy_ms", "sim_ms", false, true, false, "sim_device_ms_per_op"},
	{"fpgasim.buffer_high_water", "slots", false, true, false, "occupancy context"},
	{"host.prepare_ms", "ms", false, false, false, "op_p50_ms on cold_plan"},
	{"host.match_d0_ms", "ms", false, false, false, "op_p50_ms on warm_*"},
	{"host.match_ms", "ms", false, false, false, "op_p50_ms on warm_*"},
	{"host.self_ms", "ms", false, false, false, "op_p50_ms on warm_partition"},
	{"host.cpu_partitions", "count", false, true, false, "Algorithm 3 balance; op_p50_ms on warm_*"},
	{"host.cpu_workload_share", "ratio", false, true, false, "Algorithm 3 balance; op_p50_ms on warm_*"},
	{"host.retries", "count", false, true, false, "must stay 0"},
	{"engine.self_us", "us", false, false, false, "op_p50_ms on warm_kernel"},
	{"engine.plan_hit_share", "ratio", true, false, false, "1.0 on warm_*; op_p95_ms on serve_mutate"},
	{"engine.plan_miss_ms", "ms", false, false, false, "setup_s on warm_*; op_p95_ms on serve_mutate"},
	{"router.self_us", "us", false, false, true, "op_p50_ms on serve_mutate"},
	{"router.admitted", "count", true, false, true, "failed_share on serve_mutate"},
	{"router.shed", "count", false, false, true, "failed_share on serve_mutate"},
	{"router.queue_depth_max", "count", false, false, true, "op_p95_ms on serve_mutate"},
	{"router.hot_p50_ms", "ms", false, false, true, "writer interference"},
	{"router.cold_p50_ms", "ms", false, false, true, "must not follow hot"},
	{"router.apply_delta_ms", "ms", false, false, true, "delta_p50_ms on serve_mutate"},
	{"server.self_us", "us", false, false, true, "op_p50_ms on serve_mutate"},
	{"server.stream_us_per_emb", "us", false, false, true, "op_p95_ms on serve_mutate"},
	{"server.resp_bytes", "B", false, false, true, "op_p95_ms on serve_mutate"},
	{"subscribe.notify_ms", "ms", false, false, true, "notify_p50_ms, delta_p50_ms on serve_mutate"},
	{"subscribe.delivered_share", "ratio", true, false, true, "must stay 1.0"},
	{"harness.closure_share", "ratio", false, false, false, "must be 0.9-1.1"},
	{"harness.trace_overhead_share", "ratio", false, false, false, "report only"},
	{"harness.gen_lag_p95_ms", "ms", false, false, true, "must stay < 1 ms"},
}

// better spells a metric's direction the way BENCHMARK.json does.
func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// result is what one pass of one workload produced.
type result struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// Problems lists every check that did not hold: oracle mismatches,
	// closure outside 0.9-1.1, pieces or cycles that differ between the
	// replay and the engine. A non-empty list makes the command exit 1.
	Problems []string `json:"problems,omitempty"`
	// E2E is filled by the untraced pass, Layers by the traced one.
	E2E    map[string]roundStat `json:"end_to_end,omitempty"`
	Layers map[string]float64   `json:"per_layer,omitempty"`
	// GenLag is the open loop's generator lag in the untraced pass of
	// serve_mutate, where it is enforced but is no metric: the traced pass
	// reports its own as harness.gen_lag_p95_ms.
	GenLag *roundStat `json:"gen_lag_p95_ms,omitempty"`
	// PerQuery carries the traced pass's per-query layer values, which the
	// per-layer metrics sum over the sweep.
	PerQuery map[string]map[string]float64 `json:"per_query,omitempty"`
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// maxProblems caps the list: one broken layer can fail every request.
const maxProblems = 20

func (r *result) problemf(format string, args ...any) {
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// fillInert completes an untraced result: failed_share, and the cells of
// metrics that are not measured on the workload, which repeat op_p50_ms. A
// metric that is the workload's own and has no value, because no round
// produced a sample of it, is a problem when strict; the cell is filled all
// the same, so that the result line stays whole.
func (r *result) fillInert(strict bool) {
	r.E2E["failed_share"] = roundStat{Value: float64(r.Failed) / float64(max(r.Attempted, 1))}
	for _, d := range e2eTable {
		if _, ok := r.E2E[d.Name]; ok {
			continue
		}
		if strict && d.on(r.Workload) {
			r.problemf("%s: no round produced a sample", d.Name)
		}
		r.E2E[d.Name] = r.E2E["op_p50_ms"]
	}
}

// check reports every declared metric of the pass that is missing or not
// finite.
func (r *result) check() {
	if r.Traced {
		for _, d := range layerTable {
			if v, ok := r.Layers[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				r.problemf("per-layer metric %s missing or not finite (%v)", d.Name, v)
			}
		}
		return
	}
	for _, d := range e2eTable {
		if v, ok := r.E2E[d.Name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.problemf("end-to-end metric %s missing or not finite (%v)", d.Name, v.Value)
		}
	}
}

// print writes every metric of the pass as `workload metric value unit`.
func (r *result) print(w io.Writer) {
	if r.Traced {
		for _, d := range layerTable {
			fmt.Fprintf(w, "%s %s %v %s\n", r.Workload, d.Name, r.Layers[d.Name], d.Unit)
		}
	} else {
		for _, d := range e2eTable {
			fmt.Fprintf(w, "%s %s %v %s\n", r.Workload, d.Name, r.E2E[d.Name].Value, d.Unit)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%s PROBLEM %s\n", r.Workload, p)
	}
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output: every BENCHMARK.json end_to_end metric with tracing off,
// every per_layer metric with it on.
func (r *result) driverLine() string {
	type cell struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]cell{}
	if r.Traced {
		for _, d := range layerTable {
			metrics[d.Name] = cell{r.Layers[d.Name], d.Unit}
		}
	} else {
		for _, d := range e2eTable {
			if d.Bound > 0 {
				metrics[d.Name] = cell{r.E2E[d.Name].Value, d.Unit}
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int64           `json:"attempted"`
		Failed    int64           `json:"failed"`
		Metrics   map[string]cell `json:"metrics"`
	}{r.correct(), max(r.Attempted, 1), r.Failed, metrics})
	if err != nil {
		// Only a NaN or Inf value can fail here, and check() has already
		// listed it; the driver must still not read a half-written line.
		return `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`
	}
	return string(line)
}

// manifestRunSeconds is BENCHMARK.json's run_seconds: the -seconds the
// driver passes. 92 runs must fit in 3420 s with set-up, oracle and two
// builds, which leaves about 30 s a run.
const manifestRunSeconds = 20

// manifest renders BENCHMARK.json from the tables.
func manifest() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadDecl `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: manifestRunSeconds,
		Workloads:  workloadTable,
	}
	for _, d := range e2eTable {
		if d.Bound > 0 {
			m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, better(d.HigherBetter), d.Bound})
		}
	}
	for _, d := range layerTable {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, better(d.HigherBetter)})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and finite constants
	}
	return append(out, '\n')
}
