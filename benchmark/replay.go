package main

import (
	"context"
	"runtime"
	"time"

	fast "fastmatch"
	"fastmatch/graph"
	"fastmatch/internal/core"
	"fastmatch/internal/cst"
	"fastmatch/internal/fpgasim"
	"fastmatch/internal/host"
	"fastmatch/internal/order"
)

// The layered replay runs one query through the exported functions of each
// layer, in the order host.Match calls them, with a span around every call;
// beside it run the opaque calls (host.Prepare, host.Match, Engine.
// MatchContext) the layers are parts of. Because the parts are timed from
// outside, the replay has to rebuild two pieces of configuration the facade
// derives internally; both copies are kept honest by checks that fail the
// run: the replayed piece count and cycle total must equal host.Match's at
// delta 0, and host.Match's counts must equal the Engine's.

// hostConfig is fast.Options.hostConfig for the options the benchmark uses.
func hostConfig(dev fast.DeviceConfig, workers int) host.Config {
	sim := fpgasim.DefaultConfig()
	if dev.BRAMBytes > 0 {
		sim.BRAMBytes = dev.BRAMBytes
	}
	if dev.BatchSize > 0 {
		sim.No = dev.BatchSize
	}
	return host.Config{
		Device:           sim,
		Variant:          core.VariantSep,
		Delta:            fast.DefaultDelta,
		Strategy:         host.OrderPath,
		Workers:          workers,
		PartitionWorkers: workers,
	}
}

// partitionConfig is host.Config.withDefaults' derivation: deltaS is the
// BRAM left after the partial-results buffer of (|V(q)|-1)*No slots of
// 4|V(q)|+4 bytes, floored at 1024; deltaD is PortMax.
func partitionConfig(q *graph.Query, dev fpgasim.Config) cst.PartitionConfig {
	n := q.NumVertices()
	size := dev.BRAMBytes - int64(n-1)*int64(dev.No)*int64(n*4+4)
	return cst.PartitionConfig{MaxSizeBytes: max(size, 1024), MaxCandDegree: dev.PortMax}
}

// evictBytes is what evict walks: several times a core's private caches.
const evictBytes = 8 << 20

// evict walks buf to push the CSTs out of the core's private caches, so that
// every timed call of a match repetition starts from the same cache state.
// Without it the call that runs after another call on the same CST is up to
// 20% faster than the one that runs after a call on a different CST, and the
// parts stop adding up to the whole for no reason the layers have. In the
// measured sweep each query also runs after four others.
func evict(buf []byte) {
	for i := 0; i < len(buf); i += 64 {
		buf[i]++
	}
}

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// calmBy returns the calm quartile, in milliseconds, of the per-op sums of
// the spans called name: on this box a call runs in one of two modes, alone
// or beside a busy sibling thread and 40% slower, and flips between them
// from one repetition to the next, so the median of 15 repetitions is in
// either mode by chance, and the parts stop adding up to the whole. The
// quartile on the fast side is the call's own time.
func calmBy(spans []span, name string) float64 {
	var vs []float64
	for _, d := range durationsByOp(spans, name) {
		vs = append(vs, ms(d))
	}
	return calmOfRounds(vs, false).Value
}

// replayQuery measures q's layers on g and returns the per-query values the
// per-layer metrics are summed from. Times are calm quartiles over repetitions;
// counts are exact and taken once. Planning is long and steady, matching is
// short and noisy, so the two halves repeat separately: planReps times the
// calls that build a plan, matchReps times the calls that run one. A plan
// repetition starts each call from a collected heap, so that none pays for
// the megabytes of garbage the one before it left; the match repetitions
// run as the measured loop does, under the collector's own pacing, because
// a forced collection also empties host's kernel-scratch pool and the next
// host.Match would pay to rebuild it.
func replayQuery(res *result, sink *tracer, q *graph.Query, g *graph.Graph, hc host.Config, eng *fast.Engine, opts *fast.Options, sz sizing) map[string]float64 {
	ctx := context.Background()
	tr := newTracer()
	defer sink.absorb(tr)
	var failure error
	fail := func(err error) bool {
		if err != nil && failure == nil {
			failure = err
		}
		return failure != nil
	}

	var plan *host.Plan
	for r := 0; r < sz.planReps && failure == nil; r++ {
		runtime.GC()
		root := tr.begin("replay.plan", -1, r)
		id := tr.begin("order.select_root", root, r)
		rootV := order.SelectRoot(q, g)
		tr.end(id)
		id = tr.begin("order.bfs_tree", root, r)
		tree := order.BuildBFSTree(q, rootV)
		tr.end(id)
		id = tr.begin("cst.build", root, r)
		c := cst.BuildWorkers(q, g, tree, hc.PartitionWorkers)
		tr.end(id)
		id = tr.begin("order.path_based", root, r)
		order.PathBased(tree, c)
		tr.end(id)
		tr.end(root)

		runtime.GC()
		var err error
		id = tr.begin("host.prepare", -1, r)
		plan, err = host.Prepare(ctx, q, g, hc)
		tr.end(id)
		if fail(err) {
			break
		}
		fresh, err := fast.NewEngine(g, opts)
		if fail(err) {
			break
		}
		runtime.GC()
		id = tr.begin("engine.first_match", -1, r)
		_, err = fresh.MatchContext(ctx, q)
		tr.end(id)
		fail(err)
	}
	if failure != nil {
		res.problemf("%s: replay: %v", q.Name(), failure)
		return nil
	}

	pcfg := partitionConfig(q, hc.Device)
	kopts := core.Options{Variant: hc.Variant, Config: hc.Device, Scratch: new(core.Scratch)}
	hc.Plan = plan
	d0 := hc
	d0.Delta = 0
	o := plan.Order
	var (
		en     cst.Enumerator
		pieces []*cst.CST
		kernel core.Result // sums over pieces; BufferHighWater is the max
		emb    int64
		repD0  host.Report
		rep    host.Report
		engRes *fast.Result
	)
	collect := func(p *cst.CST) { pieces = append(pieces, p) }
	cold := make([]byte, evictBytes)
	for r := 0; r < sz.matchReps && failure == nil; r++ {
		evict(cold)
		root := tr.begin("replay.match", -1, r)
		pieces = pieces[:0]
		id := tr.begin("cst.partition", root, r)
		cst.Partition(plan.CST, o, pcfg, collect)
		tr.end(id)
		kernel, emb = core.Result{}, 0
		for _, p := range pieces {
			// Algorithm 3 prices every piece before routing it, at any delta.
			id = tr.begin("cst.estimate", root, r)
			cst.EstimateWorkload(p)
			tr.end(id)
			id = tr.begin("core.run", root, r)
			kr, err := core.Run(p, o, kopts)
			tr.end(id)
			if fail(err) {
				break
			}
			kernel.Count += kr.Count
			kernel.Cycles += kr.Cycles
			kernel.LoadCycles += kr.LoadCycles
			kernel.FlushCycles += kr.FlushCycles
			kernel.Rounds += kr.Rounds
			kernel.Partials += kr.Partials
			kernel.EdgeTasks += kr.EdgeTasks
			kernel.BufferHighWater = max(kernel.BufferHighWater, kr.BufferHighWater)
		}
		tr.end(root)
		for _, p := range pieces {
			id = tr.begin("cst.enumerate", -1, r)
			en.Reset(p, o)
			emb += en.RunCounted(nil)
			tr.end(id)
		}

		// The opaque calls, interleaved with the parts so that a slow phase
		// of the machine hits both sides of every difference.
		var err error
		evict(cold)
		id = tr.begin("host.match_d0", -1, r)
		repD0, err = host.Match(ctx, q, g, d0)
		tr.end(id)
		if fail(err) {
			break
		}
		evict(cold)
		id = tr.begin("host.match", -1, r)
		rep, err = host.Match(ctx, q, g, hc)
		tr.end(id)
		if fail(err) {
			break
		}
		evict(cold)
		id = tr.begin("engine.match", -1, r)
		engRes, err = eng.MatchContext(ctx, q)
		tr.end(id)
		fail(err)
	}
	if failure != nil {
		res.problemf("%s: replay: %v", q.Name(), failure)
		return nil
	}

	// One more, untimed, pass counts allocations: ReadMemStats stops the
	// world and must stay out of the spans.
	pieces = pieces[:0]
	before := mallocs()
	cst.Partition(plan.CST, o, pcfg, collect)
	partitionAllocs := mallocs() - before
	before = mallocs()
	for _, p := range pieces {
		if _, err := core.Run(p, o, kopts); err != nil {
			res.problemf("%s: core.Run: %v", q.Name(), err)
		}
	}
	runAllocs := mallocs() - before
	var pieceBytes int64
	for _, p := range pieces {
		pieceBytes += p.SizeBytes()
	}

	// The checks that keep the replay's copy of the configuration honest.
	if len(pieces) != repD0.NumPartitions {
		res.problemf("%s: replay delivered %d pieces, host.Match at delta 0 %d", q.Name(), len(pieces), repD0.NumPartitions)
	}
	if kernel.Cycles != repD0.KernelCycles {
		res.problemf("%s: replay charged %d kernel cycles, host.Match at delta 0 %d", q.Name(), kernel.Cycles, repD0.KernelCycles)
	}
	for name, n := range map[string]int64{"core.Run": kernel.Count, "cst.Enumerator": emb, "host.Match delta 0": repD0.Embeddings, "host.Match": rep.Embeddings} {
		if n != engRes.Count {
			res.problemf("%s: %s counted %d, Engine %d", q.Name(), name, n, engRes.Count)
		}
	}
	if rep.NumPartitions != engRes.Partitions || rep.KernelCycles != engRes.KernelCycles || rep.CSTBytes != engRes.CSTBytes {
		res.problemf("%s: host.Match under the replay's config (%d pieces, %d cycles, %d B) is not what the Engine ran (%d, %d, %d)",
			q.Name(), rep.NumPartitions, rep.KernelCycles, rep.CSTBytes, engRes.Partitions, engRes.KernelCycles, engRes.CSTBytes)
	}

	spans := tr.snapshot()
	stats := plan.CST.ComputeStats()
	v := map[string]float64{
		"order.plan_us":             1e3 * (calmBy(spans, "order.select_root") + calmBy(spans, "order.bfs_tree") + calmBy(spans, "order.path_based")),
		"cst.build_ms":              calmBy(spans, "cst.build"),
		"cst.build_bytes":           float64(stats.SizeBytes),
		"cst.build_cands":           float64(stats.CandTotal),
		"cst.partition_ms":          calmBy(spans, "cst.partition"),
		"cst.pieces":                float64(len(pieces)),
		"cst.piece_bytes":           float64(pieceBytes),
		"cst.partition_allocs":      float64(partitionAllocs),
		"cst.estimate_ms":           calmBy(spans, "cst.estimate"),
		"cst.enumerate_ms":          calmBy(spans, "cst.enumerate"),
		"core.kernel_ms":            calmBy(spans, "core.run"),
		"core.partials":             float64(kernel.Partials),
		"core.edge_tasks":           float64(kernel.EdgeTasks),
		"core.rounds":               float64(kernel.Rounds),
		"core.run_allocs":           float64(runAllocs),
		"core.embeddings":           float64(kernel.Count),
		"fpgasim.kernel_cycles":     float64(kernel.Cycles),
		"fpgasim.load_cycles":       float64(kernel.LoadCycles),
		"fpgasim.flush_cycles":      float64(kernel.FlushCycles),
		"fpgasim.transfer_bytes":    float64(rep.CSTBytes),
		"fpgasim.transfer_ms":       ms(rep.TransferTime),
		"fpgasim.device_busy_ms":    ms(rep.FPGATime),
		"fpgasim.buffer_high_water": float64(kernel.BufferHighWater),
		"host.prepare_ms":           calmBy(spans, "host.prepare"),
		"host.match_d0_ms":          calmBy(spans, "host.match_d0"),
		"host.match_ms":             calmBy(spans, "host.match"),
		"host.cpu_partitions":       float64(rep.CPUPartitions),
		"host.cpu_workload":         rep.CPUWorkload,
		"host.fpga_workload":        rep.FPGAWorkload,
		"host.retries":              float64(rep.Retries) + float64(rep.DeviceFailures) + float64(rep.Redistributed),
		"engine.match_ms":           calmBy(spans, "engine.match"),
		"engine.first_match_ms":     calmBy(spans, "engine.first_match"),
	}
	// The replay's root span covers exactly the parts host.Match at delta 0
	// is made of. Closure is the share of the call they account for, taken
	// within each repetition, where the parts and the whole ran a
	// millisecond apart and so in the same state of the machine, and then
	// the median over repetitions: the ratio of two quartiles, each taken
	// over all repetitions, read 0.92-1.10 on runs where this reads
	// 0.97-1.03. What the call takes beyond its parts is the host's own time.
	parts, whole := durationsByOp(spans, "replay.match"), durationsByOp(spans, "host.match_d0")
	var shares []float64
	for r, d := range whole {
		shares = append(shares, float64(parts[r])/float64(d))
	}
	v["harness.closure_share"] = median(shares)
	v["host.self_ms"] = v["host.match_d0_ms"] * (1 - v["harness.closure_share"])
	v["engine.self_ms"] = v["engine.match_ms"] - v["host.match_ms"]
	v["engine.plan_miss_ms"] = v["engine.first_match_ms"] - v["engine.match_ms"]
	return v
}

// closureLow and closureHigh bound harness.closure_share: outside them the
// parts the replay times do not add up to the call they are parts of, and
// the decomposition is not trusted.
const (
	closureLow  = 0.9
	closureHigh = 1.1
)

// replayLayers replays every query, once, and folds the per-query values
// into the per-layer metrics of the sweep: times and counts add up over the
// queries, ratios are taken of the sums.
func replayLayers(res *result, sink *tracer, qs []*graph.Query, g *graph.Graph, hc host.Config, eng *fast.Engine, opts *fast.Options, sz sizing) {
	res.PerQuery = map[string]map[string]float64{}
	sum, highWater := map[string]float64{}, 0.0
	for _, q := range qs {
		v := replayQuery(res, sink, q, g, hc, eng, opts, sz)
		if v == nil {
			return // the problem is recorded; nothing adds up without q
		}
		res.PerQuery[q.Name()] = v
		for name, x := range v {
			sum[name] += x
		}
		highWater = max(highWater, v["fpgasim.buffer_high_water"])
	}
	// Closure is measured once and enforced on the sweep: the queries' mean
	// weighted by time, which is what the per-layer metrics, sums over the
	// sweep, decompose. Each query's value is in the JSON (per_query) and is
	// not enforced: a half-millisecond query reads 0.87 to 1.31 by the state
	// of the process (0.1 ms of allocator and cache state that neither side
	// of the ratio owns), and 0.96 to 1.05 in a process of its own.
	closure := 1 - sum["host.self_ms"]/sum["host.match_d0_ms"]
	if sz.enforce && (closure < closureLow || closure > closureHigh) {
		res.problemf("closure %.3f outside %.1f-%.1f: partition %.3f ms + estimate %.3f ms + kernel %.3f ms against host.Match at delta 0 %.3f ms",
			closure, closureLow, closureHigh, sum["cst.partition_ms"], sum["cst.estimate_ms"], sum["core.kernel_ms"], sum["host.match_d0_ms"])
	}
	l := res.Layers
	for _, d := range layerTable {
		if x, ok := sum[d.Name]; ok {
			l[d.Name] = x
		}
	}
	l["graph.bytes"] = float64(g.SizeBytes())
	l["cst.size_ratio"] = sum["cst.build_bytes"] / l["graph.bytes"]
	l["cst.copy_amplification"] = sum["cst.piece_bytes"] / sum["cst.build_bytes"]
	l["cst.enumerate_ns_per_emb"] = 1e6 * sum["cst.enumerate_ms"] / sum["core.embeddings"]
	l["core.ns_per_partial"] = 1e6 * sum["core.kernel_ms"] / sum["core.partials"]
	l["core.emb_per_partial"] = sum["core.embeddings"] / sum["core.partials"]
	l["core.allocs_per_run"] = sum["core.run_allocs"] / sum["cst.pieces"]
	l["fpgasim.buffer_high_water"] = highWater
	l["host.cpu_workload_share"] = sum["host.cpu_workload"] / (sum["host.cpu_workload"] + sum["host.fpga_workload"])
	l["engine.self_us"] = 1e3 * sum["engine.self_ms"]
	l["harness.closure_share"] = closure
}

// warmEngine returns an Engine over g that has a plan cached for every query.
func warmEngine(g *graph.Graph, opts *fast.Options, qs []*graph.Query) (*fast.Engine, error) {
	eng, err := fast.NewEngine(g, opts)
	if err != nil {
		return nil, err
	}
	for _, q := range qs {
		if _, err := eng.MatchContext(context.Background(), q); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// runEngineTraced is the traced pass of an engine workload: a short
// untraced and a short traced round of the workload's ops (their ratio is
// the tracing overhead), then the layered replay.
func runEngineTraced(spec engineSpec, sz sizing, seed int64, sink *tracer) (*result, error) {
	res := &result{Workload: spec.name, Traced: true, Layers: map[string]float64{}}
	tr := newTracer()
	defer sink.absorb(tr)
	st, err := setupEngine(spec, sz.engineBase, seed, tr)
	if err != nil {
		return nil, err
	}
	res.Layers["ldbc.generate_s"] = durationsByOp(tr.snapshot(), "ldbc.generate")[0].Seconds()
	// The warm engine the replay's Engine.MatchContext calls go to; the
	// cold workload has none of its own.
	eng := st.eng
	if eng == nil {
		if eng, err = warmEngine(st.g, st.opts, st.qs); err != nil {
			return nil, err
		}
	}

	ctx := context.Background()
	plain := closedLoop(1, sz.tracedRoundDur(), func(i int) (bool, time.Duration) { return st.sweep(ctx, nil, i) })
	var hits0, miss0 int64
	if st.eng != nil {
		hits0, miss0 = st.eng.PlanCacheStats()
	}
	traced := closedLoop(1, sz.tracedRoundDur(), func(i int) (bool, time.Duration) { return st.sweep(ctx, tr, i) })
	res.Layers["harness.trace_overhead_share"] = median(traced[0].lat)/median(plain[0].lat) - 1
	res.Layers["engine.plan_hit_share"] = 0 // cold: no plan cache, every op plans
	if st.eng != nil {
		hits, miss := st.eng.PlanCacheStats()
		res.Layers["engine.plan_hit_share"] = float64(hits-hits0) / float64(max(hits-hits0+miss-miss0, 1))
	}
	res.Attempted, res.Failed = countOps(append(plain, traced...))
	if err := st.oracle(res); err != nil {
		return nil, err
	}

	replayLayers(res, sink, st.qs, st.g, hostConfig(spec.device, 1), eng, st.opts, sz)
	for _, d := range layerTable {
		if d.Serving {
			res.Layers[d.Name] = 0 // no serving layer on an engine workload's path
		}
	}
	return res, nil
}
