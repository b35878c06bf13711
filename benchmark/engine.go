package main

import (
	"context"
	"fmt"
	"time"

	fast "fastmatch"
	"fastmatch/graph"
	"fastmatch/ldbc"
)

// benchCard is the small card `fastbench -bench` and internal/exp use: at
// laptop scale only a 32 KiB BRAM makes CSTs partition at all.
var benchCard = fast.DeviceConfig{BRAMBytes: 32 << 10, BatchSize: 32}

// The sweeps leave out q4 (and q6-q8): their counts hinge on how many
// cities the generator gives the largest country and move 5x between seeds
// (q4: 1184-6244 embeddings at base 1600), so a seed would change the
// amount of work and not just the inputs. q0 takes q4's place as the fifth
// shape.
var (
	partitionSweep = []string{"q1", "q3", "q5"}
	fullSweep      = []string{"q0", "q1", "q2", "q3", "q5"}
)

// engineSpec describes one of the three engine workloads: one client
// sweeping a query list through Engine.MatchContext (or, cold, through the
// one-shot fast.MatchContext that plans every call).
type engineSpec struct {
	name    string
	device  fast.DeviceConfig
	queries []string
	cold    bool
}

var engineSpecs = []engineSpec{
	{wlWarmPartition, benchCard, partitionSweep, false},
	{wlWarmKernel, fast.DefaultDevice(), fullSweep, false},
	{wlColdPlan, fast.DefaultDevice(), fullSweep, true},
}

func engineSpecByName(name string) (engineSpec, bool) {
	for _, s := range engineSpecs {
		if s.name == name {
			return s, true
		}
	}
	return engineSpec{}, false
}

// engineOptions is the configuration the engine workloads run under: the
// paper's final variant, one worker, so every wall is a single core's.
func engineOptions(dev fast.DeviceConfig) *fast.Options {
	return &fast.Options{Variant: fast.VariantShare, Device: dev, Workers: 1, PartitionWorkers: 1}
}

func namedQueries(names []string) ([]*graph.Query, error) {
	qs := make([]*graph.Query, len(names))
	for i, n := range names {
		q, err := ldbc.QueryByName(n)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return qs, nil
}

// engineState is a set-up engine workload. The program under test receives
// only g and the queries, never the seed.
type engineState struct {
	spec engineSpec
	g    *graph.Graph
	qs   []*graph.Query
	opts *fast.Options
	eng  *fast.Engine // nil when cold
	// ref is each query's count from the cache-filling sweep; every
	// measured op must repeat it, and the oracle checks it afterwards.
	ref []int64
}

func setupEngine(spec engineSpec, base int, seed int64, tr *tracer) (*engineState, error) {
	id := tr.begin("ldbc.generate", -1, 0)
	g := ldbc.Generate(ldbc.Config{BasePersons: base, Seed: seed})
	tr.end(id)
	qs, err := namedQueries(spec.queries)
	if err != nil {
		return nil, err
	}
	st := &engineState{spec: spec, g: g, qs: qs, opts: engineOptions(spec.device)}
	if !spec.cold {
		if st.eng, err = fast.NewEngine(g, st.opts); err != nil {
			return nil, err
		}
	}
	// The discarded cache-filling sweep: plans every query (warm) and lets
	// pools and lazy indexes fill (cold too).
	st.ref = make([]int64, len(qs))
	for i, q := range qs {
		res, err := st.match(context.Background(), q)
		if err != nil {
			return nil, fmt.Errorf("%s: cache-filling %s: %w", spec.name, q.Name(), err)
		}
		st.ref[i] = res.Count
	}
	return st, nil
}

func (st *engineState) match(ctx context.Context, q *graph.Query) (*fast.Result, error) {
	if st.eng != nil {
		return st.eng.MatchContext(ctx, q)
	}
	return fast.MatchContext(ctx, q, st.g, st.opts)
}

// sweep is one op: every query of the list, in order. It reports whether
// every call completed with the reference count and nothing degraded, and
// the modelled device time the op was charged.
func (st *engineState) sweep(ctx context.Context, tr *tracer, op int) (ok bool, sim time.Duration) {
	ok = true
	root := tr.begin("op", -1, op)
	for i, q := range st.qs {
		id := tr.begin("engine.match", root, op)
		res, err := st.match(ctx, q)
		tr.end(id)
		if err != nil || res.Partial || res.Count != st.ref[i] ||
			res.Retries != 0 || res.DeviceFailures != 0 || res.Redistributed != 0 {
			ok = false
			continue
		}
		sim += res.TransferTime + res.FPGATime
	}
	tr.end(root)
	return ok, sim
}

// round is what one measured round produced.
type round struct {
	lat           []float64 // ms, one per ok op
	attempted     int
	sim           time.Duration
	before, after usage
}

func (r round) ok() float64 { return float64(len(r.lat)) }

// closedLoop runs op back to back for n rounds of d each: one client, the
// next op starts when the previous one returns.
func closedLoop(n int, d time.Duration, op func(i int) (bool, time.Duration)) []round {
	rounds := make([]round, n)
	i := 0
	for r := range rounds {
		rd := &rounds[r]
		rd.before = readUsage()
		for start := time.Now(); time.Since(start) < d; i++ {
			t := time.Now()
			ok, sim := op(i)
			lat := time.Since(t)
			rd.attempted++
			if ok {
				rd.lat = append(rd.lat, ms(lat))
				rd.sim += sim
			}
		}
		rd.after = readUsage()
	}
	return rounds
}

// summarize turns rounds into the end-to-end metrics every workload
// measures for itself: each the calm quartile over rounds of the per-round
// statistic.
func summarize(rounds []round) map[string]roundStat {
	per := map[string][]float64{}
	for _, r := range rounds {
		n := max(r.ok(), 1)
		per["op_p50_ms"] = append(per["op_p50_ms"], median(r.lat))
		per["ops_per_s"] = append(per["ops_per_s"], r.ok()/r.after.at.Sub(r.before.at).Seconds())
		per["cpu_ms_per_op"] = append(per["cpu_ms_per_op"], ms(r.after.cpu-r.before.cpu)/n)
		per["allocs_per_op"] = append(per["allocs_per_op"], float64(r.after.mallocs-r.before.mallocs)/n)
		per["alloc_kb_per_op"] = append(per["alloc_kb_per_op"], float64(r.after.bytes-r.before.bytes)/1024/n)
	}
	out := make(map[string]roundStat, len(e2eTable))
	for name, vs := range per {
		out[name] = calmOfRounds(vs, name == "ops_per_s")
	}
	return out
}

// simPerOp is the modelled device time an ok op was charged, per round. The
// model is deterministic, so every op of a run is charged the same, and the
// division is done in whole nanoseconds: two runs of one seed must read
// identical values however many ops their rounds held.
func simPerOp(rounds []round) roundStat {
	var per []float64
	for _, r := range rounds {
		per = append(per, ms(r.sim/time.Duration(max(len(r.lat), 1))))
	}
	return calmOfRounds(per, false)
}

func countOps(rounds []round) (attempted, failed int64) {
	for _, r := range rounds {
		attempted += int64(r.attempted)
		failed += int64(r.attempted - len(r.lat))
	}
	return attempted, failed
}

// repeatSetup sets a workload up n times and returns the last state and the
// calm quartile of the set-up times; earlier states are torn down as they
// are replaced.
func repeatSetup[S any](n int, setup func() (S, error), teardown func(S)) (S, roundStat, error) {
	var (
		st    S
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(st)
		}
		start := time.Now()
		var err error
		if st, err = setup(); err != nil {
			return st, roundStat{}, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return st, calmOfRounds(times, false), nil
}

// runEngine is the untraced pass of an engine workload.
func runEngine(spec engineSpec, sz sizing, seed int64) (*result, error) {
	res := &result{Workload: spec.name, E2E: map[string]roundStat{}}
	st, setupS, err := repeatSetup(sz.setups,
		func() (*engineState, error) { return setupEngine(spec, sz.engineBase, seed, nil) },
		func(*engineState) {})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	rounds := closedLoop(sz.rounds, sz.roundDur(), func(i int) (bool, time.Duration) {
		return st.sweep(ctx, nil, i)
	})
	heap := liveHeapMB()

	res.E2E = summarize(rounds)
	res.E2E["sim_device_ms_per_op"] = simPerOp(rounds)
	res.E2E["setup_s"] = setupS
	res.E2E["live_heap_mb"] = roundStat{Value: heap}
	res.Attempted, res.Failed = countOps(rounds)
	if err := st.oracle(res); err != nil {
		return nil, err
	}
	res.fillInert(sz.enforce)
	return res, nil
}

// oracle checks the reference counts — which every ok op repeated —
// against the CECI baseline on the same graph. A wrong reference means
// every op was wrong.
func (st *engineState) oracle(res *result) error {
	for i, q := range st.qs {
		want, err := fast.RunBaseline(fast.BaselineCECI, q, st.g, fast.BaselineOptions{})
		if err != nil {
			return fmt.Errorf("%s: oracle %s: %w", st.spec.name, q.Name(), err)
		}
		if want.Count != st.ref[i] {
			res.problemf("%s: engine counted %d, CECI oracle %d", q.Name(), st.ref[i], want.Count)
			res.Failed = res.Attempted
		}
	}
	return nil
}
