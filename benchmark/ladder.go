package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	fast "fastmatch"
	"fastmatch/internal/host"
)

// The traced pass of serve_mutate has three parts. The layered replay
// prices the engine's layers on hot's epoch-0 graph, as it does for the
// engine workloads. The ladder then climbs the serving stack on an idle
// server, the same query through host.Match, Engine.MatchContext,
// Router.MatchContext and HTTP /count, interleaved, so that a layer's self
// time is the difference of adjacent medians; it goes on to time deltas
// in-process. Last, a short open-loop run, half of it with spans around
// every request, gives the Router's counters under load, the per-tenant
// latencies and the tracing overhead.

// ladderDeltas is how many batches the ladder applies in-process.
const ladderDeltas = 20

// climb measures the read rungs and the in-process delta path on st, which
// must be idle. It leaves hot ladderDeltas epochs on.
func climb(res *result, sink *tracer, st *serveState, reps int, seed int64) error {
	ctx := context.Background()
	tr := newTracer()
	defer sink.absorb(tr)
	nproc := runtime.NumCPU()
	// The rungs below the Router are configured as the Router configures
	// its tenants' engines: Workers = PartitionWorkers = the shared budget.
	eng, err := warmEngine(st.hot0, &fast.Options{Variant: fast.VariantShare, Workers: nproc}, st.qs)
	if err != nil {
		return err
	}
	hc := hostConfig(fast.DefaultDevice(), nproc)
	hc.Pool = make(chan struct{}, nproc) // one token per kernel run, as under an Engine
	plans := make([]*host.Plan, len(st.qs))
	for i, q := range st.qs {
		if plans[i], err = host.Prepare(ctx, q, st.hot0, hc); err != nil {
			return err
		}
	}

	var matchBytes int
	for r := 0; r < reps; r++ {
		for i, q := range st.qs {
			op := r*len(st.qs) + i
			cfg := hc
			cfg.Plan = plans[i]
			id := tr.begin("ladder.host", -1, op)
			rep, err := host.Match(ctx, q, st.hot0, cfg)
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("ladder.engine", -1, op)
			er, err := eng.MatchContext(ctx, q)
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("ladder.router", -1, op)
			rr, err := st.router.MatchContext(ctx, hotTenant, q)
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("ladder.http", -1, op)
			ok, n, _ := st.read(0, kindCount, hotTenant, i)
			tr.end(id)
			if !ok || n != rr.Count || er.Count != rr.Count || rep.Embeddings != rr.Count {
				res.problemf("ladder %s: host %d, engine %d, router %d, http %d (ok=%v) disagree", q.Name(), rep.Embeddings, er.Count, rr.Count, n, ok)
			}
			if st.queries[i] == subQuery {
				id = tr.begin("ladder.http_match", -1, op)
				ok, n, size := st.read(0, kindMatch, hotTenant, i)
				tr.end(id)
				matchBytes = size
				if !ok || n != min(rr.Count, matchLimit) {
					res.problemf("ladder /match %s: streamed %d of %d (ok=%v)", q.Name(), n, rr.Count, ok)
				}
			}
		}
	}

	// rung sums, over the queries, the calm quartile over reps of one rung.
	spans := tr.snapshot()
	rung := func(name string, only int) float64 {
		perQuery := make([][]float64, len(st.qs))
		for op, d := range durationsByOp(spans, name) {
			perQuery[op%len(st.qs)] = append(perQuery[op%len(st.qs)], ms(d))
		}
		var total float64
		for i, vs := range perQuery {
			if only < 0 || i == only {
				total += calmOfRounds(vs, false).Value
			}
		}
		return total
	}
	l := res.Layers
	l["engine.self_us"] = 1e3 * (rung("ladder.engine", -1) - rung("ladder.host", -1))
	l["router.self_us"] = 1e3 * (rung("ladder.router", -1) - rung("ladder.engine", -1))
	l["server.self_us"] = 1e3 * (rung("ladder.http", -1) - rung("ladder.router", -1))
	sub := indexOf(st.queries, subQuery)
	l["server.stream_us_per_emb"] = 1e3 * (rung("ladder.http_match", sub) - rung("ladder.http", sub)) / matchLimit
	l["server.resp_bytes"] = float64(matchBytes)

	return climbDeltas(res, st, seed)
}

// climbDeltas applies ladderDeltas seeded batches in-process, with an
// in-process subscription beside the HTTP one, and times graph.ApplyDelta
// on a mirror, Router.ApplyDelta, and the way from the ApplyDelta call to
// the subscription callback.
func climbDeltas(res *result, st *serveState, seed int64) error {
	notified := make(chan time.Time, 1) // one batch is in flight at a time
	sub, err := st.router.Subscribe(context.Background(), hotTenant, st.qs[indexOf(st.queries, subQuery)], func(fast.MatchDelta) error {
		notified <- time.Now()
		return nil
	})
	if err != nil {
		return err
	}
	defer func() {
		sub.Close()
		_ = sub.Wait() // ErrSubscriptionClosed: the Close above
	}()
	var mirrorMS, applyMS, notifyMS []float64
	gen := deltaGen{rng: rand.New(rand.NewSource(seed)), mirror: st.hot0}
	for k := 0; k < ladderDeltas; k++ {
		mirror := gen.mirror
		d := gen.next()
		t := time.Now()
		_, _, err := mirror.ApplyDelta(d)
		mirrorMS = append(mirrorMS, ms(time.Since(t)))
		if err != nil {
			return err
		}

		t = time.Now()
		_, err = st.router.ApplyDelta(hotTenant, d)
		applyMS = append(applyMS, ms(time.Since(t)))
		if err != nil {
			return err
		}
		select {
		case at := <-notified:
			notifyMS = append(notifyMS, ms(at.Sub(t)))
		case <-time.After(5 * time.Second):
			return fmt.Errorf("ladder: no notification for batch %d", k)
		}
	}
	res.Layers["graph.apply_delta_ms"] = calmOfRounds(mirrorMS, false).Value
	res.Layers["router.apply_delta_ms"] = calmOfRounds(applyMS, false).Value
	res.Layers["subscribe.notify_ms"] = calmOfRounds(notifyMS, false).Value
	return nil
}

// loadStats polls Router.Stats while the open loop runs.
type loadStats struct {
	queueDepthMax int
	hits, misses  int64
}

// poll samples the Router every 20 ms until stop is closed. The
// plan-cache counters belong to a tenant's current engine and restart with
// every delta, so hits and misses are summed from the increments between
// polls; what an engine served between its last poll and its replacement is
// not seen, which is why the share is labelled as polled.
func (ls *loadStats) poll(router *fast.Router, stop <-chan struct{}) {
	type seen struct {
		epoch        uint64
		hits, misses int64
	}
	last := map[string]seen{}
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		depth := 0
		for name, s := range router.Stats() {
			depth += s.QueueDepth
			prev := last[name]
			if s.Epoch != prev.epoch {
				prev = seen{epoch: s.Epoch}
			}
			ls.hits += s.PlanCacheHits - prev.hits
			ls.misses += s.PlanCacheMisses - prev.misses
			last[name] = seen{s.Epoch, s.PlanCacheHits, s.PlanCacheMisses}
		}
		ls.queueDepthMax = max(ls.queueDepthMax, depth)
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// runServeTraced is the traced pass of serve_mutate.
func runServeTraced(sz sizing, seed int64, sink *tracer) (*result, error) {
	res := &result{Workload: wlServeMutate, Traced: true, Layers: map[string]float64{}}
	loadSeconds := 2 * sz.tracedRoundDur().Seconds()
	tr := newTracer()
	defer sink.absorb(tr)

	// Part one and two: replay and ladder on an idle stack.
	st, err := setupServe(sz, seed, loadSeconds, tr)
	if err != nil {
		return nil, err
	}
	res.Layers["ldbc.generate_s"] = durationsByOp(tr.snapshot(), "ldbc.generate")[0].Seconds()
	err = func() error {
		defer st.teardown()
		opts := engineOptions(fast.DefaultDevice())
		eng, err := warmEngine(st.hot0, opts, st.qs)
		if err != nil {
			return err
		}
		replayLayers(res, sink, st.qs, st.hot0, hostConfig(fast.DefaultDevice(), 1), eng, opts, sz)
		return climb(res, sink, st, sz.matchReps, seed)
	}()
	if err != nil {
		return nil, err
	}

	// Part three: the open loop on a fresh stack, the second half traced.
	if st, err = setupServe(sz, seed, loadSeconds, nil); err != nil {
		return nil, err
	}
	defer st.teardown()
	half := len(st.reqs) / 2
	send := func(worker, i int) (bool, int64, int) {
		if i < half {
			return st.send(worker, i)
		}
		root := tr.begin("request", -1, i)
		id := tr.begin([]string{"server.count", "server.match", "server.delta"}[st.reqs[i].kind], root, i)
		ok, n, size := st.send(worker, i)
		tr.end(id)
		tr.end(root)
		return ok, n, size
	}
	var load loadStats
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		load.poll(st.router, stop)
	}()
	out, _, start := st.drive(2, sz.tracedRoundDur(), send)
	close(stop)
	<-polled

	res.Attempted = int64(len(out))
	if err := st.verify(res, out, start); err != nil {
		return nil, err
	}
	var (
		plain, traced, hot, cold []float64
		committed, delivered     float64
	)
	for i, o := range out {
		r := st.reqs[i]
		if !o.ok {
			res.Failed++
			continue
		}
		lat := ms(o.done - r.due)
		switch {
		case r.kind == kindDelta:
			committed++
		case r.tenant == hotTenant:
			hot = append(hot, lat)
		default:
			cold = append(cold, lat)
		}
		if r.kind != kindDelta {
			if i < half {
				plain = append(plain, lat)
			} else {
				traced = append(traced, lat)
			}
		}
	}
	st.subMu.Lock()
	delivered = float64(len(st.subLines))
	st.subMu.Unlock()

	l := res.Layers
	var admitted, shed int64
	for _, s := range st.router.Stats() {
		admitted += s.Admitted
		shed += s.ShedQueueFull + s.ShedDoomed + s.QueueTimeouts + s.ShedBreakerOpen
	}
	l["router.admitted"] = float64(admitted)
	l["router.shed"] = float64(shed)
	l["router.queue_depth_max"] = float64(load.queueDepthMax)
	l["router.hot_p50_ms"] = median(hot)
	l["router.cold_p50_ms"] = median(cold)
	l["engine.plan_hit_share"] = float64(load.hits) / float64(max(load.hits+load.misses, 1))
	l["subscribe.delivered_share"] = 1 // of no epochs, none was lost
	if committed > 0 {
		l["subscribe.delivered_share"] = delivered / committed
	}
	l["harness.trace_overhead_share"] = median(traced)/median(plain) - 1
	lag := genLag(st.reqs, out, 2, sz.tracedRoundDur())
	l["harness.gen_lag_p95_ms"] = lag.Value
	if sz.enforce {
		res.checkGenLag(lag)
	}
	return res, nil
}
