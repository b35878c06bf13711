package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	fast "fastmatch"
	"fastmatch/graph"
	"fastmatch/ldbc"
)

// serve_mutate: an in-process fast.Server on a loopback listener over a
// Router with two default-device tenants. hot takes 80% of the reads and
// every delta; cold is never mutated, the in-process control group. The
// load is an open loop: arrivals on a fixed schedule, each request timed
// from when it was due, so a stall is charged to every request it delays.

const (
	hotTenant  = "hot"
	coldTenant = "cold"
	matchLimit = 500 // POST /match asks for at most this many embeddings
	subQuery   = "q1"

	deltaPct = 4  // of arrivals: POST /delta on hot
	matchPct = 10 // of arrivals: POST /match, NDJSON
	coldPct  = 20 // of the reads of each shape: to cold, the rest to hot

	// deckSize is how many arrivals are dealt at a time: 2.5 s of the
	// schedule, one round of a 20 s run.
	deckSize = 250
)

type reqKind int

const (
	kindCount reqKind = iota
	kindMatch
	kindDelta
)

// request is one scheduled arrival.
type request struct {
	due    time.Duration // since the start of the run
	kind   reqKind
	tenant string
	query  int // index into the sweep (reads); kindMatch always asks subQuery
	delta  int // index of the batch (kindDelta)
}

// shape numbers the kinds of read whose costs differ: one per /count query,
// the last, nQueries, for /match.
func (r request) shape(nQueries int) int {
	if r.kind == kindMatch {
		return nQueries
	}
	return r.query
}

// deck is deckSize arrivals in the workload's exact proportions: the deltas,
// the /match reads, and the /count reads dealt evenly over the queries, every
// fifth read of a shape going to cold. The median read sits where the fast
// shapes end and the slow ones begin (q0, q1 and q3 are half the reads and
// take 1 ms, the others 2 to 3), so with kinds drawn independently the chance
// mix of a round moved op_p50_ms by 20% within a run and between seeds. A
// seed now orders the arrivals and does not change what arrives.
func deck(queries []string) []request {
	d := make([]request, 0, deckSize)
	for len(d) < deckSize*deltaPct/100 {
		d = append(d, request{kind: kindDelta, tenant: hotTenant})
	}
	dealt := make([]int, len(queries)+1) // reads so far per shape
	read := func(kind reqKind, query int) {
		r := request{kind: kind, tenant: hotTenant, query: query}
		n := dealt[r.shape(len(queries))]
		dealt[r.shape(len(queries))]++
		if (n+1)*coldPct/100 > n*coldPct/100 {
			r.tenant = coldTenant
		}
		d = append(d, r)
	}
	matchQuery := indexOf(queries, subQuery)
	for i := 0; i < deckSize*matchPct/100; i++ {
		read(kindMatch, matchQuery)
	}
	for i := 0; len(d) < deckSize; i++ {
		read(kindCount, i%len(queries))
	}
	return d
}

// schedule lays out rate*seconds arrivals, evenly spaced: deck after deck,
// each in a seeded order. It returns the requests and how many of them are
// deltas.
func schedule(rng *rand.Rand, rate, seconds float64, queries []string) ([]request, int) {
	n := int(rate * seconds)
	spacing := time.Duration(float64(time.Second) / rate)
	reqs := make([]request, 0, n+deckSize)
	for len(reqs) < n {
		d := deck(queries)
		rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
		reqs = append(reqs, d...)
	}
	reqs = reqs[:n]
	deltas := 0
	for i := range reqs {
		reqs[i].due = time.Duration(i) * spacing
		if reqs[i].kind == kindDelta {
			reqs[i].delta = deltas
			deltas++
		}
	}
	return reqs, deltas
}

func indexOf(list []string, s string) int {
	for i, v := range list {
		if v == s {
			return i
		}
	}
	return 0
}

// outcome is what happened to one request. Times are since the start of the
// run.
type outcome struct {
	lag   time.Duration // how late the generator released it: released - due
	sent  time.Duration
	done  time.Duration
	ok    bool  // transport and status fine, response well-formed
	count int64 // reads: embeddings counted; deltas: the epoch committed
	bytes int   // response body size
}

// sleepUntil blocks the calling thread in the kernel until t. time.Sleep
// wakes through the runtime's poller, whose timeout is in whole milliseconds
// while every P is idle: at 100 arrivals/s on a quarter-busy server that is
// most arrivals, the generator released them 0.6 ms late at the median and
// 1.1 ms at p95, and since latency is taken from the due time a 2 ms read was
// a quarter generator. nanosleep wakes on the kernel's high-resolution timer.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // cut short by a signal: the loop sleeps the rest
	}
}

// maxGenLagMS is the generator lag at p95 from which a run is measuring the
// generator and not the server.
const maxGenLagMS = 1.0

// genLag is how late the generator released its requests, in milliseconds:
// each round's p95, reduced over the rounds as the latencies are, so that it
// is read on the rounds the results come from. A generator that is late by
// design (time.Sleep: 1.1-2.6 ms) is late in every round and fails the run;
// a stall of the machine costs the rounds it hits, as it does in every other
// statistic. It is a health reading of the harness, reported whatever the
// sample.
func genLag(reqs []request, out []outcome, rounds int, roundDur time.Duration) roundStat {
	per := make([][]float64, rounds)
	for i, o := range out {
		rd := min(int(reqs[i].due/roundDur), rounds-1)
		per[rd] = append(per[rd], ms(o.lag))
	}
	st, _ := tailOfRounds(per, 0.95)
	return st
}

// checkGenLag holds the generator's lag against maxGenLagMS.
func (r *result) checkGenLag(lag roundStat) {
	if lag.Value >= maxGenLagMS {
		r.problemf("generator lag %.3f ms at p95 (rounds: %.3v), not under %v ms: the run measured the generator", lag.Value, lag.Rounds, maxGenLagMS)
	}
}

// openLoop releases each request at its due time into a queue that conns
// workers drain, each worker one keep-alive connection. A request that
// finds every connection busy waits in the queue, and since latency is
// taken from the due time that wait is charged to it.
func openLoop(reqs []request, conns int, send func(worker, i int) (ok bool, count int64, bytes int)) []outcome {
	out := make([]outcome, len(reqs))
	queue := make(chan int, len(reqs)) // sized to every send: the generator never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				o := &out[i]
				o.sent = time.Since(start)
				o.ok, o.count, o.bytes = send(w, i)
				o.done = time.Since(start)
			}
		}(w)
	}
	for i := range reqs {
		sleepUntil(start.Add(reqs[i].due))
		out[i].lag = time.Since(start) - reqs[i].due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// subLine is one committed epoch as read from the subscription stream.
type subLine struct {
	at             time.Time
	added, removed int
}

// serveState is a set-up serving stack with its clients.
type serveState struct {
	queries []string
	qs      []*graph.Query
	hot0    *graph.Graph // hot at epoch 0; the oracle replays the deltas on it
	cold    *graph.Graph
	router  *fast.Router
	fsrv    *fast.Server
	httpSrv *http.Server
	served  chan struct{} // closed when httpSrv.Serve returns
	base    string        // http://127.0.0.1:port
	clients []*http.Client

	reqs   []request
	deltas []graph.Delta
	// deltaDone[k] is closed when batch k has been answered: batch k+1 was
	// generated against the graph batch k leaves, so it must not overtake.
	deltaDone []chan struct{}
	deltaSent []time.Time // when batch k was put on the wire
	deltaAck  []time.Time

	subCancel context.CancelFunc
	subDone   chan struct{} // closed when the stream reader exits
	subMu     sync.Mutex
	subLines  map[uint64]subLine
}

// setupServe builds the whole stack: graphs, Router, Server, listener,
// clients, the cache-filling sweep on both tenants, the open subscription
// and the seeded schedule with its delta batches.
func setupServe(sz sizing, seed int64, seconds float64, tr *tracer) (*serveState, error) {
	st := &serveState{queries: fullSweep, subLines: map[uint64]subLine{}}
	var err error
	if st.qs, err = namedQueries(st.queries); err != nil {
		return nil, err
	}
	id := tr.begin("ldbc.generate", -1, 0)
	st.hot0 = ldbc.Generate(ldbc.Config{BasePersons: sz.serveBase, Seed: seed})
	tr.end(id)
	st.cold = ldbc.Generate(ldbc.Config{BasePersons: sz.serveBase, Seed: seed + 1})

	nproc := runtime.NumCPU()
	st.router = fast.NewRouter(fast.RouterOptions{Workers: nproc})
	if err := st.router.AddGraph(hotTenant, st.hot0, nil, fast.WithWeight(3)); err != nil {
		return nil, err
	}
	if err := st.router.AddGraph(coldTenant, st.cold, nil, fast.WithWeight(1)); err != nil {
		return nil, err
	}
	st.fsrv = fast.NewServer(st.router, fast.ServerOptions{QueryByName: ldbc.QueryByName})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	st.httpSrv = &http.Server{Handler: st.fsrv}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		_ = st.httpSrv.Serve(ln) // returns ErrServerClosed on teardown
	}()
	for i := 0; i < nproc; i++ {
		st.clients = append(st.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}

	// From here on a failure must not leak the listener and its goroutine.
	fail := func(err error) (*serveState, error) {
		st.teardown()
		return nil, err
	}
	if err := st.fillCaches(); err != nil {
		return fail(err)
	}
	if err := st.subscribe(); err != nil {
		return fail(err)
	}

	rng := rand.New(rand.NewSource(seed))
	var nDeltas int
	st.reqs, nDeltas = schedule(rng, sz.rate, seconds, st.queries)
	gen := deltaGen{rng: rng, mirror: st.hot0}
	for k := 0; k < nDeltas; k++ {
		st.deltas = append(st.deltas, gen.next())
		st.deltaDone = append(st.deltaDone, make(chan struct{}))
	}
	st.deltaSent = make([]time.Time, nDeltas)
	st.deltaAck = make([]time.Time, nDeltas)
	return st, nil
}

// fillCaches reads every query once on both tenants, so that each has a
// plan cached for every shape.
func (st *serveState) fillCaches() error {
	for _, tenant := range []string{hotTenant, coldTenant} {
		for qi := range st.queries {
			if ok, _, _ := st.read(0, kindCount, tenant, qi); !ok {
				return fmt.Errorf("cache-filling %s on %s failed", st.queries[qi], tenant)
			}
		}
	}
	return nil
}

// teardown stops the stack and waits for everything it started.
func (st *serveState) teardown() {
	if st.subCancel != nil {
		st.subCancel()
		<-st.subDone
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.fsrv.Shutdown(ctx) // ends any stream the cancel above did not
	_ = st.httpSrv.Shutdown(ctx)
	<-st.served
	for _, c := range st.clients {
		c.CloseIdleConnections()
	}
}

// subscribe opens the receive-only GET /subscribe stream on hot and starts
// the reader that stamps every epoch line as it arrives.
func (st *serveState) subscribe() error {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.base+"/v1/graphs/"+hotTenant+"/subscribe?query="+subQuery, nil)
	if err != nil {
		cancel()
		return err
	}
	// The stream has a transport of its own: it must not take one of the
	// request connections.
	resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
	if err != nil {
		cancel()
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	if resp.StatusCode != http.StatusOK || !sc.Scan() || !bytes.Contains(sc.Bytes(), []byte(`"subscribed":true`)) {
		resp.Body.Close()
		cancel()
		return fmt.Errorf("subscribe: status %d, first line %q", resp.StatusCode, sc.Bytes())
	}
	st.subCancel = cancel
	st.subDone = make(chan struct{})
	go func() {
		defer close(st.subDone)
		defer resp.Body.Close()
		for sc.Scan() {
			at := time.Now()
			var line struct {
				Epoch   uint64            `json:"epoch"`
				Added   []json.RawMessage `json:"added"`
				Removed []json.RawMessage `json:"removed"`
				Closed  bool              `json:"closed"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Closed {
				return
			}
			st.subMu.Lock()
			st.subLines[line.Epoch] = subLine{at, len(line.Added), len(line.Removed)}
			st.subMu.Unlock()
		}
	}()
	return nil
}

// awaitEpoch waits until the stream has delivered epoch's line, or the
// timeout passes.
func (st *serveState) awaitEpoch(epoch uint64, timeout time.Duration) {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		st.subMu.Lock()
		_, ok := st.subLines[epoch]
		st.subMu.Unlock()
		if ok {
			return
		}
	}
}

func (st *serveState) post(worker int, path string, body []byte) (status int, data []byte, err error) {
	resp, err := st.clients[worker].Post(st.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// read sends one /count or /match and returns the count the server
// reported. A /match must stream exactly as many embedding lines as its
// summary line counts.
func (st *serveState) read(worker int, kind reqKind, tenant string, query int) (ok bool, count int64, size int) {
	if kind == kindCount {
		status, data, err := st.post(worker, "/v1/graphs/"+tenant+"/count", []byte(`{"query":"`+st.queries[query]+`"}`))
		var resp struct {
			Count   int64 `json:"count"`
			Partial bool  `json:"partial"`
		}
		if err != nil || status != http.StatusOK || json.Unmarshal(data, &resp) != nil || resp.Partial {
			return false, 0, len(data)
		}
		return true, resp.Count, len(data)
	}
	status, data, err := st.post(worker, "/v1/graphs/"+tenant+"/match", []byte(fmt.Sprintf(`{"query":%q,"limit":%d}`, subQuery, matchLimit)))
	if err != nil || status != http.StatusOK {
		return false, 0, len(data)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	var last struct {
		Done  bool   `json:"done"`
		Count int64  `json:"count"`
		Error string `json:"error"`
	}
	if json.Unmarshal(lines[len(lines)-1], &last) != nil || !last.Done || last.Error != "" || int64(len(lines)-1) != last.Count {
		return false, 0, len(data)
	}
	return true, last.Count, len(data)
}

// send performs request i of the schedule on the given worker's connection.
func (st *serveState) send(worker, i int) (ok bool, count int64, size int) {
	r := &st.reqs[i]
	if r.kind != kindDelta {
		return st.read(worker, r.kind, r.tenant, r.query)
	}
	k := r.delta
	if k > 0 {
		<-st.deltaDone[k-1]
	}
	defer close(st.deltaDone[k])
	d := st.deltas[k]
	body, err := json.Marshal(map[string]any{"add_edges": d.AddEdges, "del_edges": d.DelEdges})
	if err != nil {
		return false, 0, 0
	}
	st.deltaSent[k] = time.Now()
	status, data, err := st.post(worker, "/v1/graphs/"+hotTenant+"/delta", body)
	st.deltaAck[k] = time.Now()
	var resp struct {
		Epoch int64 `json:"epoch"`
	}
	if err != nil || status != http.StatusOK || json.Unmarshal(data, &resp) != nil || resp.Epoch != int64(k+1) {
		return false, 0, len(data)
	}
	return true, resp.Epoch, len(data)
}

// oracleCounts returns, for every epoch the run reached on hot and for
// cold, each query's count under the CECI baseline: the delta sequence is
// replayed on the epoch-0 graph.
func (st *serveState) oracleCounts(epochs int) (hot [][]int64, cold []int64, err error) {
	count := func(g *graph.Graph) ([]int64, error) {
		out := make([]int64, len(st.qs))
		for i, q := range st.qs {
			res, err := fast.RunBaseline(fast.BaselineCECI, q, g, fast.BaselineOptions{Threads: runtime.NumCPU()})
			if err != nil {
				return nil, fmt.Errorf("oracle %s: %w", q.Name(), err)
			}
			out[i] = res.Count
		}
		return out, nil
	}
	g := st.hot0
	for e := 0; ; e++ {
		c, err := count(g)
		if err != nil {
			return nil, nil, err
		}
		hot = append(hot, c)
		if e == epochs {
			break
		}
		if g, _, err = g.ApplyDelta(st.deltas[e]); err != nil {
			return nil, nil, fmt.Errorf("oracle: replaying batch %d: %w", e, err)
		}
	}
	cold, err = count(st.cold)
	return hot, cold, err
}

// verify checks every outcome against the oracle and marks the ones that
// fail. A read ran entirely at one epoch, the one current when the Router
// resolved it, so its count must be the oracle's for an epoch that could
// have been current between its send and its receive: epoch e starts no
// earlier than batch e-1 was sent and ends no later than batch e was
// acknowledged. Every committed epoch must also have its line on the
// subscription stream, and the line's |added| - |removed| must be the
// oracle's change in the subscribed query's count.
func (st *serveState) verify(res *result, out []outcome, start time.Time) error {
	committed := 0
	for i, r := range st.reqs {
		if r.kind == kindDelta && out[i].ok {
			committed = r.delta + 1 // batches commit in order
		}
	}
	hot, cold, err := st.oracleCounts(committed)
	if err != nil {
		return err
	}
	for i, r := range st.reqs {
		o := &out[i]
		if !o.ok || r.kind == kindDelta {
			continue
		}
		want := func(total int64) int64 {
			if r.kind == kindMatch {
				return min(total, matchLimit)
			}
			return total
		}
		if r.tenant == coldTenant {
			o.ok = o.count == want(cold[r.query])
		} else {
			o.ok = false
			sent, done := start.Add(o.sent), start.Add(o.done)
			for e := 0; e <= committed && !o.ok; e++ {
				began := e == 0 || !st.deltaSent[e-1].After(done)
				ended := e < committed && st.deltaAck[e].Before(sent)
				o.ok = began && !ended && o.count == want(hot[e][r.query])
			}
		}
		if !o.ok {
			res.problemf("request %d (%s on %s): count %d matches no epoch's oracle in its window", i, st.queries[r.query], r.tenant, o.count)
		}
	}
	sub := indexOf(st.queries, subQuery)
	st.subMu.Lock()
	defer st.subMu.Unlock()
	for e := 1; e <= committed; e++ {
		line, ok := st.subLines[uint64(e)]
		if !ok {
			res.Failed++
			res.problemf("subscription: no line for epoch %d", e)
		} else if got, want := int64(line.added-line.removed), hot[e][sub]-hot[e-1][sub]; got != want {
			res.Failed++
			res.problemf("subscription: epoch %d added-removed = %d, oracle %d", e, got, want)
		}
	}
	return nil
}

// serveRounds folds the outcomes into rounds by due time. usage[r] is the
// process snapshot at the start of round r.
func (st *serveState) serveRounds(out []outcome, usage []usage, roundDur time.Duration) (reads, deltas, notify []round, shapes [][][]float64) {
	n := len(usage) - 1
	reads, deltas, notify = make([]round, n), make([]round, n), make([]round, n)
	// shapes[round][shape] holds the read latencies by request shape.
	shapes = make([][][]float64, n)
	for r := range shapes {
		shapes[r] = make([][]float64, len(st.queries)+1)
	}
	st.subMu.Lock()
	defer st.subMu.Unlock()
	for i, r := range st.reqs {
		rd := min(int(r.due/roundDur), n-1)
		o := out[i]
		lat := ms(o.done - r.due)
		switch {
		case r.kind == kindDelta:
			deltas[rd].attempted++
			if !o.ok {
				continue
			}
			deltas[rd].lat = append(deltas[rd].lat, lat)
			if line, ok := st.subLines[uint64(r.delta+1)]; ok {
				notify[rd].lat = append(notify[rd].lat, ms(line.at.Sub(st.deltaSent[r.delta])))
			}
		default:
			reads[rd].attempted++
			if !o.ok {
				continue
			}
			reads[rd].lat = append(reads[rd].lat, lat)
			shape := r.shape(len(st.queries))
			shapes[rd][shape] = append(shapes[rd][shape], lat)
		}
	}
	for r := range reads {
		reads[r].before, reads[r].after = usage[r], usage[r+1]
	}
	return reads, deltas, notify, shapes
}

// drive runs the schedule against the stack and samples the process
// counters at every round boundary.
func (st *serveState) drive(rounds int, roundDur time.Duration, send func(worker, i int) (bool, int64, int)) (out []outcome, snaps []usage, start time.Time) {
	snaps = make([]usage, rounds+1)
	snaps[0] = readUsage()
	start = time.Now()
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for r := 1; r <= rounds; r++ {
			time.Sleep(time.Until(start.Add(time.Duration(r) * roundDur)))
			snaps[r] = readUsage()
		}
	}()
	out = openLoop(st.reqs, len(st.clients), send)
	<-sampled
	if n := len(st.deltas); n > 0 {
		st.awaitEpoch(uint64(n), 5*time.Second)
	}
	return out, snaps, start
}

// medians is the calm quartile over rounds of each round's median latency;
// rounds without a sample are skipped. supported is false unless every
// round has one.
func medians(rounds []round) (st roundStat, supported bool) {
	var per []float64
	for _, r := range rounds {
		if len(r.lat) > 0 {
			per = append(per, median(r.lat))
		}
	}
	return calmOfRounds(per, false), len(per) == len(rounds)
}

// runServe is the untraced pass of serve_mutate.
func runServe(sz sizing, seed int64) (*result, error) {
	res := &result{Workload: wlServeMutate}
	st, setupS, err := repeatSetup(sz.setups,
		func() (*serveState, error) { return setupServe(sz, seed, sz.seconds, nil) },
		(*serveState).teardown)
	if err != nil {
		return nil, err
	}
	defer st.teardown()
	out, snaps, start := st.drive(sz.rounds, sz.roundDur(), st.send)
	// The heap is read with both tenants' plan caches full: how many shapes
	// hot has re-planned since its last delta is an accident of the
	// schedule's last quarter second.
	if err := st.fillCaches(); err != nil {
		return nil, err
	}
	heap := liveHeapMB()

	res.Attempted = int64(len(out))
	if err := st.verify(res, out, start); err != nil {
		return nil, err
	}
	for _, o := range out {
		if !o.ok {
			res.Failed++
		}
	}
	lag := genLag(st.reqs, out, sz.rounds, sz.roundDur())
	res.GenLag = &lag
	if sz.enforce {
		res.checkGenLag(lag)
	}
	reads, deltas, notify, shapes := st.serveRounds(out, snaps, sz.roundDur())
	res.E2E = summarize(reads)
	// The reads are a mixture of six shapes that take 0.8 to 3.2 ms, and the
	// plain median of the mixture sits in the gap between the fast half and
	// the slow half, where a shift of one read in a hundred moves it by 7%.
	// So the median is taken within each shape, where it sits inside a mode,
	// and averaged over the shapes by their share of the reads: the serving
	// counterpart of the engine workloads' op, a sweep that counts every
	// shape every time.
	typical := make([]float64, len(shapes))
	for r := range shapes {
		typical[r] = groupedMedian(shapes[r])
	}
	res.E2E["op_p50_ms"] = calmOfRounds(typical, false)
	res.E2E["setup_s"] = setupS
	res.E2E["live_heap_mb"] = roundStat{Value: heap}
	lats := make([][]float64, len(reads))
	for i, r := range reads {
		lats[i] = r.lat
	}
	// A statistic that not every round supports is still the workload's own
	// measurement, so it is never replaced by a copy of the median: -smoke
	// reports it from what samples there are, a real run fails.
	own := func(name string, stat roundStat, supported bool, need string) {
		if len(stat.Rounds) == 0 {
			return // fillInert reports it
		}
		res.E2E[name] = stat
		if sz.enforce && !supported {
			res.problemf("%s: not every round has %s; measure for longer (-seconds)", name, need)
		}
	}
	tail, ok := tailOfRounds(lats, 0.95)
	own("op_p95_ms", tail, ok, "ten reads beyond the p95")
	stat, ok := medians(deltas)
	own("delta_p50_ms", stat, ok, "a delta")
	stat, ok = medians(notify)
	own("notify_p50_ms", stat, ok, "a notified delta")
	res.fillInert(sz.enforce)
	return res, nil
}
