package fast

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fastmatch/graph"
	"fastmatch/ldbc"
)

func serverFixture(t *testing.T, workers, maxQueue int) (*Server, *Router, *graph.Graph) {
	t.Helper()
	gA, _ := routerTestGraphs()
	r := NewRouter(RouterOptions{Workers: workers, Engine: engineTestOptions(1), MaxQueue: maxQueue})
	if err := r.AddGraph("a", gA, nil); err != nil {
		t.Fatal(err)
	}
	return NewServer(r, ServerOptions{QueryByName: ldbc.QueryByName}), r, gA
}

// queryEdges lists q's edges once each, in the wire shape of matchRequest.
func queryEdges(q *graph.Query) [][2]int {
	var edges [][2]int
	for u := 0; u < q.NumVertices(); u++ {
		for _, v := range q.Neighbors(u) {
			if u < v {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return edges
}

func postJSON(t *testing.T, h http.Handler, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestServerCount: the unary endpoint serves a named query and an explicit
// labels+edges query, both matching the Go API's count.
func TestServerCount(t *testing.T) {
	s, _, gA := serverFixture(t, 2, 0)
	q1, err := ldbc.QueryByName("q1")
	if err != nil {
		t.Fatal(err)
	}
	want := routerWant(t, q1, gA)

	w := postJSON(t, s, "/v1/graphs/a/count", `{"query":"q1"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body)
	}
	var resp countResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != want || resp.Partial || resp.Graph != "a" || resp.Query != "q1" {
		t.Errorf("response %+v, want count %d on graph a", resp, want)
	}

	// The same query spelled out explicitly must agree.
	var labels []graph.Label
	for u := 0; u < q1.NumVertices(); u++ {
		labels = append(labels, q1.Label(u))
	}
	body, _ := json.Marshal(matchRequest{Labels: labels, Edges: queryEdges(q1)})
	w = postJSON(t, s, "/v1/graphs/a/count", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("explicit query status %d, body %s", w.Code, w.Body)
	}
	resp = countResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != want {
		t.Errorf("explicit query count %d, want %d", resp.Count, want)
	}

	// A limit turns the same call partial with reason "limit".
	w = postJSON(t, s, "/v1/graphs/a/count", `{"query":"q1","limit":1}`)
	resp = countResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusOK || resp.Count != 1 || !resp.Partial || resp.Reason != "limit" {
		t.Errorf("limited call = %d %+v, want 200, count 1, partial, reason limit", w.Code, resp)
	}
}

// TestServerBadRequests: every malformed request fails with 400 and the
// machine-readable bad_request reason — including option validation, which
// must reject before any matching work.
func TestServerBadRequests(t *testing.T) {
	s, _, _ := serverFixture(t, 2, 0)
	big := pathQuery(t, 48)
	oversize, _ := json.Marshal(matchRequest{Labels: make([]graph.Label, big.NumVertices()), Edges: queryEdges(big)})
	for name, body := range map[string]string{
		"empty":          `{}`,
		"bad json":       `{"query":`,
		"unknown query":  `{"query":"nope"}`,
		"both shapes":    `{"query":"q1","labels":[0],"edges":[]}`,
		"unknown field":  `{"query":"q1","bogus":1}`,
		"negative limit": `{"query":"q1","limit":-4}`,
		"bad delta":      `{"query":"q1","delta":1.5}`,
		"disconnected":   `{"labels":[0,1],"edges":[]}`,
		"oversize query": string(oversize),
	} {
		w := postJSON(t, s, "/v1/graphs/a/count", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", name, w.Code, w.Body)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Reason != "bad_request" {
			t.Errorf("%s: envelope %s, want reason bad_request", name, w.Body)
		}
	}
	if w := postJSON(t, s, "/v1/graphs/ghost/count", `{"query":"q1"}`); w.Code != http.StatusNotFound {
		t.Errorf("unknown graph: status %d, want 404 (body %s)", w.Code, w.Body)
	}
}

// TestServerMatchStream: /match streams one NDJSON line per embedding and
// closes with a summary line whose count equals the number of lines.
func TestServerMatchStream(t *testing.T) {
	s, _, gA := serverFixture(t, 2, 0)
	q1, err := ldbc.QueryByName("q1")
	if err != nil {
		t.Fatal(err)
	}
	want := routerWant(t, q1, gA)

	w := postJSON(t, s, "/v1/graphs/a/match", `{"query":"q1"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
	var embeddings int64
	var summary *matchLine
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		var line matchLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Done {
			if summary != nil {
				t.Fatal("two summary lines")
			}
			l := line
			summary = &l
			continue
		}
		if len(line.Embedding) != q1.NumVertices() {
			t.Fatalf("embedding arity %d, want %d", len(line.Embedding), q1.NumVertices())
		}
		embeddings++
	}
	if summary == nil {
		t.Fatal("stream ended without a summary line")
	}
	if summary.Count != want || embeddings != want || summary.Partial {
		t.Errorf("streamed %d lines, summary %+v, want count %d", embeddings, summary, want)
	}

	// A shed on /match keeps its error status: unknown graph is 404, not a
	// 200 stream that errors mid-way.
	if w := postJSON(t, s, "/v1/graphs/ghost/match", `{"query":"q1"}`); w.Code != http.StatusNotFound {
		t.Errorf("unknown graph stream: status %d, want 404", w.Code)
	}
}

// TestServerShedStatuses: a saturated server sheds with 429 (queue full)
// and 504 (deadline doomed) plus machine-readable reasons, instead of
// hanging the request until the budget frees up.
func TestServerShedStatuses(t *testing.T) {
	s, r, _ := serverFixture(t, 1, -1) // one slot, queueing disabled
	q1, err := ldbc.QueryByName("q1")
	if err != nil {
		t.Fatal(err)
	}

	var once sync.Once
	started := make(chan struct{})
	block := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := r.MatchStream(nil, "a", q1, func(graph.Embedding) error {
			once.Do(func() { close(started) })
			<-block
			return nil
		})
		if err != nil {
			t.Errorf("hog: %v", err)
		}
	}()
	<-started

	w := postJSON(t, s, "/v1/graphs/a/count", `{"query":"q1"}`)
	var er errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusTooManyRequests || er.Reason != "queue_full" {
		t.Errorf("saturated count = %d %+v, want 429 queue_full", w.Code, er)
	}

	// With a queue and service history, a hopeless deadline is doomed.
	r2 := NewRouter(RouterOptions{Workers: 1, Engine: engineTestOptions(1)})
	gA, _ := routerTestGraphs()
	if err := r2.AddGraph("a", gA, nil); err != nil {
		t.Fatal(err)
	}
	r2.adm.mu.Lock()
	tn := r2.adm.tenants["a"]
	tn.estP50 = time.Second
	r2.adm.mu.Unlock()
	for i := 0; i < 8; i++ {
		tn.hist.observe(time.Second)
	}
	s2 := NewServer(r2, ServerOptions{QueryByName: ldbc.QueryByName})
	var once2 sync.Once
	started2 := make(chan struct{})
	done2 := make(chan struct{})
	go func() {
		defer close(done2)
		_, err := r2.MatchStream(nil, "a", q1, func(graph.Embedding) error {
			once2.Do(func() { close(started2) })
			<-block
			return nil
		})
		if err != nil {
			t.Errorf("hog 2: %v", err)
		}
	}()
	<-started2
	w = postJSON(t, s2, "/v1/graphs/a/count", `{"query":"q1","timeout_ms":50}`)
	er = errorResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusGatewayTimeout || er.Reason != "deadline_doomed" {
		t.Errorf("doomed count = %d %+v, want 504 deadline_doomed", w.Code, er)
	}

	close(block)
	<-done
	<-done2
}

// TestServerAdminEndpoints: list, stats, swap and metrics round-trip
// against the live Router.
func TestServerAdminEndpoints(t *testing.T) {
	s, _, gA := serverFixture(t, 2, 0)
	q1, err := ldbc.QueryByName("q1")
	if err != nil {
		t.Fatal(err)
	}
	wantA := routerWant(t, q1, gA)
	if w := postJSON(t, s, "/v1/graphs/a/count", `{"query":"q1"}`); w.Code != http.StatusOK {
		t.Fatalf("warmup call failed: %s", w.Body)
	}

	// List carries the graph with its serving stats.
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/graphs", nil))
	var list struct {
		Graphs []graphInfo `json:"graphs"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Graphs) != 1 || list.Graphs[0].Name != "a" || list.Graphs[0].Stats.Calls != 1 {
		t.Errorf("list = %+v, want graph a with 1 call", list)
	}

	// Per-graph stats, and 404 for strangers.
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/graphs/a/stats", nil))
	var info graphInfo
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Stats.Admitted != 1 || info.Stats.Weight != 1 || info.Stats.P50Latency <= 0 {
		t.Errorf("stats = %+v, want admitted 1, weight 1, live p50", info.Stats)
	}
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/graphs/ghost/stats", nil))
	if w.Code != http.StatusNotFound {
		t.Errorf("ghost stats status %d, want 404", w.Code)
	}

	// Swap replaces the data graph in place: counts change to the new
	// graph's, the tenant and its counters survive.
	_, gB := routerTestGraphs()
	wantB := routerWant(t, q1, gB)
	if wantA == wantB {
		t.Fatal("fixture graphs should disagree on q1")
	}
	var bin bytes.Buffer
	if err := graph.WriteBinary(&bin, gB); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPut, "/v1/graphs/a", bytes.NewReader(bin.Bytes()))
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("swap status %d, body %s", w.Code, w.Body)
	}
	var cr countResponse
	resp := postJSON(t, s, "/v1/graphs/a/count", `{"query":"q1"}`)
	if err := json.Unmarshal(resp.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Count != wantB {
		t.Errorf("post-swap count %d, want %d", cr.Count, wantB)
	}
	req = httptest.NewRequest(http.MethodPut, "/v1/graphs/ghost", bytes.NewReader(bin.Bytes()))
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Errorf("ghost swap status %d, want 404", w.Code)
	}
	req = httptest.NewRequest(http.MethodPut, "/v1/graphs/a", strings.NewReader("not a graph"))
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("garbage swap status %d, want 400", w.Code)
	}

	// Metrics: Prometheus text with the stable names, self-consistent with
	// the call history (2 calls served, both admitted, nothing shed).
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := w.Body.String()
	for metric, want := range map[string]string{
		"fastmatch_calls_total":                `fastmatch_calls_total{graph="a"} 2`,
		"fastmatch_admitted_total":             `fastmatch_admitted_total{graph="a"} 2`,
		"fastmatch_shed_queue_full_total":      `fastmatch_shed_queue_full_total{graph="a"} 0`,
		"fastmatch_shed_deadline_doomed_total": `fastmatch_shed_deadline_doomed_total{graph="a"} 0`,
		"fastmatch_queue_timeouts_total":       `fastmatch_queue_timeouts_total{graph="a"} 0`,
		"fastmatch_queue_depth":                `fastmatch_queue_depth{graph="a"} 0`,
		"fastmatch_swaps_total":                `fastmatch_swaps_total{graph="a"} 1`,
		"fastmatch_worker_budget":              "fastmatch_worker_budget 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %s line %q", metric, want)
		}
	}
	if !strings.Contains(body, `fastmatch_latency_seconds{graph="a",quantile="0.5"}`) {
		t.Error("metrics missing latency summary")
	}
	// Every exposed family is typed: counters and gauges declare themselves.
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "fastmatch_") {
			metric := strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0]
			base := strings.TrimSuffix(metric, "_count")
			if !strings.Contains(body, fmt.Sprintf("# TYPE %s ", base)) {
				t.Errorf("metric %s has no TYPE declaration", metric)
			}
		}
	}
}

// TestServerStalledMatchReaderReleasesSlot: a /match client that sends
// timeout_ms and then never reads holds the Router's only worker just until
// that timeout plus matchWriteGrace. Its blocked socket write then fails,
// the stalled call ends, another tenant's /count (queued behind it) answers,
// and the goroutines return to the baseline. Small socket buffers on both
// ends make the stream outgrow what the kernel can hold within a few lines.
func TestServerStalledMatchReaderReleasesSlot(t *testing.T) {
	gA := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 400, Seed: 42})
	_, gB := routerTestGraphs()
	r := NewRouter(RouterOptions{Workers: 1, Engine: engineTestOptions(1)})
	for name, g := range map[string]*graph.Graph{"a": gA, "b": gB} {
		if err := r.AddGraph(name, g, nil); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewUnstartedServer(NewServer(r, ServerOptions{QueryByName: ldbc.QueryByName}))
	ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if tc, ok := c.(*net.TCPConn); ok && st == http.StateNew {
			_ = tc.SetWriteBuffer(4 << 10)
		}
	}
	ts.Start()
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	base := runtime.NumGoroutine()

	const timeout = 300 * time.Millisecond
	start := time.Now()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() // before ts.Close, which waits for the handler
	if err := conn.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"query":"q1","timeout_ms":%d}`, timeout.Milliseconds())
	if _, err := fmt.Fprintf(conn, "POST /v1/graphs/a/match HTTP/1.1\r\nHost: fast\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body); err != nil {
		t.Fatal(err)
	}
	for r.Stats()["a"].Admitted == 0 {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the stalled /match was never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// The /count queues behind the stalled call for the one worker.
	client.Timeout = timeout + matchWriteGrace + 5*time.Second
	resp, err := client.Post(ts.URL+"/v1/graphs/b/count", "application/json", strings.NewReader(`{"query":"q1"}`))
	if err != nil {
		t.Fatalf("another tenant's /count behind a stalled /match reader: %v", err)
	}
	answered := time.Since(start)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/count status %d", resp.StatusCode)
	}
	st := r.Stats()["a"]
	if st.Calls != 1 || st.Partials+st.Failures != 1 {
		t.Fatalf("stalled call not ended when the /count answered: %+v", st)
	}
	t.Logf("/count answered %v after the stalled /match began", answered)
	const slack = 2 * time.Second
	if answered < timeout || answered > timeout+matchWriteGrace+slack {
		t.Errorf("/count answered %v after the stalled /match began; want between its timeout %v and %v",
			answered, timeout, timeout+matchWriteGrace+slack)
	}
	conn.Close()
	client.CloseIdleConnections()
	awaitGoroutineBaseline(t, base)
}
