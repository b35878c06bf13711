package fast

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fastmatch/graph"
)

// ServerOptions configures a Server.
type ServerOptions struct {
	// QueryByName resolves a request's "query" field to a query graph (for
	// example ldbc.QueryByName). nil disables named queries: requests must
	// spell out labels and edges.
	QueryByName func(name string) (*graph.Query, error)
	// MaxBodyBytes bounds request bodies (JSON and binary graph uploads
	// alike). 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
}

// DefaultMaxBodyBytes bounds request bodies when ServerOptions leaves
// MaxBodyBytes zero — large enough for a swapped data graph, small enough
// that a stray upload cannot exhaust memory.
const DefaultMaxBodyBytes = 256 << 20

// Server is the HTTP/JSON serving front end over a Router. Every match
// request passes through the Router's admission controller, so a saturated
// server sheds with machine-readable reasons instead of stacking blocked
// handlers:
//
//	POST /v1/graphs/{name}/count     unary match, JSON in/out
//	POST /v1/graphs/{name}/match     streaming match, NDJSON out
//	POST /v1/graphs/{name}/delta     apply a mutation batch (new epoch)
//	GET  /v1/graphs/{name}/subscribe standing query, NDJSON MatchDelta stream
//	GET  /v1/graphs                  list graphs with serving stats
//	GET  /v1/graphs/{name}/stats     one graph's GraphStats
//	PUT  /v1/graphs/{name}           swap the data graph (binary body)
//	GET  /metrics                    Prometheus text format
//
// Errors are JSON envelopes {"error": ..., "reason": ...} where reason is
// one of bad_request (400), unknown_graph (404), queue_full (429),
// breaker_open (503), draining (503), deadline_doomed (504), queue_timeout
// (504) or internal (500). An admitted call cut short by its deadline is
// service, not failure: it returns 200 with "partial": true, mirroring the
// Go API's partial Result.
//
// Fault tolerance: every request runs behind a recovery middleware — a
// handler panic is recovered, counted (fastmatch_panics_total) and answered
// with 500 "internal" instead of tearing down the connection served by this
// process. Shutdown drains gracefully: new requests are refused with 503
// "draining", standing subscriptions terminate with a "draining" close
// line, and in-flight requests run to completion (or until the caller's
// Shutdown context fires).
type Server struct {
	router *Router
	opts   ServerOptions
	mux    *http.ServeMux

	draining  atomic.Bool
	inflight  sync.WaitGroup
	panics    atomic.Int64
	drainCtx  context.Context // cancelled by Shutdown: ends subscriptions
	drainStop context.CancelFunc
	drainOnce sync.Once
	drainedCh chan struct{} // closed when the in-flight count hits zero
}

// NewServer wraps r in the HTTP front end. The Server holds no state of its
// own beyond the mux and drain bookkeeping: graphs added or swapped on the
// Router are visible to requests immediately.
func NewServer(r *Router, opts ServerOptions) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{router: r, opts: opts, mux: http.NewServeMux(), drainedCh: make(chan struct{})}
	s.drainCtx, s.drainStop = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /v1/graphs/{name}/count", s.handleCount)
	s.mux.HandleFunc("POST /v1/graphs/{name}/match", s.handleMatch)
	s.mux.HandleFunc("POST /v1/graphs/{name}/delta", s.handleDelta)
	s.mux.HandleFunc("GET /v1/graphs/{name}/subscribe", s.handleSubscribe)
	s.mux.HandleFunc("GET /v1/graphs", s.handleList)
	s.mux.HandleFunc("GET /v1/graphs/{name}/stats", s.handleStats)
	s.mux.HandleFunc("PUT /v1/graphs/{name}", s.handleSwap)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// statusRecorder remembers whether a handler already wrote its header, so
// the panic middleware knows whether a 500 envelope can still go out.
type statusRecorder struct {
	http.ResponseWriter
	wrote bool
}

func (sr *statusRecorder) WriteHeader(status int) {
	sr.wrote = true
	sr.ResponseWriter.WriteHeader(status)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	sr.wrote = true
	return sr.ResponseWriter.Write(b)
}

// Flush forwards http.Flusher so the streaming handlers keep flushing
// through the recorder.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, which
// sets /match's write deadline through it.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// ServeHTTP implements http.Handler: the drain gate and panic-recovery
// middleware around the mux. The in-flight count is taken before the drain
// check, so Shutdown's wait can never miss a request that saw draining
// false.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	sr := &statusRecorder{ResponseWriter: w}
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler { // the stdlib's own abort protocol
			panic(rec)
		}
		s.panics.Add(1)
		if !sr.wrote {
			writeError(sr, http.StatusInternalServerError, "internal", fmt.Sprintf("handler panic: %v", rec))
		}
	}()
	s.mux.ServeHTTP(sr, r)
}

// Shutdown drains the server: new requests are refused with 503 "draining",
// standing subscription streams terminate with a "draining" close line, and
// Shutdown blocks until every in-flight request has finished or ctx fires
// (returning ctx's error with requests still running). Shutdown is
// idempotent and safe to call concurrently; the Server keeps refusing
// requests afterwards.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.drainStop() // ends every subscription stream's wait
	s.drainOnce.Do(func() {
		go func() {
			s.inflight.Wait()
			close(s.drainedCh)
		}()
	})
	select {
	case <-s.drainedCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Panics reports handler panics recovered by the serving middleware.
func (s *Server) Panics() int64 { return s.panics.Load() }

// matchRequest is the body of /count and /match. A query is either named
// (resolved through ServerOptions.QueryByName) or spelled out as vertex
// labels plus an undirected edge list — exactly graph.NewQuery's shape.
type matchRequest struct {
	Query  string        `json:"query,omitempty"`
	Labels []graph.Label `json:"labels,omitempty"`
	Edges  [][2]int      `json:"edges,omitempty"`

	// Limit caps embeddings (0 = unlimited override, absent = tenant
	// default); TimeoutMS bounds the call's wall clock including admission
	// queue time; Delta overrides the CPU share δ.
	Limit     *int64   `json:"limit,omitempty"`
	TimeoutMS *int64   `json:"timeout_ms,omitempty"`
	Delta     *float64 `json:"delta,omitempty"`
}

// countResponse is /count's reply. ElapsedMS is the server-side wall clock
// of the routed call, queue time included.
type countResponse struct {
	Graph     string  `json:"graph"`
	Query     string  `json:"query,omitempty"`
	Count     int64   `json:"count"`
	Partial   bool    `json:"partial"`
	Reason    string  `json:"reason,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// errorResponse is the JSON error envelope every non-2xx reply carries.
type errorResponse struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // header is out; nothing useful to do on a failed write
}

func writeError(w http.ResponseWriter, status int, reason, msg string) {
	writeJSON(w, status, errorResponse{Error: msg, Reason: reason})
}

// shedStatus maps a routed call's error to (status, reason) for the
// envelope; ok is false for errors that are not admission or routing
// verdicts (the caller decides whether those are 400s or 500s).
func shedStatus(err error) (int, string, bool) {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, "queue_full", true
	case errors.Is(err, ErrDeadlineDoomed):
		return http.StatusGatewayTimeout, "deadline_doomed", true
	case errors.Is(err, ErrQueueTimeout):
		return http.StatusGatewayTimeout, "queue_timeout", true
	case errors.Is(err, ErrBreakerOpen):
		return http.StatusServiceUnavailable, "breaker_open", true
	case errors.Is(err, ErrUnknownGraph):
		return http.StatusNotFound, "unknown_graph", true
	}
	return 0, "", false
}

// parseMatchRequest decodes and validates a /count or /match body into a
// query plus per-call options, and returns the call's timeout_ms as a
// duration (0 when absent).
func (s *Server) parseMatchRequest(r *http.Request) (*graph.Query, []MatchOption, time.Duration, error) {
	var req matchRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, nil, 0, fmt.Errorf("decoding request body: %w", err)
	}
	var q *graph.Query
	switch {
	case req.Query != "" && req.Labels != nil:
		return nil, nil, 0, errors.New(`request names a query and spells one out; use "query" or "labels"+"edges", not both`)
	case req.Query != "":
		if s.opts.QueryByName == nil {
			return nil, nil, 0, errors.New("named queries are not enabled on this server")
		}
		var err error
		if q, err = s.opts.QueryByName(req.Query); err != nil {
			return nil, nil, 0, err
		}
	case req.Labels != nil:
		edges := make([][2]graph.QueryVertex, len(req.Edges))
		for i, e := range req.Edges {
			edges[i] = [2]graph.QueryVertex{e[0], e[1]}
		}
		var err error
		if q, err = graph.NewQuery("http", req.Labels, edges); err != nil {
			return nil, nil, 0, err
		}
	default:
		return nil, nil, 0, errors.New(`request carries no query: set "query" or "labels"+"edges"`)
	}
	var opts []MatchOption
	if req.Limit != nil {
		opts = append(opts, WithLimit(*req.Limit))
	}
	var timeout time.Duration
	if req.TimeoutMS != nil {
		timeout = time.Duration(*req.TimeoutMS) * time.Millisecond
		opts = append(opts, WithTimeout(timeout))
	}
	if req.Delta != nil {
		opts = append(opts, WithDelta(*req.Delta))
	}
	return q, opts, timeout, nil
}

// finishReason labels a completed call for the response body: partial
// results carry why they stopped.
func finishReason(res *Result, err error) string {
	switch {
	case err == nil && res.Partial:
		return "limit"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	return ""
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	q, opts, _, err := s.parseMatchRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	start := time.Now()
	res, err := s.router.MatchContext(r.Context(), name, q, opts...)
	if err != nil {
		if status, reason, ok := shedStatus(err); ok {
			writeError(w, status, reason, err.Error())
			return
		}
		if res == nil {
			// Hard failure with no shed verdict: the remaining producers are
			// option validation and query shape — the caller's fault.
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		// Admitted but cut short (deadline or client cancel): service, not
		// failure — 200 with the partial count, like the Go API's partial
		// Result with its error.
	}
	writeJSON(w, http.StatusOK, countResponse{
		Graph:     name,
		Query:     q.Name(),
		Count:     res.Count,
		Partial:   res.Partial,
		Reason:    finishReason(res, err),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
	})
}

// matchLine is one NDJSON line of /match: embedding lines stream as they
// are found, then exactly one summary line with done set reports the final
// count and why the stream stopped, mirroring countResponse.
type matchLine struct {
	Embedding []graph.VertexID `json:"embedding,omitempty"`
	Done      bool             `json:"done,omitempty"`
	Count     int64            `json:"count,omitempty"`
	Partial   bool             `json:"partial,omitempty"`
	Reason    string           `json:"reason,omitempty"`
	Error     string           `json:"error,omitempty"`
}

// matchWriteGrace is how long past its timeout_ms a /match response may
// still write.
const matchWriteGrace = time.Second

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	q, opts, timeout, err := s.parseMatchRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if timeout > 0 {
		// A reader that stops reading blocks the emit in a socket write,
		// where the call's own deadline cannot reach it; the write deadline
		// fails that write, which ends the stream and frees the call's
		// admission slot. The grace leaves a call cut by its deadline time
		// to write its done line.
		_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(timeout + matchWriteGrace))
	}
	// Sheds must keep their status codes, so admission is probed before the
	// 200 header goes out: a request the controller would reject fails fast
	// here with the same JSON envelope as /count. The probe is the real
	// call — the header is written only once the stream is admitted and
	// running, i.e. on the first emit or at completion.
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	headerOut := false
	emit := func(e graph.Embedding) error {
		if !headerOut {
			headerOut = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		if err := enc.Encode(matchLine{Embedding: e}); err != nil {
			return err // client went away: stop enumerating
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	res, err := s.router.MatchStream(r.Context(), name, q, emit, opts...)
	if err != nil && !headerOut {
		if status, reason, ok := shedStatus(err); ok {
			writeError(w, status, reason, err.Error())
			return
		}
		if res == nil {
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
	}
	if !headerOut {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
	}
	line := matchLine{Done: true, Count: res.Count, Partial: res.Partial, Reason: finishReason(res, err)}
	if err != nil && line.Reason == "" {
		line.Error = err.Error()
	}
	_ = enc.Encode(line)
	if flusher != nil {
		flusher.Flush()
	}
}

// deltaRequest is the body of POST /v1/graphs/{name}/delta — graph.Delta's
// shape on the wire. add_edge_labels, when present, must parallel add_edges.
type deltaRequest struct {
	AddVertices   []graph.Label       `json:"add_vertices,omitempty"`
	DelVertices   []graph.VertexID    `json:"del_vertices,omitempty"`
	AddEdges      [][2]graph.VertexID `json:"add_edges,omitempty"`
	AddEdgeLabels []graph.EdgeLabel   `json:"add_edge_labels,omitempty"`
	DelEdges      [][2]graph.VertexID `json:"del_edges,omitempty"`
}

// deltaResponse mirrors DeltaResult for the wire.
type deltaResponse struct {
	Graph      string `json:"graph"`
	Epoch      uint64 `json:"epoch"`
	Vertices   int    `json:"vertices"`
	Edges      int    `json:"edges"`
	Touched    int    `json:"touched"`
	Notified   int    `json:"notified"`
	PlanSeeded bool   `json:"plan_seeded"`
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req deltaRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("decoding request body: %v", err))
		return
	}
	res, err := s.router.ApplyDelta(name, graph.Delta{
		AddVertices:   req.AddVertices,
		DelVertices:   req.DelVertices,
		AddEdges:      req.AddEdges,
		AddEdgeLabels: req.AddEdgeLabels,
		DelEdges:      req.DelEdges,
	})
	if err != nil {
		switch {
		case errors.Is(err, ErrUnknownGraph):
			writeError(w, http.StatusNotFound, "unknown_graph", err.Error())
		case errors.Is(err, ErrGraphSwapped):
			// The batch lost against a concurrent swap: the snapshot it was
			// computed over is gone. Retrying against the new graph is the
			// client's call, hence 409 rather than 5xx.
			writeError(w, http.StatusConflict, "conflict", err.Error())
		default:
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, deltaResponse{
		Graph:      name,
		Epoch:      res.Epoch,
		Vertices:   res.Vertices,
		Edges:      res.Edges,
		Touched:    res.Touched,
		Notified:   res.Notified,
		PlanSeeded: res.PlanSeeded,
	})
}

// subscribeLine is one NDJSON line of GET .../subscribe. The first line has
// subscribed set (with the registration epoch); every committed batch after
// that is a line with its epoch and the added/removed embeddings (both
// empty for a batch that did not affect the query — an epoch heartbeat);
// the last line has closed set with the terminal reason.
type subscribeLine struct {
	Subscribed bool              `json:"subscribed,omitempty"`
	Graph      string            `json:"graph,omitempty"`
	Query      string            `json:"query,omitempty"`
	Epoch      uint64            `json:"epoch"`
	Added      []graph.Embedding `json:"added,omitempty"`
	Removed    []graph.Embedding `json:"removed,omitempty"`
	Closed     bool              `json:"closed,omitempty"`
	Reason     string            `json:"reason,omitempty"`
}

// subscribeCloseReason labels the terminal line of a subscription stream.
func subscribeCloseReason(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrGraphSwapped):
		return "swapped"
	case errors.Is(err, ErrUnknownGraph):
		return "removed"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, ErrSubscriptionClosed):
		return "closed"
	}
	return "error"
}

// handleSubscribe registers a standing query (named via ?query=, resolved
// through ServerOptions.QueryByName) and streams its MatchDeltas as NDJSON
// until the client disconnects or the graph is swapped or removed. The
// stream's epochs are exactly the graph's committed epochs from the
// subscription point on, in order, one line each.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	qname := r.URL.Query().Get("query")
	if qname == "" {
		writeError(w, http.StatusBadRequest, "bad_request", `subscribe needs a named query: ?query=...`)
		return
	}
	if s.opts.QueryByName == nil {
		writeError(w, http.StatusBadRequest, "bad_request", "named queries are not enabled on this server")
		return
	}
	q, err := s.opts.QueryByName(qname)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	// A server Shutdown must end this stream too: the subscription's
	// context is the request's, cancelled early when the drain starts.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stopAfter := context.AfterFunc(s.drainCtx, cancel)
	defer stopAfter()

	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// The drain goroutine writes MatchDelta lines while this handler writes
	// the first and last lines: mu serializes the encoder, ready holds
	// deliveries back until the subscribed line is out.
	var mu sync.Mutex
	ready := make(chan struct{})
	sub, err := s.router.Subscribe(ctx, name, q, func(md MatchDelta) error {
		<-ready
		mu.Lock()
		defer mu.Unlock()
		if err := enc.Encode(subscribeLine{Epoch: md.Epoch, Added: md.Added, Removed: md.Removed}); err != nil {
			return err // client went away: terminate the subscription
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, ErrUnknownGraph) {
			writeError(w, http.StatusNotFound, "unknown_graph", err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	mu.Lock()
	_ = enc.Encode(subscribeLine{Subscribed: true, Graph: name, Query: qname, Epoch: sub.Epoch()})
	if flusher != nil {
		flusher.Flush()
	}
	mu.Unlock()
	close(ready)

	err = sub.Wait() // client disconnect or server drain ends this
	reason := subscribeCloseReason(err)
	if errors.Is(err, context.Canceled) && s.drainCtx.Err() != nil && r.Context().Err() == nil {
		reason = "draining" // the server ended the stream, not the client
	}
	mu.Lock()
	_ = enc.Encode(subscribeLine{Closed: true, Reason: reason})
	if flusher != nil {
		flusher.Flush()
	}
	mu.Unlock()
}

// graphInfo is one entry of GET /v1/graphs.
type graphInfo struct {
	Name  string     `json:"name"`
	Stats GraphStats `json:"stats"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	stats := s.router.Stats()
	names := s.router.Graphs()
	out := make([]graphInfo, 0, len(names))
	for _, name := range names {
		out = append(out, graphInfo{Name: name, Stats: stats[name]})
	}
	writeJSON(w, http.StatusOK, struct {
		Graphs []graphInfo `json:"graphs"`
	}{out})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	st, ok := s.router.Stats()[name]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_graph", fmt.Sprintf("fast: no graph %q", name))
		return
	}
	writeJSON(w, http.StatusOK, graphInfo{Name: name, Stats: st})
}

func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	g, err := graph.ReadBinary(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if err := s.router.SwapGraph(name, g); err != nil {
		if errors.Is(err, ErrUnknownGraph) {
			writeError(w, http.StatusNotFound, "unknown_graph", err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Graph    string `json:"graph"`
		Swapped  bool   `json:"swapped"`
		Vertices int    `json:"vertices"`
		Edges    int    `json:"edges"`
	}{name, true, g.NumVertices(), g.NumEdges()})
}

// handleMetrics renders Router.Stats in Prometheus text exposition format.
// Metric names are stable API: the serving dashboards and the CI smoke test
// key on them.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	stats := s.router.Stats()
	names := s.router.Graphs()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")

	counter := func(metric, help string, value func(GraphStats) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", metric, help, metric)
		for _, name := range names {
			fmt.Fprintf(w, "%s{graph=%q} %d\n", metric, name, value(stats[name]))
		}
	}
	gauge := func(metric, help string, value func(GraphStats) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", metric, help, metric)
		for _, name := range names {
			fmt.Fprintf(w, "%s{graph=%q} %g\n", metric, name, value(stats[name]))
		}
	}

	counter("fastmatch_calls_total", "Routed queries served (batch queries count individually).",
		func(s GraphStats) int64 { return s.Calls })
	counter("fastmatch_partials_total", "Served queries that returned a partial result.",
		func(s GraphStats) int64 { return s.Partials })
	counter("fastmatch_failures_total", "Served queries that failed outright.",
		func(s GraphStats) int64 { return s.Failures })
	counter("fastmatch_admitted_total", "Calls granted a worker-budget slot (a batch is one call).",
		func(s GraphStats) int64 { return s.Admitted })
	counter("fastmatch_shed_queue_full_total", "Calls shed on arrival: admission queue full.",
		func(s GraphStats) int64 { return s.ShedQueueFull })
	counter("fastmatch_shed_deadline_doomed_total", "Calls shed on arrival: deadline cannot survive the queue.",
		func(s GraphStats) int64 { return s.ShedDoomed })
	counter("fastmatch_queue_timeouts_total", "Calls whose deadline fired while queued for admission.",
		func(s GraphStats) int64 { return s.QueueTimeouts })
	counter("fastmatch_breaker_opens_total", "Circuit-breaker trips (including re-opens after a failed probe).",
		func(s GraphStats) int64 { return s.BreakerOpens })
	counter("fastmatch_shed_breaker_open_total", "Calls shed because the tenant's circuit breaker was open.",
		func(s GraphStats) int64 { return s.ShedBreakerOpen })
	counter("fastmatch_swaps_total", "SwapGraph replacements since AddGraph.",
		func(s GraphStats) int64 { return s.Swaps })
	counter("fastmatch_deltas_total", "ApplyDelta batches committed since AddGraph/SwapGraph.",
		func(s GraphStats) int64 { return s.Deltas })
	counter("fastmatch_notifications_total", "MatchDeltas delivered to standing queries.",
		func(s GraphStats) int64 { return s.Notifications })
	gauge("fastmatch_subscriptions", "Standing queries currently registered.",
		func(s GraphStats) float64 { return float64(s.Subscriptions) })
	gauge("fastmatch_epoch", "Current graph epoch (0 = as added/swapped).",
		func(s GraphStats) float64 { return float64(s.Epoch) })
	gauge("fastmatch_queue_depth", "Calls currently waiting for admission.",
		func(s GraphStats) float64 { return float64(s.QueueDepth) })
	gauge("fastmatch_budget_weight", "Tenant's weighted share of the worker budget.",
		func(s GraphStats) float64 { return float64(s.Weight) })
	gauge("fastmatch_breaker_state", "Circuit-breaker state (0 closed, 0.5 half-open, 1 open).",
		func(s GraphStats) float64 {
			switch s.BreakerState {
			case breakerOpen:
				return 1
			case breakerHalfOpen:
				return 0.5
			}
			return 0
		})

	fmt.Fprintf(w, "# HELP fastmatch_latency_seconds Service latency of admitted calls (log2-bucket upper bounds).\n# TYPE fastmatch_latency_seconds summary\n")
	for _, name := range names {
		st := stats[name]
		fmt.Fprintf(w, "fastmatch_latency_seconds{graph=%q,quantile=\"0.5\"} %g\n", name, st.P50Latency.Seconds())
		fmt.Fprintf(w, "fastmatch_latency_seconds{graph=%q,quantile=\"0.99\"} %g\n", name, st.P99Latency.Seconds())
		fmt.Fprintf(w, "fastmatch_latency_seconds_count{graph=%q} %d\n", name, st.Admitted)
	}
	fmt.Fprintf(w, "# HELP fastmatch_worker_budget Shared worker budget capacity.\n# TYPE fastmatch_worker_budget gauge\nfastmatch_worker_budget %d\n", s.router.Workers())
	fmt.Fprintf(w, "# HELP fastmatch_panics_total Handler panics recovered by the serving middleware.\n# TYPE fastmatch_panics_total counter\nfastmatch_panics_total %d\n", s.panics.Load())
}
