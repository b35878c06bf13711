// Command fastmutate replays a randomized delta workload against a
// fastserve instance and reports mutation throughput and continuous-query
// notification latency. It regenerates the server's graph locally (same
// generator flags as fastserve) and maintains that mirror through every
// batch it sends, so each batch is valid against the server's current epoch
// without ever reading the graph back.
//
// A standing query is held open over NDJSON for the whole run; notification
// latency is the time from just before a batch's POST to the arrival of the
// subscription line carrying that batch's epoch — admission, commit,
// changed-edge match and delivery included.
//
// Usage:
//
//	fastmutate -url http://localhost:8080 -graph social -query q1 -batches 200 -rate 50
//	fastmutate -graph social -seed 42 -base 200 -json mutate.json
//
// -json writes the mutation record to a file.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"fastmatch/graph"
	"fastmatch/ldbc"
)

type quantiles struct {
	P50NS int64 `json:"p50_ns"`
	P90NS int64 `json:"p90_ns"`
	P99NS int64 `json:"p99_ns"`
	MaxNS int64 `json:"max_ns"`
}

// mutationRecord is the JSON this run appends under "mutation".
type mutationRecord struct {
	URL     string  `json:"url"`
	Graph   string  `json:"graph"`
	Query   string  `json:"query"`
	Batches int     `json:"batches"`
	Rate    float64 `json:"rate"`

	Committed  int64 `json:"committed"`
	Conflicts  int64 `json:"conflicts"`
	Errors     int64 `json:"errors"`
	Ops        int64 `json:"ops"`
	FinalEpoch int64 `json:"final_epoch"`

	AchievedBatchesPerSec float64 `json:"achieved_batches_per_sec"`
	AchievedOpsPerSec     float64 `json:"achieved_ops_per_sec"`

	ApplyLatency quantiles `json:"apply_latency"`
	// NotifyLatency covers send→matching-epoch-line; Notified is how many
	// epochs the standing query reported back within the drain window.
	NotifyLatency quantiles `json:"notify_latency"`
	Notified      int64     `json:"notified"`
}

func main() {
	var (
		url       = flag.String("url", "http://localhost:8080", "fastserve base URL")
		graphName = flag.String("graph", "social", "graph to mutate")
		query     = flag.String("query", "q1", "named standing query to subscribe with")
		batches   = flag.Int("batches", 200, "delta batches to send")
		rate      = flag.Float64("rate", 50, "batch arrival rate per second (0 = as fast as acked)")
		sf        = flag.Float64("sf", 1, "LDBC scale factor of the server's generated graph")
		base      = flag.Int("base", 0, "BasePersons knob of the server's generated graph")
		seed      = flag.Int64("seed", 42, "generator seed of the server's generated graph")
		opSeed    = flag.Int64("opseed", 1, "randomized workload seed")
		jsonOut   = flag.String("json", "", "write the mutation record to this file")
	)
	flag.Parse()
	if *batches <= 0 {
		fmt.Fprintln(os.Stderr, "fastmutate: -batches must be positive")
		os.Exit(2)
	}

	mirror := ldbc.Generate(ldbc.Config{ScaleFactor: *sf, BasePersons: *base, Seed: *seed})
	baseURL := strings.TrimRight(*url, "/")
	client := &http.Client{}

	// Standing query: one NDJSON stream for the whole run, recording when
	// each epoch's line lands.
	var (
		lineMu    sync.Mutex
		lineAt    = map[int64]time.Time{}
		subClosed = make(chan error, 1)
	)
	resp, err := client.Get(baseURL + "/v1/graphs/" + *graphName + "/subscribe?query=" + *query)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fastmutate: subscribe:", err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fmt.Fprintf(os.Stderr, "fastmutate: subscribe: status %d: %s\n", resp.StatusCode, body)
		os.Exit(1)
	}
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 16<<20)
		for sc.Scan() {
			var line struct {
				Epoch  int64 `json:"epoch"`
				Closed bool  `json:"closed"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				continue
			}
			if line.Closed {
				break
			}
			if line.Epoch > 0 {
				lineMu.Lock()
				lineAt[line.Epoch] = time.Now()
				lineMu.Unlock()
			}
		}
		subClosed <- sc.Err()
	}()

	rng := rand.New(rand.NewSource(*opSeed))
	var (
		rec      mutationRecord
		applyLat []time.Duration
		sendAt   = map[int64]time.Time{}
	)
	var interval time.Duration
	if *rate > 0 {
		interval = time.Duration(float64(time.Second) / *rate)
	}
	start := time.Now()
	next := start
	for i := 0; i < *batches; i++ {
		if interval > 0 {
			time.Sleep(time.Until(next))
			next = next.Add(interval)
		}
		d := randomBatch(rng, mirror)
		body, _ := json.Marshal(map[string]any{
			"add_vertices":    d.AddVertices,
			"del_vertices":    d.DelVertices,
			"add_edges":       d.AddEdges,
			"add_edge_labels": d.AddEdgeLabels,
			"del_edges":       d.DelEdges,
		})
		sent := time.Now()
		epoch, status, err := postDelta(client, baseURL+"/v1/graphs/"+*graphName+"/delta", body)
		took := time.Since(sent)
		switch {
		case err != nil || status != http.StatusOK && status != http.StatusConflict:
			rec.Errors++
			fmt.Fprintf(os.Stderr, "fastmutate: batch %d: status %d err %v\n", i, status, err)
		case status == http.StatusConflict:
			rec.Conflicts++ // graph swapped under us: the mirror is stale, stop
			fmt.Fprintf(os.Stderr, "fastmutate: batch %d: conflict (graph swapped), stopping\n", i)
		default:
			rec.Committed++
			rec.Ops += int64(d.Ops())
			rec.FinalEpoch = epoch
			applyLat = append(applyLat, took)
			sendAt[epoch] = sent
			if mirror, _, err = mirror.ApplyDelta(d); err != nil {
				fmt.Fprintf(os.Stderr, "fastmutate: mirror diverged: %v\n", err)
				os.Exit(1)
			}
		}
		if rec.Conflicts > 0 {
			break
		}
	}
	elapsed := time.Since(start)

	// Give the subscription a moment to drain the last epochs, then join
	// send times with line arrivals.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		lineMu.Lock()
		_, ok := lineAt[rec.FinalEpoch]
		lineMu.Unlock()
		if ok || rec.FinalEpoch == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	var notifyLat []time.Duration
	lineMu.Lock()
	for epoch, sent := range sendAt {
		if at, ok := lineAt[epoch]; ok {
			notifyLat = append(notifyLat, at.Sub(sent))
		}
	}
	lineMu.Unlock()
	rec.Notified = int64(len(notifyLat))

	rec.URL, rec.Graph, rec.Query = *url, *graphName, *query
	rec.Batches, rec.Rate = *batches, *rate
	if elapsed > 0 {
		rec.AchievedBatchesPerSec = float64(rec.Committed) / elapsed.Seconds()
		rec.AchievedOpsPerSec = float64(rec.Ops) / elapsed.Seconds()
	}
	rec.ApplyLatency = summarize(applyLat)
	rec.NotifyLatency = summarize(notifyLat)

	report(os.Stdout, rec)
	if *jsonOut != "" {
		if err := writeJSONFile(*jsonOut, rec); err != nil {
			fmt.Fprintln(os.Stderr, "fastmutate:", err)
			os.Exit(1)
		}
	}
	if rec.Errors > 0 {
		os.Exit(1)
	}
}

// postDelta sends one batch and returns the committed epoch (0 on non-200).
func postDelta(client *http.Client, target string, body []byte) (int64, int, error) {
	resp, err := client.Post(target, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var payload struct {
		Epoch int64 `json:"epoch"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&payload); err != nil && resp.StatusCode == http.StatusOK {
		return 0, resp.StatusCode, err
	}
	return payload.Epoch, resp.StatusCode, nil
}

// randomBatch builds one valid batch against mirror: wire in a new vertex,
// tombstone a vertex, or flip an edge. Mirroring Router-side validation
// locally keeps the server's 400 path cold — every batch should commit.
func randomBatch(rng *rand.Rand, mirror *graph.Graph) graph.Delta {
	live := make([]graph.VertexID, 0, mirror.NumVertices())
	for v := 0; v < mirror.NumVertices(); v++ {
		if !mirror.Deleted(graph.VertexID(v)) {
			live = append(live, graph.VertexID(v))
		}
	}
	pick := func() graph.VertexID { return live[rng.Intn(len(live))] }
	for {
		switch rng.Intn(5) {
		case 0: // new vertex wired to 1–3 live vertices
			n := graph.VertexID(mirror.NumVertices())
			d := graph.Delta{AddVertices: []graph.Label{graph.Label(rng.Intn(mirror.NumLabels()))}}
			seen := map[graph.VertexID]bool{}
			for i := 0; i < 1+rng.Intn(3); i++ {
				w := pick()
				if !seen[w] {
					seen[w] = true
					d.AddEdges = append(d.AddEdges, [2]graph.VertexID{n, w})
				}
			}
			return d
		case 1: // tombstone a vertex, but never drain the graph
			if len(live) < mirror.NumVertices()*3/4 {
				continue
			}
			return graph.Delta{DelVertices: []graph.VertexID{pick()}}
		case 2, 3: // add a missing edge (weighted up to offset deletes)
			for tries := 0; tries < 20; tries++ {
				u, w := pick(), pick()
				if u != w && !mirror.HasEdge(u, w) {
					return graph.Delta{AddEdges: [][2]graph.VertexID{{u, w}}}
				}
			}
		case 4: // delete an existing edge
			for tries := 0; tries < 20; tries++ {
				u := pick()
				if nbrs := mirror.Neighbors(u); len(nbrs) > 0 {
					return graph.Delta{DelEdges: [][2]graph.VertexID{{u, nbrs[rng.Intn(len(nbrs))]}}}
				}
			}
		}
	}
}

func summarize(lats []time.Duration) quantiles {
	if len(lats) == 0 {
		return quantiles{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) int64 {
		return lats[int(p*float64(len(lats)-1))].Nanoseconds()
	}
	return quantiles{P50NS: q(0.50), P90NS: q(0.90), P99NS: q(0.99), MaxNS: q(1)}
}

func report(w io.Writer, rec mutationRecord) {
	fmt.Fprintf(w, "fastmutate %s graph=%s query=%s batches=%d rate=%g\n",
		rec.URL, rec.Graph, rec.Query, rec.Batches, rec.Rate)
	fmt.Fprintf(w, "  committed %d (%d ops)  conflicts %d  errors %d  final epoch %d\n",
		rec.Committed, rec.Ops, rec.Conflicts, rec.Errors, rec.FinalEpoch)
	fmt.Fprintf(w, "  throughput %.1f batches/s (%.1f ops/s)\n", rec.AchievedBatchesPerSec, rec.AchievedOpsPerSec)
	fmt.Fprintf(w, "  apply  p50 %v  p90 %v  p99 %v  max %v\n",
		time.Duration(rec.ApplyLatency.P50NS).Round(time.Microsecond),
		time.Duration(rec.ApplyLatency.P90NS).Round(time.Microsecond),
		time.Duration(rec.ApplyLatency.P99NS).Round(time.Microsecond),
		time.Duration(rec.ApplyLatency.MaxNS).Round(time.Microsecond))
	fmt.Fprintf(w, "  notify p50 %v  p90 %v  p99 %v  max %v  (%d/%d epochs seen)\n",
		time.Duration(rec.NotifyLatency.P50NS).Round(time.Microsecond),
		time.Duration(rec.NotifyLatency.P90NS).Round(time.Microsecond),
		time.Duration(rec.NotifyLatency.P99NS).Round(time.Microsecond),
		time.Duration(rec.NotifyLatency.MaxNS).Round(time.Microsecond),
		rec.Notified, rec.Committed)
}

func writeJSONFile(path string, v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
