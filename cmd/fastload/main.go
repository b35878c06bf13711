// Command fastload replays an open-loop, multi-client workload against a
// fastserve instance and reports client-observed latency and shed rates.
// Open-loop means arrivals follow the configured rate regardless of how
// fast the server answers — the arrival process does not slow down to hide
// queueing, so saturation shows up as shed responses and latency growth
// instead of a silently throttled client.
//
// Usage:
//
//	fastload -url http://localhost:8080 -graph social -queries q1,q2 -rps 50 -duration 10s
//	fastload -graph hot -rps 200 -timeout-ms 100 -json load.json
//
// -json writes the serving record (latency histogram, shed rates) to a file.
// -faults additionally scrapes the server's fault-tolerance counters
// (recovered panics, circuit-breaker trips and sheds) from /metrics into a
// "faults" column after the run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

type shot struct {
	latency time.Duration
	status  int
	reason  string
	err     bool
}

type quantiles struct {
	P50NS int64 `json:"p50_ns"`
	P90NS int64 `json:"p90_ns"`
	P99NS int64 `json:"p99_ns"`
	MaxNS int64 `json:"max_ns"`
}

// histBucket is one log₂ latency bucket: count of responses with latency
// <= le_ns (per-bucket, not cumulative).
type histBucket struct {
	LeNS  int64 `json:"le_ns"`
	Count int64 `json:"count"`
}

// servingRecord is the JSON this run appends under "serving".
type servingRecord struct {
	URL        string  `json:"url"`
	Graph      string  `json:"graph"`
	Queries    string  `json:"queries"`
	RPS        float64 `json:"rps"`
	DurationNS int64   `json:"duration_ns"`
	TimeoutMS  int64   `json:"timeout_ms,omitempty"`
	Limit      int64   `json:"limit,omitempty"`

	Sent            int64        `json:"sent"`
	OK              int64        `json:"ok"`
	Partial         int64        `json:"partial"`
	ShedQueueFull   int64        `json:"shed_queue_full"`
	ShedDoomed      int64        `json:"shed_deadline_doomed"`
	QueueTimeouts   int64        `json:"queue_timeouts"`
	ShedBreakerOpen int64        `json:"shed_breaker_open,omitempty"`
	OtherErrors     int64        `json:"other_errors"`
	ShedRate        float64      `json:"shed_rate"`
	AchievedRPS     float64      `json:"achieved_rps"`
	Latency         quantiles    `json:"latency"`
	LatencyHist     []histBucket `json:"latency_hist"`

	// Faults is the server's fault-tolerance counters scraped from /metrics
	// after the run (-faults); nil when scraping is off.
	Faults *faultsRecord `json:"faults,omitempty"`
}

// faultsRecord is the -faults column: the server-side fault-tolerance
// counters after the run, from /metrics.
type faultsRecord struct {
	Panics       int64 `json:"panics"`
	BreakerOpens int64 `json:"breaker_opens"`
	BreakerShed  int64 `json:"breaker_shed"`
}

func main() {
	var (
		url       = flag.String("url", "http://localhost:8080", "fastserve base URL")
		graphName = flag.String("graph", "social", "graph to query")
		queries   = flag.String("queries", "q1,q2,q3", "comma-separated named queries, issued round-robin")
		rps       = flag.Float64("rps", 20, "open-loop arrival rate, requests per second")
		duration  = flag.Duration("duration", 5*time.Second, "how long to keep arriving")
		timeoutMS = flag.Int64("timeout-ms", 0, "per-request timeout_ms field; 0 = none")
		limit     = flag.Int64("limit", 0, "per-request embedding limit; 0 = unlimited")
		jsonOut   = flag.String("json", "", "write the serving record to this file")
		faults    = flag.Bool("faults", false, "scrape the server's fault-tolerance counters (/metrics) into the record after the run")
	)
	flag.Parse()
	if *rps <= 0 || *duration <= 0 {
		fmt.Fprintln(os.Stderr, "fastload: -rps and -duration must be positive")
		os.Exit(2)
	}

	names := strings.Split(*queries, ",")
	bodies := make([][]byte, len(names))
	for i, name := range names {
		req := map[string]any{"query": strings.TrimSpace(name)}
		if *timeoutMS > 0 {
			req["timeout_ms"] = *timeoutMS
		}
		if *limit > 0 {
			req["limit"] = *limit
		}
		bodies[i], _ = json.Marshal(req)
	}
	target := strings.TrimRight(*url, "/") + "/v1/graphs/" + *graphName + "/count"
	client := &http.Client{} // per-request deadlines come from timeout_ms server-side

	// Open loop: a ticker fires arrivals at the configured rate; every
	// arrival gets its own goroutine so a slow response never delays the
	// next arrival.
	interval := time.Duration(float64(time.Second) / *rps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		shots []shot
	)
	start := time.Now()
	tick := time.NewTicker(interval)
	for i := 0; time.Since(start) < *duration; i++ {
		body := bodies[i%len(bodies)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := fire(client, target, body)
			mu.Lock()
			shots = append(shots, s)
			mu.Unlock()
		}()
		<-tick.C
	}
	tick.Stop()
	wg.Wait()
	elapsed := time.Since(start)

	rec := summarize(shots, elapsed)
	rec.URL, rec.Graph, rec.Queries = *url, *graphName, *queries
	rec.RPS, rec.DurationNS = *rps, elapsed.Nanoseconds()
	rec.TimeoutMS, rec.Limit = *timeoutMS, *limit
	if *faults {
		fr, err := scrapeFaults(client, strings.TrimRight(*url, "/")+"/metrics")
		if err != nil {
			fmt.Fprintln(os.Stderr, "fastload: scraping /metrics:", err)
			os.Exit(1)
		}
		rec.Faults = fr
	}

	report(os.Stdout, rec)
	if *jsonOut != "" {
		if err := writeJSONFile(*jsonOut, rec); err != nil {
			fmt.Fprintln(os.Stderr, "fastload:", err)
			os.Exit(1)
		}
	}
	if rec.OtherErrors > 0 {
		os.Exit(1)
	}
}

// fire issues one request and classifies the outcome. Shed replies carry
// their machine-readable reason in the JSON envelope; transport errors and
// unexpected statuses count as other_errors.
func fire(client *http.Client, target string, body []byte) shot {
	start := time.Now()
	resp, err := client.Post(target, "application/json", bytes.NewReader(body))
	if err != nil {
		return shot{latency: time.Since(start), err: true}
	}
	defer resp.Body.Close()
	var payload struct {
		Partial bool   `json:"partial"`
		Reason  string `json:"reason"`
	}
	decodeErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&payload)
	s := shot{latency: time.Since(start), status: resp.StatusCode, reason: payload.Reason}
	if decodeErr != nil || (resp.StatusCode != http.StatusOK && payload.Reason == "") {
		s.err = true
		return s
	}
	if resp.StatusCode == http.StatusOK && payload.Partial && payload.Reason != "limit" {
		s.reason = "partial"
	}
	return s
}

// scrapeFaults pulls the fault-tolerance counters from the server's
// Prometheus exposition: recovered handler panics, circuit-breaker trips
// and breaker sheds (the latter two summed across graphs).
func scrapeFaults(client *http.Client, metricsURL string) (*faultsRecord, error) {
	resp, err := client.Get(metricsURL)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", metricsURL, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	var fr faultsRecord
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(fields[1], "%d", &v); err != nil {
			continue
		}
		metric, _, _ := strings.Cut(fields[0], "{")
		switch metric {
		case "fastmatch_panics_total":
			fr.Panics += v
		case "fastmatch_breaker_opens_total":
			fr.BreakerOpens += v
		case "fastmatch_shed_breaker_open_total":
			fr.BreakerShed += v
		}
	}
	return &fr, nil
}

func summarize(shots []shot, elapsed time.Duration) servingRecord {
	rec := servingRecord{Sent: int64(len(shots))}
	latencies := make([]time.Duration, 0, len(shots))
	histCounts := map[int]int64{}
	for _, s := range shots {
		latencies = append(latencies, s.latency)
		histCounts[bits.Len64(uint64(max(s.latency.Microseconds(), 1)))]++
		switch {
		case s.err:
			rec.OtherErrors++
		case s.status == http.StatusOK:
			rec.OK++
			if s.reason == "partial" {
				rec.Partial++
			}
		case s.reason == "queue_full":
			rec.ShedQueueFull++
		case s.reason == "deadline_doomed":
			rec.ShedDoomed++
		case s.reason == "queue_timeout":
			rec.QueueTimeouts++
		case s.reason == "breaker_open":
			rec.ShedBreakerOpen++
		default:
			rec.OtherErrors++
		}
	}
	if rec.Sent > 0 {
		rec.ShedRate = float64(rec.ShedQueueFull+rec.ShedDoomed+rec.QueueTimeouts+rec.ShedBreakerOpen) / float64(rec.Sent)
		rec.AchievedRPS = float64(rec.Sent) / elapsed.Seconds()
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	q := func(p float64) int64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i].Nanoseconds()
	}
	rec.Latency = quantiles{P50NS: q(0.50), P90NS: q(0.90), P99NS: q(0.99), MaxNS: q(1)}
	buckets := make([]int, 0, len(histCounts))
	for b := range histCounts {
		buckets = append(buckets, b)
	}
	sort.Ints(buckets)
	for _, b := range buckets {
		le := time.Duration(int64(1)<<uint(b)) * time.Microsecond
		rec.LatencyHist = append(rec.LatencyHist, histBucket{LeNS: le.Nanoseconds(), Count: histCounts[b]})
	}
	return rec
}

func report(w io.Writer, rec servingRecord) {
	fmt.Fprintf(w, "fastload %s graph=%s rps=%g for %v\n",
		rec.URL, rec.Graph, rec.RPS, time.Duration(rec.DurationNS).Round(time.Millisecond))
	fmt.Fprintf(w, "  sent %d  ok %d (partial %d)  shed %d (queue_full %d, doomed %d, queue_timeout %d, breaker %d)  errors %d\n",
		rec.Sent, rec.OK, rec.Partial,
		rec.ShedQueueFull+rec.ShedDoomed+rec.QueueTimeouts+rec.ShedBreakerOpen,
		rec.ShedQueueFull, rec.ShedDoomed, rec.QueueTimeouts, rec.ShedBreakerOpen, rec.OtherErrors)
	fmt.Fprintf(w, "  achieved %.1f req/s  shed rate %.1f%%  latency p50 %v  p90 %v  p99 %v  max %v\n",
		rec.AchievedRPS, rec.ShedRate*100,
		time.Duration(rec.Latency.P50NS).Round(time.Microsecond),
		time.Duration(rec.Latency.P90NS).Round(time.Microsecond),
		time.Duration(rec.Latency.P99NS).Round(time.Microsecond),
		time.Duration(rec.Latency.MaxNS).Round(time.Microsecond))
	if rec.Faults != nil {
		fmt.Fprintf(w, "  server faults: panics %d  breaker opens %d  breaker shed %d\n",
			rec.Faults.Panics, rec.Faults.BreakerOpens, rec.Faults.BreakerShed)
	}
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
