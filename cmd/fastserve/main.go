// Command fastserve runs the HTTP/JSON serving front end over a
// fast.Router: named LDBC queries or explicit label/edge queries against
// one or more registered graphs, behind deadline-aware admission control.
//
// Usage:
//
//	fastserve -addr :8080 -graphs social
//	fastserve -graphs hot=DG03@3,cold=DG01 -workers 8 -maxqueue 128
//	fastserve -graphs prod=/data/prod.bin -base 400 -seed 42
//
// Each -graphs entry is name[=source][@weight]:
//
//	name            generate an LDBC graph (-sf/-base/-seed; seeds step by
//	                one per generated graph so names differ)
//	name=DG01       an LDBC dataset preset (DG01, DG03, DG10, DG60)
//	name=path.bin   a graph.WriteBinary file
//	@weight         the tenant's share weight of the worker budget (>= 1)
//
// Endpoints, request shapes and the /metrics exposition are documented on
// fast.Server; queries named in requests resolve through ldbc.QueryByName.
//
// SIGINT or SIGTERM drains gracefully: the listener stops accepting, new
// requests are refused with 503 "draining", standing subscription streams
// close with a "draining" line, and in-flight requests get up to
// -drain-timeout to finish before the process exits. A second signal exits
// immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	fast "fastmatch"
	"fastmatch/graph"
	"fastmatch/ldbc"
)

// Connection timeouts. A client gets readHeaderTimeout to send its request
// headers and an idle keep-alive connection is closed after idleTimeout, so
// a slow or silent client cannot hold a connection open forever. There is
// deliberately no ReadTimeout or WriteTimeout: both would bound a whole
// exchange, cutting off large graph uploads, NDJSON match streams and
// standing subscriptions.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		graphs   = flag.String("graphs", "social", "comma-separated graphs to serve: name[=dataset|=path.bin][@weight]")
		workers  = flag.Int("workers", 0, "shared worker budget (default GOMAXPROCS)")
		maxQueue = flag.Int("maxqueue", 0, "per-tenant admission queue bound (0 = default, negative disables queuing)")
		timeout  = flag.Duration("timeout", 0, "default per-call timeout applied as every tenant's SLO ceiling; 0 = none")
		sf       = flag.Float64("sf", 1, "LDBC scale factor for generated graphs")
		base     = flag.Int("base", 0, "BasePersons scale knob for generated graphs (default 200)")
		seed     = flag.Int64("seed", 42, "generator seed for generated graphs")
		drain    = flag.Duration("drain-timeout", 15*time.Second, "how long a SIGINT/SIGTERM drain waits for in-flight requests")
		breaker  = flag.Int("breaker", 0, "per-tenant circuit-breaker threshold: consecutive hard failures that trip it (0 = default, negative disables)")
	)
	flag.Parse()

	router := fast.NewRouter(fast.RouterOptions{
		Workers:  *workers,
		MaxQueue: *maxQueue,
		Breaker:  fast.BreakerOptions{Threshold: *breaker},
	})
	genSeed := *seed
	for _, spec := range strings.Split(*graphs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, source, weight, err := parseSpec(spec)
		if err != nil {
			log.Fatalf("fastserve: -graphs %q: %v", spec, err)
		}
		g, desc, err := loadGraph(source, *sf, *base, genSeed)
		if err != nil {
			log.Fatalf("fastserve: graph %s: %v", name, err)
		}
		if source == "" {
			genSeed++
		}
		var defaults []fast.MatchOption
		if weight > 0 {
			defaults = append(defaults, fast.WithWeight(weight))
		}
		if *timeout > 0 {
			defaults = append(defaults, fast.WithTimeout(*timeout))
		}
		if err := router.AddGraph(name, g, nil, defaults...); err != nil {
			log.Fatalf("fastserve: %v", err)
		}
		log.Printf("serving %s: %s (%d vertices, %d edges, weight %d)",
			name, desc, g.NumVertices(), g.NumEdges(), max(weight, 1))
	}
	if len(router.Graphs()) == 0 {
		fmt.Fprintln(os.Stderr, "fastserve: no graphs to serve")
		os.Exit(2)
	}

	server := fast.NewServer(router, fast.ServerOptions{QueryByName: ldbc.QueryByName})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           server,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	// Graceful drain on SIGINT/SIGTERM: stop accepting, let the fast.Server
	// refuse new work and finish what is in flight, then exit. A second
	// signal aborts the drain immediately.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		sig := <-sigs
		log.Printf("received %s: draining (up to %s; signal again to abort)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		go func() {
			<-sigs
			log.Print("second signal: aborting drain")
			cancel()
		}()
		if err := server.Shutdown(ctx); err != nil {
			log.Printf("drain incomplete: %v", err)
		}
		// Close the listener after the app-level drain so in-flight
		// responses are written before connections go away.
		if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("http shutdown: %v", err)
		}
		close(drained)
	}()

	log.Printf("listening on %s (%d workers)", *addr, router.Workers())
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-drained
	log.Print("drained; exiting")
}

// parseSpec splits name[=source][@weight].
func parseSpec(spec string) (name, source string, weight int, err error) {
	if at := strings.LastIndex(spec, "@"); at >= 0 {
		w, err := strconv.Atoi(spec[at+1:])
		if err != nil || w < 1 {
			return "", "", 0, fmt.Errorf("weight %q: want an integer >= 1", spec[at+1:])
		}
		weight, spec = w, spec[:at]
	}
	name, source, _ = strings.Cut(spec, "=")
	if name == "" {
		return "", "", 0, fmt.Errorf("empty graph name")
	}
	return name, source, weight, nil
}

// loadGraph resolves a -graphs source: empty generates, a dataset name uses
// its preset, anything else reads a binary graph file.
func loadGraph(source string, sf float64, base int, seed int64) (*graph.Graph, string, error) {
	if source == "" {
		cfg := ldbc.Config{ScaleFactor: sf, BasePersons: base, Seed: seed}
		return ldbc.Generate(cfg), fmt.Sprintf("generated sf=%g seed=%d", sf, seed), nil
	}
	for _, preset := range ldbc.DatasetNames() {
		if source == preset {
			cfg, err := ldbc.Dataset(source)
			if err != nil {
				return nil, "", err
			}
			return ldbc.Generate(cfg), "dataset " + source, nil
		}
	}
	f, err := os.Open(source)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	g, err := graph.ReadBinary(f)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", source, err)
	}
	return g, "file " + source, nil
}
