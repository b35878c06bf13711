// Command fastbench regenerates the paper's tables and figures, and runs
// the machine-readable matching benchmark that feeds BENCH_*.json
// trajectory tracking.
//
// Usage:
//
//	fastbench -list
//	fastbench -exp fig14
//	fastbench -exp all -base 200 -timeout 10s -out results.txt
//	fastbench -bench -workers 1,2,4 -variants sep,share -json bench.json
//	fastbench -bench -workers 4 -pworkers 1 -json serial-producer.json
//	fastbench -bench -workers 1,2 -limits 0,1000 -mtimeout 30s -json bench.json
//	fastbench -bench -workers 1 -reps 1 -limits 0,2000 -compare BENCH_pr10.json
//	fastbench -bench -workers 1 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Each experiment prints one or more aligned text tables; EXPERIMENTS.md
// maps them back to the paper's figures and records the expected shapes.
// -bench instead sweeps kernel variants × worker-pool sizes over the LDBC
// queries through fast.Engine and emits one JSON document with per-run
// counts and timings (wall_ns is measured host wall-clock; model_ns the
// pipeline's modelled total).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"fastmatch/internal/exp"
)

func main() {
	var (
		name    = flag.String("exp", "", "experiment to run (see -list), or 'all'")
		list    = flag.Bool("list", false, "list available experiments")
		base    = flag.Int("base", 0, "BasePersons scale knob (default 200)")
		seed    = flag.Int64("seed", 0, "generator seed (default 42)")
		timeout = flag.Duration("timeout", 0, "per-baseline time limit (default 10s)")
		budget  = flag.Int64("gpumem", 0, "GPU memory budget in MB for GSI/GpSM (default 64)")
		queries = flag.String("queries", "", "comma-separated query filter (e.g. q2,q5)")
		out     = flag.String("out", "", "write results to file instead of stdout")
		format  = flag.String("format", "text", "output format: text or csv")

		bench    = flag.Bool("bench", false, "run the JSON matching benchmark instead of an experiment")
		reps     = flag.Int("reps", 0, "measured repetitions per bench cell after warm-up (default 5)")
		workers  = flag.String("workers", "1", "comma-separated worker-pool sizes to sweep (bench mode)")
		pworkers = flag.Int("pworkers", 0, "partition-producer pool size; 0 matches each cell's -workers value (bench mode)")
		variants = flag.String("variants", "share", "comma-separated kernel variants to sweep, or 'all' (bench mode)")
		limits   = flag.String("limits", "0", "comma-separated per-call embedding limits to sweep; 0 = unlimited (bench mode)")
		mtimeout = flag.Duration("mtimeout", 0, "per-call WithTimeout budget for every bench cell; 0 = none (bench mode)")
		graphs   = flag.Int("graphs", 1, "serve this many generated graphs (seeds seed,seed+1,…) concurrently through one Router per cell, measuring cross-tenant contention (bench mode)")
		sf       = flag.Float64("sf", 1, "LDBC scale factor (bench mode)")
		jsonOut  = flag.String("json", "", "write bench JSON to file instead of stdout (bench mode)")
		compare  = flag.String("compare", "", "previous BENCH_*.json: fail on count drift in shared sweep cells (bench mode)")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	)
	flag.Parse()

	// Profiling wraps both modes so perf PRs can attach pprof evidence from
	// the exact workload they claim to speed up. stop() flushes the CPU
	// profile and writes the heap profile; exit routes every error path
	// through it because os.Exit skips deferred calls.
	stop, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fastbench:", err)
		os.Exit(1)
	}
	defer stop()
	exit := func(code int) {
		stop()
		os.Exit(code)
	}

	if *bench {
		cfg := benchConfig{
			ScaleFactor: *sf,
			BasePersons: *base,
			Seed:        *seed,
			Reps:        *reps,
			Workers:     *workers,
			PWorkers:    *pworkers,
			Variants:    *variants,
			Queries:     *queries,
			Limits:      *limits,
			MTimeout:    *mtimeout,
			Graphs:      *graphs,
			Out:         *jsonOut,
			Compare:     *compare,
		}
		if err := runBench(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "fastbench:", err)
			exit(1)
		}
		return
	}

	if *list {
		for _, n := range exp.Names() {
			fmt.Println(n)
		}
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "fastbench: -exp required (or -list); e.g. -exp fig14")
		exit(2)
	}

	cfg := exp.Config{
		BasePersons: *base,
		Seed:        *seed,
		Timeout:     *timeout,
	}
	if *budget > 0 {
		cfg.GPUMemBudget = *budget << 20
	}
	if *queries != "" {
		cfg.Queries = strings.Split(*queries, ",")
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fastbench:", err)
			exit(1)
		}
		defer f.Close()
		w = f
	}

	names := []string{*name}
	if *name == "all" {
		names = exp.Names()
	}
	for _, n := range names {
		start := time.Now()
		tables, err := exp.Run(n, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fastbench: %s: %v\n", n, err)
			exit(1)
		}
		for _, t := range tables {
			if *format == "csv" {
				fmt.Fprintf(w, "# %s\n", t.ID)
				if err := t.RenderCSV(w); err != nil {
					fmt.Fprintln(os.Stderr, "fastbench:", err)
					exit(1)
				}
				fmt.Fprintln(w)
			} else {
				t.Render(w)
			}
		}
		if *format != "csv" {
			fmt.Fprintf(w, "[%s completed in %v]\n\n", n, time.Since(start).Round(time.Millisecond))
		}
	}
}

// startProfiles starts a CPU profile and/or arms a heap profile write. The
// returned stop is idempotent: it flushes the CPU profile and captures the
// heap profile (after a GC, so the numbers reflect retained memory, not
// garbage awaiting collection).
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		cpuFile = f
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "fastbench: -cpuprofile:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fastbench: -memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fastbench: -memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "fastbench: -memprofile:", err)
			}
		}
	}, nil
}
