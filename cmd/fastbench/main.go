// Command fastbench regenerates the paper's tables and figures.
//
// Usage:
//
//	fastbench -list
//	fastbench -exp fig14
//	fastbench -exp all -base 200 -timeout 10s -out results.txt
//	fastbench -exp fig13 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Each experiment prints one or more aligned text tables; EXPERIMENTS.md
// maps them back to the paper's figures and records the expected shapes.
// The performance record is a separate program (go run ./benchmark).
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

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	)
	flag.Parse()

	// Profiling wraps the run so perf PRs can attach pprof evidence from the
	// exact experiment they claim to speed up. stop() flushes the CPU
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
