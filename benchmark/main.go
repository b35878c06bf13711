// Command benchmark is the repository's performance record: four workloads
// over the CPU-FPGA matching pipeline and its serving stack, end-to-end
// metrics measured with tracing off, per-layer metrics from a separate
// traced pass, every answer checked against an oracle. See README.md.
//
//	go run ./benchmark -seed 42                  # every workload, both passes
//	go run ./benchmark -workload warm_kernel -seed 7 -seconds 20 -trace 0
//	go run ./benchmark -selfcheck                # the noise floor on this box
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// sizing is every scale knob of a run. The defaults are the benchmark;
// -smoke shrinks them so that the tests can run every code path in seconds.
type sizing struct {
	engineBase int     // BasePersons of the engine workloads' graph
	serveBase  int     // BasePersons of each serve_mutate tenant
	seconds    float64 // measured seconds per workload, split into rounds
	rounds     int
	setups     int     // set-ups per run; setup_s is their calm quartile
	rate       float64 // serve_mutate arrivals per second
	planReps   int     // repetitions of the replay's planning half
	matchReps  int     // repetitions of the replay's matching half and of the ladder
	// enforce holds the checks that depend on the wall clock against the
	// run: closure within 0.9-1.1, generator lag under 1 ms, every round
	// long enough for its percentiles. -smoke reports the same values and
	// enforces none of them, because at its sizing a call's fixed cost and a
	// round's sample count say nothing about the layers, and a test must
	// not depend on how fast the machine under it is.
	enforce bool
}

func defaultSizing(seconds float64) sizing {
	return sizing{engineBase: 1600, serveBase: 400, seconds: seconds, rounds: 8, setups: 5, rate: 100, planReps: 5, matchReps: 41, enforce: true}
}

func smokeSizing() sizing {
	return sizing{engineBase: 60, serveBase: 60, seconds: 1, rounds: 5, setups: 1, rate: 100, planReps: 2, matchReps: 3}
}

func (sz sizing) roundDur() time.Duration {
	return time.Duration(sz.seconds / float64(sz.rounds) * float64(time.Second))
}

// tracedRoundDur is the length of each of the traced pass's two op rounds:
// 3 s of a 20 s run, so that the replay and the ladder fit beside them.
func (sz sizing) tracedRoundDur() time.Duration {
	return time.Duration(0.15 * sz.seconds * float64(time.Second))
}

// runWorkload runs one pass of one workload.
func runWorkload(name string, sz sizing, seed int64, traced bool, tr *tracer) (*result, error) {
	var (
		res *result
		err error
	)
	spec, isEngine := engineSpecByName(name)
	switch {
	case isEngine && traced:
		res, err = runEngineTraced(spec, sz, seed, tr)
	case isEngine:
		res, err = runEngine(spec, sz, seed)
	case name == wlServeMutate && traced:
		res, err = runServeTraced(sz, seed, tr)
	case name == wlServeMutate:
		res, err = runServe(sz, seed)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	res.check()
	return res, nil
}

// report is the -json document: where the numbers were taken, what each
// name means, and every value with its per-round samples.
type report struct {
	Env       envBlock       `json:"env"`
	Seconds   float64        `json:"seconds"`
	Workloads []workloadDecl `json:"workloads"`
	EndToEnd  []e2eDecl      `json:"end_to_end"`
	PerLayer  []layerDecl    `json:"per_layer"`
	Results   []*result      `json:"results"`
}

// runSet runs the named workloads, untraced pass then traced pass as asked,
// printing each result as it completes.
func runSet(w io.Writer, names []string, sz sizing, seed int64, passes []bool, tr *tracer) ([]*result, error) {
	var out []*result
	for _, name := range names {
		for _, traced := range passes {
			res, err := runWorkload(name, sz, seed, traced, tr)
			if err != nil {
				return out, fmt.Errorf("%s: %w", name, err)
			}
			res.print(w)
			out = append(out, res)
		}
	}
	return out, nil
}

func main() {
	var (
		workload  = flag.String("workload", "", "run only this workload (default: all four)")
		seed      = flag.Int64("seed", 42, "seed the inputs are generated from")
		seconds   = flag.Float64("seconds", 30, "measured seconds per workload (eight rounds)")
		trace     = flag.String("trace", "", "0: untraced pass only (end-to-end metrics); 1: traced pass only (per-layer metrics); default both")
		traceOut  = flag.String("trace-out", "", "write the traced pass's spans to this file (default: keep them in memory only)")
		jsonOut   = flag.String("json", "", "write every metric, with per-round values, to this file")
		smoke     = flag.Bool("smoke", false, "tiny sizing (base 60, 0.2 s rounds): exercises every path, measures nothing")
		selfcheck = flag.Bool("selfcheck", false, "run the full set twice on -seed and compare, then check the oracle on a second seed")
		manifestF = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric tables and exit")
	)
	flag.Parse()
	if *manifestF {
		_, _ = os.Stdout.Write(manifest()) // nobody to tell about a failed write to stdout
		return
	}
	if flag.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments or non-positive -seconds")
		os.Exit(2)
	}

	sz := defaultSizing(*seconds)
	if *smoke {
		sz = smokeSizing()
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloadTable {
			names = append(names, w.Name)
		}
	}
	var passes []bool
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "":
		passes = []bool{false, true}
	default:
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		os.Exit(2)
	}

	if *selfcheck {
		if !selfCheck(os.Stdout, names, sz, *seed) {
			os.Exit(1)
		}
		return
	}

	tr := newTracer()
	results, err := runSet(os.Stdout, names, sz, *seed, passes, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if *traceOut != "" {
		if err := tr.write(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(report{readEnv(*seed), sz.seconds, workloadTable, e2eTable, layerTable, results}, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	ok := true
	for _, r := range results {
		ok = ok && r.correct()
	}
	// The driver runs one workload and one pass at a time and reads the
	// last line of standard output.
	if len(results) == 1 {
		fmt.Println(results[0].driverLine())
	}
	if !ok {
		os.Exit(1)
	}
}
