// Command perfbench is the repository benchmark. It runs one workload
// against the engine, checks every answer against an oracle built from
// the generated inputs (never from the engine), and prints every metric
// by name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with
// tracing off. With -trace 1 the same inputs are replayed with a span
// around every call into an engine layer, and the metrics are the
// per-layer numbers derived from those spans. Run it through run.sh from
// the repository root; README.md documents the workloads and metrics.
//
// Usage:
//
//	perfbench -workload point-read|star-select|htap-serve|evolve
//	          [-seed n] [-seconds s] [-trace 0|1]
//	          [-work dir] [-spans dir]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags, runs one workload and prints its report and result
// line. It returns the process exit code: 0 only for a completed run
// whose every answer matched its oracle.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same tables and op sequence")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced replay")
	work := fs.String("work", ".bench_build/work", "scratch directory for saved catalogs and storage probes")
	spans := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := runConfig{
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		scale:    1,
		workDir:  *work,
		spansDir: *spans,
	}
	res, err := execute(w, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed or returned a wrong answer\n", w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
