// Command bench is the repository's benchmark: four workloads over the
// public natix API on a real file store, end-to-end metrics measured
// with tracing off, per-layer metrics from a separate traced run, and a
// correctness check on every result. See README.md.
//
// The driver's contract (one workload per invocation):
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints a JSON report and, as the last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Without --workload every workload runs, timed and then traced.
//
//	bench -compare a.json b.json
//
// compares the end-to-end metrics of two reports against the bounds.
//
//	bench -catalog
//
// prints the BENCHMARK.json that matches the catalog in this package.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run (default: all of them)")
		seed     = fs.Int64("seed", 1999, "seed of the corpus and of every shuffle")
		seconds  = fs.Float64("seconds", runSeconds, "length of the timed window")
		trace    = fs.Int("trace", -1, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics; default both")
		scaleArg = fs.String("scale", "full", "corpus scale: full (the paper's 37 plays) or tiny (tests)")
		workDir  = fs.String("workdir", ".bench_build", "directory for store files (a fresh subdirectory is made and removed)")
		outDir   = fs.String("outdir", filepath.Join("bench", "out"), "directory for trace files")
		out      = fs.String("out", "", "also write the JSON report to this file")
		compare  = fs.Bool("compare", false, "compare the two report files given as arguments")
		catalog  = fs.Bool("catalog", false, "print BENCHMARK.json as the catalog declares it and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *catalog {
		fmt.Fprintf(stdout, "%s\n", benchmarkJSON())
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	sc, ok := scales[*scaleArg]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown scale %q\n", *scaleArg)
		return 2
	}
	defs := workloads
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		defs = []workloadDef{*w}
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	c := &config{seed: *seed, seconds: *seconds, scale: sc, workDir: dir, outDir: *outDir}

	rep := newReport(c)
	for _, w := range defs {
		wr := &workloadReport{Options: w.Opts(sc), Clients: w.Clients, FlushPolicy: w.Flush, Correct: true}
		rep.Workloads[w.Name] = wr
		if *trace != 1 {
			if err := runTimed(c, w, wr); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
				return 1
			}
		}
		if *trace != 0 {
			if err := runTraced(c, w, wr); err != nil {
				fmt.Fprintf(stderr, "bench: %s (traced): %v\n", w.Name, err)
				return 1
			}
		}
	}
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", doc)
	if *out != "" {
		if err := os.WriteFile(*out, append(doc, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	code := 0
	for name, wr := range rep.Workloads {
		if !wr.Correct {
			fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed; first: %s\n", name, wr.Failed, wr.Attempted, wr.FirstFailure)
			code = 1
		}
	}
	if *workload != "" {
		wr := rep.Workloads[*workload]
		metrics := wr.EndToEnd
		if *trace == 1 {
			metrics = wr.PerLayer
		}
		line, err := json.Marshal(resultLine{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: metrics})
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}
