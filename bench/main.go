// Command bench is the repository's benchmark: four workloads through
// the public surfaces of the library (root API, serving layer, sharded
// executor), six end-to-end metrics each, and a traced run that walks
// the layers beneath a workload bottom-up. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"bitpacker/internal/shard/worker"
)

func main() {
	// The same binary is the forked shard worker and the standing fleet
	// member of the shard workloads.
	if worker.IsWorker() {
		os.Exit(worker.Main())
	}
	if os.Getenv(fleetEnv) != "" {
		os.Exit(fleetMain())
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultProcs leaves one processor of up to four to everything that
// runs beside the measured work: the runtime's own threads, the idle
// supervisor of the shard workers, and the host. On the shared 2-vCPU
// host the benchmark was sized on, a second busy thread halves the speed
// of the first for seconds at a time, and no statistic removes that.
func defaultProcs() int { return max(1, min(runtime.NumCPU(), 4)-1) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this one workload and print its report (what the driver calls); empty runs the whole suite")
		seed    = fs.Uint64("seed", 1, "generates matrices, inputs, tenant arguments and key material; the library sees only the generated inputs")
		seconds = fs.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
		trace   = fs.Int("trace", 0, "1: record spans around every call into a layer and walk the layers bottom-up; prints the per-layer metrics")
		procs   = fs.Int("procs", defaultProcs(), "GOMAXPROCS, engine workers and worker processes of a shard lane")
		outDir  = fs.String("out", filepath.Join("bench", "out"), "where traces, suite results and scratch files go")
		quick   = fs.Bool("quick", false, "LogN 10 and tiny inputs: exercises every code path in seconds, measures nothing")
		compare = fs.Bool("compare", false, "compare two suite results: bench -compare old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	// More runnable threads than processors turns every timing into a
	// measurement of the scheduler.
	if *procs < 1 || *procs > runtime.NumCPU() {
		fmt.Fprintf(stderr, "bench: -procs %d, but this host has %d cpus: refusing to oversubscribe\n", *procs, runtime.NumCPU())
		return 2
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v (run from the repository root)\n", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
		if *quick {
			*seconds = 0.2
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	scratch := filepath.Join(*outDir, "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	e := env{seed: *seed, procs: *procs, quick: *quick, dir: scratch, exe: exe}
	if *name == "" {
		return runSuite(spec, suiteOptions{seconds: *seconds, outDir: *outDir, env: e}, stdout, stderr)
	}
	rep, err := runOnce(runOptions{workload: *name, seconds: *seconds, trace: *trace != 0, outDir: *outDir, env: e}, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	specs := endToEnd
	if *trace != 0 {
		specs = perLayer
	}
	if err := printReport(stdout, specs, rep); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}
