// Command bpbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	bpbench                 # run every experiment (full sample counts)
//	bpbench -quick          # trimmed sample counts / sweep grids
//	bpbench -exp fig11      # run one experiment (comma-separated list OK)
//	bpbench -list           # list experiment IDs
//
// Host timings of the library itself are bench/'s job (see BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bitpacker/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "trim sample counts and sweep grids")
	exp := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, r := range experiments.Runners() {
			fmt.Printf("%-8s %s\n", r.ID, r.Title)
		}
		return
	}

	var runners []experiments.Runner
	if *exp == "" {
		runners = experiments.Runners()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			r, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(1)
			}
			runners = append(runners, r)
		}
	}

	for _, r := range runners {
		start := time.Now()
		res, err := r.Run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.ID, err)
			os.Exit(1)
		}
		res.Render(os.Stdout)
		fmt.Printf("  (%s in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
}
