// Command bpworker is the shard worker of the sharded execution layer:
// a fleet member that supervisors dial, authenticate to with the job
// fingerprint, and stream assign/beat/done/fail messages with over one
// socket. It keeps computing through disconnections and partitions.
//
// Fleet mode (-listen addr): serves a standing worker fleet. Supervisors
// given fleet addresses (bpserve -shard-addrs, ShardOptions.Addrs) dial
// out. A shard's input batch arrives with its assign and its output
// leaves with the done; fleet members still need a filesystem shared
// with the supervisor, whose job exchange directory carries the job file
// and the per-step checkpoints.
//
// Forked mode (no flags): the supervisor (Context.RunSharded) spawns it
// with the job exchange directory in the environment. It is the same
// member on a loopback port: it announces the address it bound on stdout
// (one internal/frame frame) for the supervisor to dial, serves that one
// directory only, and exits when its stdin closes. Not meant to be run
// by hand.
//
// See DESIGN.md "Sharded execution & supervision" and "Transports &
// fencing".
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"bitpacker/internal/shard/worker"
)

func main() {
	if worker.IsWorker() {
		os.Exit(worker.Main())
	}
	listen := flag.String("listen", "", "serve a worker fleet on this TCP address (e.g. :7070) instead of running as a forked worker")
	quiet := flag.Bool("quiet", false, "suppress fleet activity logging")
	flag.Parse()
	if *listen == "" {
		fmt.Fprintln(os.Stderr, "bpworker: must be spawned by the shard supervisor (BITPACKER_SHARD_DIR is not set) or given -listen")
		os.Exit(2)
	}
	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	fl, err := worker.Listen(*listen, logf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bpworker: %v\n", err)
		os.Exit(1)
	}
	logf("bpworker: fleet listening on %s", fl.Addr())
	if err := fl.Serve(); err != nil {
		fmt.Fprintf(os.Stderr, "bpworker: %v\n", err)
		os.Exit(1)
	}
}
