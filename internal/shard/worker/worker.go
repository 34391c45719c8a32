// Package worker is the driver of the worker side of the shard protocol,
// whose decisions are the core's (shard.Member, internal/shard/member.go).
// A fleet member (Listen / `bpworker -listen`) accepts dialing
// supervisors, checks each hello's beat period, directory and job
// fingerprint, rebuilds a bit-identical FHE context from the job file's
// Config (deterministic seeded keygen makes every process derive the
// same keys), and runs each worker slot as one loop over an inbox and a
// ticker at the hello's beat period: the loop feeds the slot's core the
// hellos, reads, build, progress and results, and performs what it
// answers — beats and reports written on the socket, the input batch of
// each assign executed through the checkpointed ExecShard path off the
// loop, compute canceled, sessions closed. A process the supervisor
// forked (BITPACKER_SHARD_DIR in its environment, Main) is the same
// member on a loopback port, serving that one directory until its stdin
// closes. The process faults of internal/chaos (crash, hang, corrupt
// output) are carried out here, because only the OS can: faults of the
// link are a link's to inject.
package worker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"

	"bitpacker"
	"bitpacker/internal/chaos"
	"bitpacker/internal/frame"
	"bitpacker/internal/shard"
)

// IsWorker reports whether this process was spawned as a shard worker.
// Host binaries (bpworker, and any binary that opts into self-exec
// workers) check it first thing in main.
func IsWorker() bool { return os.Getenv(shard.EnvDir) != "" }

// runtime is one job's loaded execution state: the rebuilt FHE context,
// the declarative program and the bound on the job's batches, shared by
// every slot the member runs for that job.
type runtime struct {
	fhe     *bitpacker.Context
	dir     string
	program []bitpacker.ShardStep
	lim     shard.Limit
}

// newRuntime rebuilds the job's bit-identical FHE context (deterministic
// seeded keygen) from its job file.
func newRuntime(dir string, jf shard.JobFile) (*runtime, error) {
	var cfg bitpacker.Config
	if err := json.Unmarshal(jf.Config, &cfg); err != nil {
		return nil, fmt.Errorf("worker: job config: %w", err)
	}
	if jf.EngineWorkers > 0 {
		// The supervisor budgets engine parallelism across the fleet.
		cfg.Workers = jf.EngineWorkers
	}
	var program []bitpacker.ShardStep
	if err := json.Unmarshal(jf.Program, &program); err != nil {
		return nil, fmt.Errorf("worker: job program: %w", err)
	}
	fhe, err := bitpacker.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("worker: context: %w", err)
	}
	// A job file is outside input, and the inputs' level is unknown until a
	// shard is read: planned at the top of the chain, a program no input
	// could run is refused at the handshake, not shard by shard.
	if _, err := fhe.PlanProgram(program, fhe.MaxLevel()); err != nil {
		return nil, fmt.Errorf("worker: job program: %w", err)
	}
	lim := shard.Limit{Counts: jf.Shards, CiphertextBytes: fhe.MaxCiphertextBytes()}
	return &runtime{fhe: fhe, dir: dir, program: program, lim: lim}, nil
}

// runShard executes one assigned shard's input batch under its lease
// epoch, off the slot's loop, and answers the slot's core with what it
// computed. The process faults specified in the environment are carried
// out at the hook's step boundaries.
func (rt *runtime) runShard(ctx context.Context, cancel context.CancelFunc, id, epoch int, input []byte, sl *fleetSlot) {
	defer cancel()
	corruptOut := false
	hook := func(step int) {
		sl.postEvent(shard.MemberEvent{Kind: shard.MemberProgress, Shard: id, Step: step})
		if f := chaos.FireProc(shard.ChaosDir(rt.dir), id, step); f != nil {
			switch f.Kind {
			case chaos.ProcCrash:
				os.Exit(shard.CrashExitCode)
			case chaos.ProcHang:
				// Wedge: the whole process stops, beats and all, until the
				// supervisor's SIGKILL. Should it be continued, it stays
				// wedged: sleeping, so the runtime's deadlock detector cannot
				// turn the hang into an exit.
				syscall.Kill(os.Getpid(), syscall.SIGSTOP)
				for {
					time.Sleep(time.Hour)
				}
			case chaos.ProcCorruptOut:
				corruptOut = true
			}
		}
	}
	out, err := rt.fhe.ExecShard(ctx, rt.dir, id, input, rt.program, hook)
	ev := shard.MemberEvent{Kind: shard.MemberComputed, Shard: id, Epoch: epoch, Batch: out, Err: err}
	switch {
	case err != nil:
		ev.Class = shard.ClassFault
		if errors.Is(err, bitpacker.ErrCanceled) {
			ev.Class = shard.ClassCanceled
		}
	case corruptOut:
		// Corrupt-output model: garble the last byte of the last
		// ciphertext before the batch's wire frame is written, report done,
		// and die. The wire's checksum passes; the ciphertext's own frame
		// fails at the supervisor's verify, which re-queues the shard.
		out[len(out)-frame.HeaderLen-1] ^= 0xa5
		sl.post(func() {
			sl.feed(ev)
			os.Exit(shard.CrashExitCode)
		})
		return
	}
	sl.postEvent(ev)
}

// Main is a spawned worker's whole life: a loopback fleet member for the
// one exchange directory the supervisor put in its environment. It binds
// 127.0.0.1:0, announces the address on stdout, as one Addr frame, for
// the supervisor to dial, and serves until stdin closes — the supervisor's drain, or its
// death: either way the pipe's EOF ends the process, so a worker never
// outlives its supervisor. The return value is the process exit code.
// Call only when IsWorker().
func Main() int {
	fl, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bpworker: %v\n", err)
		return 1
	}
	fl.only = os.Getenv(shard.EnvDir)
	// A lost announcement is caught by the supervisor's start deadline.
	_ = frame.Write(os.Stdout, frame.Addr, []byte(fl.Addr()))
	served := make(chan error, 1)
	go func() { served <- fl.Serve() }()
	io.Copy(io.Discard, os.Stdin)
	fl.Close()
	if err := <-served; err != nil {
		fmt.Fprintf(os.Stderr, "bpworker: %v\n", err)
		return 1
	}
	return 0
}
