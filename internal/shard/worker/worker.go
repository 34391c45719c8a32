// Package worker is the worker side of the shard protocol: a fleet
// member (Listen / `bpworker -listen`) accepts dialing supervisors,
// authenticates each hello by job fingerprint, rebuilds a bit-identical
// FHE context from the job file's Config (deterministic seeded keygen
// makes every process derive the same keys), and serves shard
// assignments — executing each through the checkpointed ExecShard path
// and publishing durable outputs stamped with the dispatch's lease epoch
// — while a per-slot goroutine heartbeats on the same socket. It keeps
// computing through disconnections: completions are queued while the
// socket is down and flushed when the supervisor reconnects. There is one
// loop that reads assign/drain (Fleet.handle); a process the supervisor
// forked (BITPACKER_SHARD_DIR in its environment, Main) is the same
// member on a loopback port, serving that one directory until its stdin
// closes.
package worker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"bitpacker"
	"bitpacker/internal/chaos"
	"bitpacker/internal/pipeline"
	"bitpacker/internal/shard"
)

// IsWorker reports whether this process was spawned as a shard worker.
// Host binaries (bpworker, and any binary that opts into self-exec
// workers) check it first thing in main.
func IsWorker() bool { return os.Getenv(shard.EnvDir) != "" }

// beater emits liveness beats every interval, carrying the current
// shard/step so the supervisor can track progress. It can be paused (the
// beat-delay chaos faults) or stopped permanently (the hang fault).
type beater struct {
	out      *fleetSlot
	interval time.Duration

	mu          sync.Mutex
	shard, step int
	pausedUntil time.Time

	stop chan struct{}
	once sync.Once
}

func newBeater(out *fleetSlot, interval time.Duration) *beater {
	b := &beater{out: out, interval: interval, stop: make(chan struct{})}
	go b.loop()
	return b
}

func (b *beater) loop() {
	t := time.NewTicker(b.interval)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
			b.mu.Lock()
			paused := time.Now().Before(b.pausedUntil)
			sh, st := b.shard, b.step
			b.mu.Unlock()
			if paused {
				continue
			}
			b.out.send(shard.Msg{Type: shard.MsgBeat, Shard: sh, Step: st})
		}
	}
}

func (b *beater) progress(sh, st int) {
	b.mu.Lock()
	b.shard, b.step = sh, st
	b.mu.Unlock()
}

func (b *beater) pause(d time.Duration) {
	b.mu.Lock()
	b.pausedUntil = time.Now().Add(d)
	b.mu.Unlock()
}

func (b *beater) halt() { b.once.Do(func() { close(b.stop) }) }

// runtime is one job's loaded execution state: the rebuilt FHE context
// and the declarative program, shared by every slot the member runs for
// that job.
type runtime struct {
	fhe     *bitpacker.Context
	dir     string
	program []bitpacker.ShardStep
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
	return &runtime{fhe: fhe, dir: dir, program: program}, nil
}

// runShard executes one assigned shard under its lease epoch and reports
// done or fail through the slot. Chaos faults specified in the
// environment (process-level and network-level) are enacted at the
// hook's step boundaries.
func (rt *runtime) runShard(ctx context.Context, id, epoch int, sl *fleetSlot) {
	corruptOut := false
	dupDone := false
	staleDone := false
	staleBlob := false
	hook := func(step int) {
		sl.b.progress(id, step)
		sl.send(shard.Msg{Type: shard.MsgBeat, Shard: id, Step: step})
		if f := chaos.FireProc(shard.ChaosDir(rt.dir), id, step); f != nil {
			switch f.Kind {
			case chaos.ProcCrash:
				os.Exit(shard.CrashExitCode)
			case chaos.ProcHang:
				// Wedge: compute and heartbeats both stop. Sleep rather than
				// block on channels so the runtime's deadlock detector cannot
				// turn the hang into an exit; only the supervisor's SIGKILL
				// ends it.
				sl.b.halt()
				for {
					time.Sleep(time.Hour)
				}
			case chaos.ProcBeatDelay:
				sl.b.pause(time.Duration(f.DelayMs) * time.Millisecond)
			case chaos.ProcCorruptOut:
				corruptOut = true
			}
		}
		if f := chaos.FireNet(shard.ChaosDir(rt.dir), id, step); f != nil {
			switch f.Kind {
			case chaos.NetConnDrop:
				sl.dropConn()
			case chaos.NetPartition:
				sl.partition(time.Duration(f.DelayMs) * time.Millisecond)
			case chaos.NetDupDone:
				dupDone = true
			case chaos.NetStaleDone:
				staleDone = true
			case chaos.NetStaleBlob:
				staleBlob = true
			case chaos.NetBeatDelay:
				sl.b.pause(time.Duration(f.DelayMs) * time.Millisecond)
			}
		}
	}
	err := rt.fhe.ExecShard(ctx, rt.dir, id, epoch, rt.program, hook)
	if err != nil {
		class := shard.ClassFault
		if errors.Is(err, bitpacker.ErrCanceled) {
			class = shard.ClassCanceled
		}
		sl.send(shard.Msg{Type: shard.MsgFail, Shard: id, Epoch: epoch, Class: class, Err: err.Error()})
		return
	}
	if corruptOut {
		// Torn-write model: garble the just-published output, report done
		// anyway, and die — the supervisor's output validation must reject
		// the file and re-dispatch the shard.
		_ = chaos.CorruptFile(bitpacker.ShardOutputPath(rt.dir, id))
		sl.send(shard.Msg{Type: shard.MsgDone, Shard: id, Epoch: epoch})
		os.Exit(shard.CrashExitCode)
	}
	if staleBlob {
		// Zombie-overwrite model: re-stamp the durable output with the
		// previous epoch, then report done with the current one — output
		// validation must reject the stale stamp and re-dispatch.
		restampOutput(rt.dir, id, epoch-1)
	}
	if staleDone {
		// Zombie-report model: a done carrying the previous epoch precedes
		// the real one — the epoch fence must drop it.
		sl.send(shard.Msg{Type: shard.MsgDone, Shard: id, Epoch: epoch - 1})
	}
	sl.send(shard.Msg{Type: shard.MsgDone, Shard: id, Epoch: epoch})
	if dupDone {
		sl.send(shard.Msg{Type: shard.MsgDone, Shard: id, Epoch: epoch})
	}
}

// restampOutput rewrites a shard's durable output frame under a
// different epoch stamp (chaos only: models a zombie's overwrite).
func restampOutput(dir string, id, epoch int) {
	st, err := pipeline.NewDirStore(shard.OutDir(dir))
	if err != nil {
		return
	}
	_, blob, err := st.Get(id)
	if err != nil {
		return
	}
	_ = st.Put(id, shard.OutputName(id, epoch), blob)
}

// Main is a spawned worker's whole life: a loopback fleet member for the
// one exchange directory the supervisor put in its environment. It binds
// 127.0.0.1:0, announces the address on stdout for the supervisor to
// dial, and serves until stdin closes — the supervisor's drain, or its
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
	fmt.Println(fl.Addr())
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
