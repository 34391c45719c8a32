package bitpacker

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bitpacker/internal/fherr"
	"bitpacker/internal/pipeline"
	"bitpacker/internal/shard"
)

// EncodeCiphertexts serializes a ciphertext batch in the shard-exchange
// wire format (the pipeline checkpoint state encoding).
func (c *Context) EncodeCiphertexts(cts []*Ciphertext) ([]byte, error) {
	inner, err := unwrapState(cts)
	if err != nil {
		return nil, err
	}
	return pipeline.EncodeState(inner)
}

// DecodeCiphertexts decodes an EncodeCiphertexts batch. Every ciphertext
// is validated against the context's chain and its RRNS spare channel
// reseeded (deserialization is a trusted point, like a fresh encryption)
// by pipeline.DecodeState, once: both are O(R·N) passes per ciphertext,
// and a shard's batch is decoded on each side of the exchange.
func (c *Context) DecodeCiphertexts(data []byte) ([]*Ciphertext, error) {
	inner, err := pipeline.DecodeState(c.params, data)
	if err != nil {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: %v", err)
	}
	return wrapState(inner), nil
}

// ShardOutputPath returns the durable output file of one shard inside a
// job exchange directory (for inspection and fault injection).
func ShardOutputPath(dir string, shardID int) string {
	return pipeline.DirStorePath(shard.OutDir(dir), shardID)
}

// ExecShard executes one shard of a sharded job from its durable input
// to its durable output: reads the shard's input batch from the exchange
// directory, runs the program through the checkpointed pipeline (per-step
// checkpoints under the shard's checkpoint directory — a re-dispatched
// shard resumes from its last durable step instead of recomputing), and
// atomically publishes the checksummed output stamped with the lease
// epoch the dispatch carried (shard.OutputName), which is how the
// supervisor fences output files overwritten by zombie workers holding
// broken leases. Worker processes, fleet members, and the supervisor's
// degraded in-process fallback all run shards through this one code
// path, which is what makes every execution mode bit-identical. hook, if
// not nil, is RunProgram's, and is called once more with len(program)
// when the last step is done.
func (c *Context) ExecShard(ctx context.Context, dir string, shardID, epoch int, program []ShardStep, hook ShardHook) error {
	inStore, err := pipeline.NewDirStore(shard.InDir(dir))
	if err != nil {
		return err
	}
	_, blob, err := inStore.Get(shardID)
	if err != nil {
		return fmt.Errorf("bitpacker: shard %d input: %w", shardID, err)
	}
	state, err := c.DecodeCiphertexts(blob)
	if err != nil {
		return fmt.Errorf("bitpacker: shard %d input: %w", shardID, err)
	}
	final, _, err := c.RunProgram(ctx, program, state,
		PipelineOptions{CheckpointDir: shard.CkptDir(dir, shardID), Keep: true}, hook)
	if err != nil {
		return err
	}
	if hook != nil {
		hook(len(program))
	}
	out, err := c.EncodeCiphertexts(final)
	if err != nil {
		return err
	}
	outStore, err := pipeline.NewDirStore(shard.OutDir(dir))
	if err != nil {
		return err
	}
	return outStore.Put(shardID, shard.OutputName(shardID, epoch), out)
}

// SupervisorStats counts the shard supervisor's recovery actions
// (respawns, re-dispatches, heartbeat misses, leases stolen, degraded
// entries, ...), alongside KeyCacheStats in the observability surface.
type SupervisorStats = shard.Stats

// RespawnPolicy tunes the shard supervisor's per-worker recovery (see
// ShardOptions.Respawn): the fields of RetryPolicy it reads.
type RespawnPolicy = shard.RespawnPolicy

// ShardOptions tunes RunSharded.
type ShardOptions struct {
	// Dir is the job exchange directory: inputs, outputs, per-shard
	// checkpoints and the job description live under it, and a rerun over
	// the same directory resumes (finished shards are not recomputed; a
	// different job's leftovers are detected by fingerprint and cleared).
	// Empty uses a private temporary directory (no cross-run resume).
	Dir string
	// Workers is the worker-process count (default 2).
	Workers int
	// ShardSize is the number of ciphertexts per shard. Zero picks a
	// default that keeps at least ~4 shards per worker for re-dispatch
	// granularity (minimum 1 ciphertext).
	ShardSize int
	// WorkerCommand overrides worker-binary resolution (argv). When
	// empty, the BITPACKER_BPWORKER environment variable is tried, then
	// bpworker on PATH; with none available the job runs degraded
	// in-process (or fails if DisableDegraded).
	WorkerCommand []string
	// WorkerEnv is appended to every worker's environment.
	WorkerEnv []string
	// Addrs lists standing fleet endpoints (`bpworker -listen`). When
	// non-empty the supervisor dials them instead of the loopback
	// members it would otherwise spawn from WorkerCommand — the same
	// sessions, authenticated with the job fingerprint, and no local
	// worker processes. Workers defaults to len(Addrs). If every fleet
	// member is lost the job degrades to in-process execution (or fails,
	// if DisableDegraded).
	Addrs []string
	// EngineWorkers caps each worker process's execution-engine
	// parallelism (default: NumCPU / Workers, minimum 1) so the fleet
	// does not oversubscribe the host.
	EngineWorkers int
	// HeartbeatInterval / HeartbeatTimeout / ShardDeadline configure hang
	// detection (see shard.Options).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	ShardDeadline     time.Duration
	// Respawn is the per-worker crash/hang recovery policy with
	// Retrier semantics (backoff, attempt budget, circuit breaker).
	// Zero values select the Retrier defaults.
	Respawn RespawnPolicy
	// ShardAttempts bounds re-dispatches of a shard a live worker reports
	// as failed before the job fails (default 3).
	ShardAttempts int
	// DisableDegraded fails the job instead of falling back to
	// in-process execution when no worker can be kept alive.
	DisableDegraded bool
	// Keep leaves the exchange directory's artifacts in place after a
	// successful run (default: cleared; a failed run always keeps them
	// for resume).
	Keep bool
	// Logf receives one structured line per recovery action.
	Logf func(format string, args ...any)
	// OnSpawn observes every worker session start (slot, pid; pid 0 for
	// a standing fleet member) — TestShardSoak's random killer hooks it.
	OnSpawn func(worker, pid int)
}

// ShardReport describes what a RunSharded call did and predicted.
type ShardReport struct {
	// Shards and ShardSizes describe the partition; Workers is the
	// requested fleet size.
	Shards     int
	ShardSizes []int
	Workers    int
	// PredictedMicrosPerCt is ProgramPlan.PredictedMicros for the job's
	// program at the lowest input level; PredictedSpeedup is the
	// model-planned serial/sharded ratio for this partition and fleet.
	PredictedMicrosPerCt float64
	PredictedSpeedup     float64
	// Resumed counts shards whose intact outputs from a previous run were
	// accepted without recomputation.
	Resumed int
	// Stats are the supervisor's recovery counters.
	Stats SupervisorStats
}

// resolveWorkerCommand picks the worker argv: explicit option, then the
// BITPACKER_BPWORKER environment variable, then bpworker on PATH. Nil
// means no worker binary is available.
func resolveWorkerCommand(opts ShardOptions) []string {
	if len(opts.WorkerCommand) > 0 {
		return opts.WorkerCommand
	}
	if v := os.Getenv(shard.EnvWorkerBin); v != "" {
		return []string{v}
	}
	if p, err := exec.LookPath("bpworker"); err == nil {
		return []string{p}
	}
	return nil
}

// planSpeedup is the model's serial/sharded ratio: serial time over the
// makespan of a greedy longest-first assignment of shard loads to the
// effective worker count.
func planSpeedup(sizes []int, workers int) float64 {
	if workers > len(sizes) {
		workers = len(sizes)
	}
	if workers < 1 {
		workers = 1
	}
	loads := make([]int, workers)
	total := 0
	// Contiguous equal-size chunks: plain round-robin is the greedy
	// assignment.
	for i, sz := range sizes {
		loads[i%workers] += sz
		total += sz
	}
	max := 0
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	if max == 0 {
		return 1
	}
	return float64(total) / float64(max)
}

// clearExchange removes a stale job's artifacts from an exchange
// directory.
func clearExchange(dir string) error {
	for _, sub := range []string{shard.InDir(dir), shard.OutDir(dir), filepath.Join(dir, "ckpt"), shard.ChaosDir(dir)} {
		if err := os.RemoveAll(sub); err != nil {
			return err
		}
	}
	if err := os.Remove(filepath.Join(dir, "job.json")); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// RunSharded executes a declarative program over a ciphertext batch
// across supervised worker processes, surviving worker crashes and
// hangs: the batch is partitioned into shards, each shard's input is
// durably published through the checkpoint store, workers lease shards
// and checkpoint every step, and a dead worker's shards are
// re-dispatched to survivors from their last durable checkpoint. The
// result is bit-identical to running the program in-process. See
// DESIGN.md "Sharded execution & supervision" for the failure matrix.
func (c *Context) RunSharded(ctx context.Context, program []ShardStep, inputs []*Ciphertext, opts ShardOptions) ([]*Ciphertext, ShardReport, error) {
	report := ShardReport{}
	if len(inputs) == 0 {
		return nil, report, fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: sharded job with no inputs")
	}
	// Planned before the exchange directory is touched or a worker started,
	// at the lowest input level: the program must fit every ciphertext.
	level := inputs[0].Level()
	for _, ct := range inputs[1:] {
		level = min(level, ct.Level())
	}
	plan, err := c.PlanProgram(program, level)
	if err != nil {
		return nil, report, err
	}
	report.PredictedMicrosPerCt = plan.PredictedMicros
	if ctx == nil {
		ctx = c.opCtx()
	}

	workers := opts.Workers
	if workers <= 0 {
		if len(opts.Addrs) > 0 {
			workers = len(opts.Addrs)
		} else {
			workers = 2
		}
	}
	dir := opts.Dir
	temp := false
	if dir == "" {
		td, err := os.MkdirTemp("", "bpshard-")
		if err != nil {
			return nil, report, fmt.Errorf("bitpacker: shard exchange dir: %w", err)
		}
		dir, temp = td, true
		defer os.RemoveAll(td)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, report, fmt.Errorf("bitpacker: shard exchange dir: %w", err)
	}

	// Partition into contiguous shards.
	shardSize := opts.ShardSize
	if shardSize <= 0 {
		shardSize = len(inputs) / (4 * workers)
		if shardSize < 1 {
			shardSize = 1
		}
	}
	var chunks [][]*Ciphertext
	for at := 0; at < len(inputs); at += shardSize {
		end := at + shardSize
		if end > len(inputs) {
			end = len(inputs)
		}
		chunks = append(chunks, inputs[at:end])
	}
	total := len(chunks)
	report.Shards = total
	report.Workers = workers
	sizes := make([]int, total)
	blobs := make([][]byte, total)
	for i, chunk := range chunks {
		sizes[i] = len(chunk)
		blob, err := c.EncodeCiphertexts(chunk)
		if err != nil {
			return nil, report, err
		}
		blobs[i] = blob
	}
	report.ShardSizes = sizes
	report.PredictedSpeedup = planSpeedup(sizes, workers)

	cfgJSON, err := json.Marshal(c.cfg)
	if err != nil {
		return nil, report, fmt.Errorf("bitpacker: marshal config: %w", err)
	}
	progJSON, err := json.Marshal(program)
	if err != nil {
		return nil, report, fmt.Errorf("bitpacker: marshal program: %w", err)
	}
	h := fnv.New64a()
	h.Write(cfgJSON)
	h.Write(progJSON)
	for _, b := range blobs {
		h.Write(b)
	}
	fingerprint := h.Sum64()

	// A different job's leftovers in the exchange directory must not be
	// mistaken for resumable state.
	if prev, err := shard.ReadJobFile(dir); err == nil {
		if prev.Fingerprint != fingerprint {
			if err := clearExchange(dir); err != nil {
				return nil, report, fmt.Errorf("bitpacker: clear stale exchange dir: %w", err)
			}
		}
	} else if !os.IsNotExist(err) {
		// Unreadable or wrong-version job file: same treatment.
		if err := clearExchange(dir); err != nil {
			return nil, report, fmt.Errorf("bitpacker: clear stale exchange dir: %w", err)
		}
	}

	// Publish inputs (always rewritten: heals a corrupted input file from
	// a previous attempt) and the job description.
	inStore, err := pipeline.NewDirStore(shard.InDir(dir))
	if err != nil {
		return nil, report, err
	}
	outStore, err := pipeline.NewDirStore(shard.OutDir(dir))
	if err != nil {
		return nil, report, err
	}
	for i, blob := range blobs {
		if err := inStore.Put(i, fmt.Sprintf("shard-%d", i), blob); err != nil {
			return nil, report, err
		}
	}
	engineWorkers := opts.EngineWorkers
	if engineWorkers <= 0 {
		engineWorkers = runtime.NumCPU() / workers
		if engineWorkers < 1 {
			engineWorkers = 1
		}
	}
	if err := shard.WriteJobFile(dir, shard.JobFile{
		Version:       shard.JobFileVersion,
		Fingerprint:   fingerprint,
		Config:        cfgJSON,
		Program:       progJSON,
		Shards:        sizes,
		EngineWorkers: engineWorkers,
	}); err != nil {
		return nil, report, err
	}

	// Collect results as shards complete; accept intact outputs left by a
	// previous run up front. The epoch check is the fencing half of
	// output validation: a durable output whose stamp is not the epoch
	// the supervisor dispatched was written by a zombie holding a broken
	// lease and must be rejected even if its checksum and contents are
	// intact. epoch < 0 (the resume scan) accepts any stamp — a finished
	// shard from a previous run is valid whatever lease produced it.
	results := make([][]*Ciphertext, total)
	var resMu sync.Mutex
	collect := func(sh, epoch int) error {
		name, blob, err := outStore.Get(sh)
		if err != nil {
			return err
		}
		if epoch >= 0 && name != shard.OutputName(sh, epoch) {
			return fmt.Errorf("bitpacker: shard %d output stamped %q, want %q: %w",
				sh, name, shard.OutputName(sh, epoch), shard.ErrStaleEpoch)
		}
		cts, err := c.DecodeCiphertexts(blob)
		if err != nil {
			return err
		}
		if len(cts) != sizes[sh] {
			return fherr.Wrap(fherr.ErrInvariant, "bitpacker: shard %d output has %d ciphertexts, want %d", sh, len(cts), sizes[sh])
		}
		resMu.Lock()
		results[sh] = cts
		resMu.Unlock()
		return nil
	}
	preDone := make([]bool, total)
	if stages, err := outStore.Stages(); err == nil {
		for _, sh := range stages {
			if sh < total && collect(sh, -1) == nil {
				preDone[sh] = true
				report.Resumed++
			}
		}
	}

	stats, err := shard.Run(ctx, shard.Options{
		Dir:               dir,
		Workers:           workers,
		WorkerCommand:     resolveWorkerCommand(opts),
		WorkerEnv:         opts.WorkerEnv,
		Addrs:             opts.Addrs,
		Fingerprint:       fingerprint,
		HeartbeatInterval: opts.HeartbeatInterval,
		HeartbeatTimeout:  opts.HeartbeatTimeout,
		ShardDeadline:     opts.ShardDeadline,
		Respawn:           opts.Respawn,
		ShardAttempts:     opts.ShardAttempts,
		DisableDegraded:   opts.DisableDegraded,
		Logf:              opts.Logf,
		OnSpawn:           opts.OnSpawn,
	}, total, preDone, shard.Callbacks{
		ShardDone: collect,
		HealInput: func(sh int) error {
			return inStore.Put(sh, fmt.Sprintf("shard-%d", sh), blobs[sh])
		},
		ExecLocal: func(ctx context.Context, sh, epoch int) error {
			if err := c.ExecShard(ctx, dir, sh, epoch, program, nil); err != nil {
				return err
			}
			return collect(sh, epoch)
		},
	})
	report.Stats = stats
	if err != nil {
		return nil, report, err
	}

	out := make([]*Ciphertext, 0, len(inputs))
	for sh := 0; sh < total; sh++ {
		if results[sh] == nil {
			return nil, report, fherr.Wrap(fherr.ErrInvariant, "bitpacker: shard %d reported done without a collected result", sh)
		}
		out = append(out, results[sh]...)
	}
	if !temp && !opts.Keep {
		if err := clearExchange(dir); err != nil {
			return out, report, fmt.Errorf("bitpacker: clear exchange dir after success: %w", err)
		}
	}
	return out, report, nil
}
