package bitpacker

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sync"

	"bitpacker/internal/ckks"
	"bitpacker/internal/fherr"
	"bitpacker/internal/pipeline"
	"bitpacker/internal/shard"
)

// EncodeCiphertexts serializes a ciphertext batch in the shard-exchange
// wire format (the pipeline checkpoint state encoding).
func (c *Context) EncodeCiphertexts(cts []*Ciphertext) ([]byte, error) {
	settled, err := c.settleState(cts)
	if err != nil {
		return nil, err
	}
	return pipeline.EncodeState(unwrapState(settled))
}

// DecodeCiphertexts decodes an EncodeCiphertexts batch. Every ciphertext
// is validated against the context's chain and its RRNS spare channel
// reseeded (deserialization is a trusted point, like a fresh encryption)
// by pipeline.DecodeState, once: both are O(R·N) passes per ciphertext,
// and a shard's batch is decoded on each side of the exchange. A broken
// frame wraps ErrInvalidParams; a ciphertext's typed refusal (a failed
// invariant is ErrInvariant) comes back as it is.
func (c *Context) DecodeCiphertexts(data []byte) ([]*Ciphertext, error) {
	inner, err := pipeline.DecodeState(c.params, data)
	if err != nil {
		if !fherr.Typed(err) {
			err = fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: %v", err)
		}
		return nil, err
	}
	return wrapState(inner), nil
}

// MaxCiphertextBytes bounds the encoding of any ciphertext of the
// context's chain (MarshalCiphertext): a top-level one's size. Times a
// shard's ciphertext count, it is what both ends of the shard wire accept
// as that shard's batch.
func (c *Context) MaxCiphertextBytes() int { return ckks.MaxCiphertextBytes(c.params) }

// ExecShard executes one shard of a sharded job and returns its output
// batch. A shard's one durable record is its final checkpoint, the last
// step's under the shard's directory in the exchange directory dir: when
// it is intact ExecShard returns it and runs nothing; otherwise it runs
// the program in memory on the input batch its assign carried (the
// Config.Retry stage rung kept), then stores and returns the final
// state's encoding. Fleet members and RunSharded's in-process route run
// shards through this one code path, which is what makes every execution
// mode bit-identical. hook, if not nil, is called with the step index
// before each step runs, and with len(program) once the output is durable.
func (c *Context) ExecShard(ctx context.Context, dir string, shardID int, input []byte, program []ShardStep, hook ShardHook) ([]byte, error) {
	store, err := pipeline.NewDirStore(shard.CkptDir(dir, shardID))
	if err != nil {
		return nil, err
	}
	last := len(program) - 1 // a planned program is not empty
	name := stageName(last, program[last])
	_, output, err := c.storedStage(store, last, name)
	if err != nil {
		state, err := c.DecodeCiphertexts(input)
		if err != nil {
			return nil, fmt.Errorf("bitpacker: shard %d input: %w", shardID, err)
		}
		if state, _, err = c.runProgram(ctx, program, state, hook); err == nil {
			output, err = c.EncodeCiphertexts(state)
		}
		if err == nil {
			err = store.Put(last, name, output)
		}
		if err != nil {
			return nil, err
		}
	}
	if hook != nil {
		hook(len(program))
	}
	return output, nil
}

// SupervisorStats counts the shard supervisor's recovery actions
// (respawns, re-dispatches, heartbeat misses, leases stolen, degraded
// entries, ...), alongside KeyCacheStats in the observability surface.
type SupervisorStats = shard.Stats

// RespawnPolicy tunes the shard supervisor's per-worker recovery (see
// ShardOptions.Respawn): the fields of RetryPolicy it reads.
type RespawnPolicy = shard.RespawnPolicy

// ShardOptions tunes RunSharded: where the job's exchange directory is,
// whether a fleet runs it and how that fleet is supervised. It is declared
// once, as shard.Options; the field docs are there.
type ShardOptions = shard.Options

// ShardReport describes what a RunSharded call did and predicted.
type ShardReport struct {
	// Shards and ShardSizes describe the partition; Workers is the
	// requested fleet size (0 for the in-process route).
	Shards     int
	ShardSizes []int
	Workers    int
	// PredictedMicrosPerCt is ProgramPlan.PredictedMicros for the job's
	// program at the lowest input level; PredictedSpeedup is the
	// model-planned serial/sharded ratio for this partition and fleet.
	PredictedMicrosPerCt float64
	PredictedSpeedup     float64
	// Resumed counts shards whose intact final checkpoints from a previous
	// run were accepted without recomputation.
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
	for _, p := range []string{filepath.Join(dir, "ckpt"), shard.ChaosDir(dir), filepath.Join(dir, "job.json")} {
		if err := os.RemoveAll(p); err != nil {
			return err
		}
	}
	return nil
}

// RunSharded executes a declarative program over a ciphertext batch as
// a durable job: the batch is partitioned into shards, each shard's final
// state is its one checkpoint under the exchange directory, and a rerun
// over the same directory accepts the shards whose one is intact. With no
// fleet (Workers 0, no Addrs) the shards run in-process, in order,
// through ExecShard. Otherwise supervised worker processes run them,
// surviving worker crashes and hangs: each shard's input rides its
// assign and its output the worker's done, and a dead worker's shards
// are re-dispatched to survivors, who recompute them from their input
// unless the final checkpoint landed. A fleet lost altogether leaves the
// shards it did not finish to the in-process route (DegradedEntries,
// LocalShards), or fails the job with ErrFaultUnrecovered under
// DisableDegraded. Either route is bit-identical to running the program
// in-process. See DESIGN.md "Sharded execution & supervision" for the
// failure matrix.
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

	workers := cmp.Or(max(opts.Workers, 0), len(opts.Addrs))
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

	// Partition into contiguous shards, each encoded once: the batch its
	// every assign carries.
	shardSize := opts.ShardSize
	if shardSize <= 0 {
		shardSize = max(1, len(inputs)/(4*max(workers, 1)))
	}
	var sizes []int
	var blobs [][]byte
	for at := 0; at < len(inputs); at += shardSize {
		chunk := inputs[at:min(at+shardSize, len(inputs))]
		blob, err := c.EncodeCiphertexts(chunk)
		if err != nil {
			return nil, report, err
		}
		sizes, blobs = append(sizes, len(chunk)), append(blobs, blob)
	}
	total := len(sizes)
	report.Shards, report.Workers, report.ShardSizes = total, workers, sizes
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

	// A different job's leftovers in the exchange directory — or an
	// unreadable or wrong-version job file — must not be mistaken for
	// resumable state.
	if prev, err := shard.ReadJobFile(dir); (err == nil && prev.Fingerprint != fingerprint) || (err != nil && !os.IsNotExist(err)) {
		if err := clearExchange(dir); err != nil {
			return nil, report, fmt.Errorf("bitpacker: clear stale exchange dir: %w", err)
		}
	}

	engineWorkers := opts.EngineWorkers
	if engineWorkers <= 0 {
		engineWorkers = max(1, runtime.NumCPU()/max(workers, 1))
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

	// Collect results as shards complete. A shard whose final checkpoint
	// a previous run of this job left intact is done already: the
	// fingerprint check above has cleared any other job's. A damaged or
	// missing one is dispatched and recomputed.
	results := make([][]*Ciphertext, total)
	var resMu sync.Mutex
	collect := func(sh int, cts []*Ciphertext) error {
		if len(cts) != sizes[sh] {
			return fherr.Wrap(fherr.ErrInvariant, "bitpacker: shard %d output has %d ciphertexts, want %d", sh, len(cts), sizes[sh])
		}
		resMu.Lock()
		results[sh] = cts
		resMu.Unlock()
		return nil
	}
	receive := func(sh int, batch []byte) error {
		cts, err := c.DecodeCiphertexts(batch)
		if err != nil {
			return err
		}
		return collect(sh, cts)
	}
	preDone := make([]bool, total)
	last := len(program) - 1
	for sh := range preDone {
		store, err := pipeline.NewDirStore(shard.CkptDir(dir, sh))
		if err != nil {
			continue
		}
		if cts, _, err := c.storedStage(store, last, stageName(last, program[last])); err == nil && collect(sh, cts) == nil {
			preDone[sh] = true
			report.Resumed++
		}
	}

	// The in-process route runs every shard not yet done, in order, through
	// ExecShard: all of them with no fleet, none after a fleet that
	// completed the job. A lost fleet hands the job back
	// (shard.ErrFleetLost), which fails it or — degraded — leaves the
	// shards the fleet did not finish to this route.
	var todo []int
	for sh, done := range preDone {
		if !done {
			todo = append(todo, sh)
		}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if workers > 0 && len(todo) > 0 {
		fleet := opts
		fleet.Dir, fleet.Workers, fleet.WorkerCommand = dir, workers, resolveWorkerCommand(opts)
		var err error
		if len(fleet.Addrs) == 0 && len(fleet.WorkerCommand) == 0 {
			err = fmt.Errorf("bitpacker: no worker command or fleet address: %w: %w", shard.ErrFleetLost, fherr.ErrFaultUnrecovered)
		} else {
			report.Stats, err = shard.Run(ctx, fleet, fingerprint, blobs, shard.Limit{Counts: sizes, CiphertextBytes: c.MaxCiphertextBytes()}, preDone, receive)
		}
		switch {
		case err == nil:
			todo = nil
		case opts.DisableDegraded || !errors.Is(err, shard.ErrFleetLost):
			return nil, report, err
		default:
			todo = slices.DeleteFunc(todo, func(sh int) bool { return results[sh] != nil })
			report.Stats.DegradedEntries++
			logf("shard: action=degraded remaining=%d reason=%q", len(todo), err)
		}
	}
	for _, sh := range todo {
		out, err := c.ExecShard(ctx, dir, sh, blobs[sh], program, nil)
		if err == nil {
			err = receive(sh, out)
		}
		if err != nil {
			return nil, report, err
		}
		if report.Stats.DegradedEntries > 0 {
			report.Stats.LocalShards++
			logf("shard: action=local-complete shard=%d", sh)
		}
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
