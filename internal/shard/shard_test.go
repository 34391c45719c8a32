package shard_test

// Fault-tolerance tests for sharded execution: every process-level fault
// class (crash, hang, delayed heartbeat, corrupt output, cancellation,
// missing worker binary) must leave the job's output bit-identical to
// the unsharded in-process run on both backends, with typed errors only
// on breaker/budget exhaustion. Worker processes are this test binary
// re-exec'd: TestMain routes a process spawned with the shard
// environment into worker.Main (a loopback fleet member the supervisor
// dials), so workers carry the same -race instrumentation as the test.

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"bitpacker"
	"bitpacker/internal/chaos"
	"bitpacker/internal/shard"
	"bitpacker/internal/shard/worker"
)

func TestMain(m *testing.M) {
	if worker.IsWorker() {
		os.Exit(worker.Main())
	}
	os.Exit(m.Run())
}

func testCtx(t *testing.T, scheme bitpacker.Scheme) *bitpacker.Context {
	t.Helper()
	ctx, err := bitpacker.New(testConfig(scheme))
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func testConfig(scheme bitpacker.Scheme) bitpacker.Config {
	return bitpacker.Config{
		Scheme:          scheme,
		LogN:            9,
		Levels:          3,
		ScaleBits:       40,
		WordBits:        61,
		Seed:            11,
		CheckInvariants: true,
	}
}

// selfExec returns this test binary as the worker command.
func selfExec(t *testing.T) []string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return []string{exe}
}

func encryptBatch(t *testing.T, ctx *bitpacker.Context, n int, seed uint64) []*bitpacker.Ciphertext {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	cts := make([]*bitpacker.Ciphertext, n)
	for i := range cts {
		vals := make([]complex128, ctx.Slots())
		for j := range vals {
			vals[j] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
		}
		ct, err := ctx.Encrypt(vals)
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
	}
	return cts
}

var testProgram = []bitpacker.ShardStep{
	{Op: bitpacker.ShardOpSquare},
	{Op: bitpacker.ShardOpOffset, Arg: 0.5},
	{Op: bitpacker.ShardOpScale, Arg: 1.25},
}

// unshardedRun is the ground truth: the program applied in-process to
// the whole batch.
func unshardedRun(t *testing.T, ctx *bitpacker.Context, program []bitpacker.ShardStep, inputs []*bitpacker.Ciphertext) []*bitpacker.Ciphertext {
	t.Helper()
	state := inputs
	for _, st := range program {
		var err error
		state, err = ctx.ApplyShardStep(st, state)
		if err != nil {
			t.Fatalf("unsharded %s: %v", st.Op, err)
		}
	}
	return state
}

func assertBitIdentical(t *testing.T, ctx *bitpacker.Context, label string, got, want []*bitpacker.Ciphertext) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(want))
	}
	for i := range want {
		gb, err := ctx.MarshalCiphertext(got[i])
		if err != nil {
			t.Fatal(err)
		}
		wb, err := ctx.MarshalCiphertext(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%s: output %d is not bit-identical to the unsharded run", label, i)
		}
	}
}

func forBothSchemes(t *testing.T, f func(t *testing.T, scheme bitpacker.Scheme)) {
	for _, sc := range []struct {
		name   string
		scheme bitpacker.Scheme
	}{{"RNSCKKS", bitpacker.RNSCKKS}, {"BitPacker", bitpacker.BitPacker}} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) { f(t, sc.scheme) })
	}
}

// baseOpts are fast-failover supervisor options for tests.
func baseOpts(t *testing.T, env ...string) bitpacker.ShardOptions {
	return bitpacker.ShardOptions{
		Dir:               t.TempDir(),
		Workers:           2,
		WorkerCommand:     selfExec(t),
		WorkerEnv:         env,
		EngineWorkers:     2,
		HeartbeatInterval: 25 * time.Millisecond,
		Respawn:           bitpacker.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 5},
		Logf:              t.Logf,
	}
}

// TestShardedBitIdentical is the fault-free baseline: sharded output
// equals unsharded output exactly on both backends.
func TestShardedBitIdentical(t *testing.T) {
	forBothSchemes(t, func(t *testing.T, scheme bitpacker.Scheme) {
		ctx := testCtx(t, scheme)
		inputs := encryptBatch(t, ctx, 6, 42)
		want := unshardedRun(t, ctx, testProgram, inputs)
		got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, baseOpts(t))
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, ctx, "fault-free", got, want)
		if report.Stats.Crashes != 0 || report.Stats.Hangs != 0 || report.Stats.DegradedEntries != 0 {
			t.Fatalf("fault-free run reported recovery actions: %+v", report.Stats)
		}
		if report.Shards != 6 {
			t.Fatalf("expected 6 shards (size-1 default), got %d", report.Shards)
		}
		if report.PredictedMicrosPerCt <= 0 || report.PredictedSpeedup < 1 {
			t.Fatalf("degenerate plan: %+v", report)
		}
	})
}

// TestShardedWorkerCrash kills a worker mid-shard (chaos crash at a step
// boundary) and requires bit-identical output after respawn and
// re-dispatch.
func TestShardedWorkerCrash(t *testing.T) {
	forBothSchemes(t, func(t *testing.T, scheme bitpacker.Scheme) {
		ctx := testCtx(t, scheme)
		inputs := encryptBatch(t, ctx, 6, 43)
		want := unshardedRun(t, ctx, testProgram, inputs)
		fault := chaos.ProcFault{Kind: chaos.ProcCrash, Shard: 2, Step: 1, Times: 1}
		opts := baseOpts(t, chaos.ProcFaultEnv+"="+fault.Encode())
		got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, ctx, "crash", got, want)
		if report.Stats.Crashes == 0 {
			t.Fatalf("crash was injected but not observed: %+v", report.Stats)
		}
		if report.Stats.Respawns == 0 {
			t.Fatalf("crashed worker was not respawned: %+v", report.Stats)
		}
		if report.Stats.Redispatches == 0 {
			t.Fatalf("crashed worker's shard was not re-dispatched: %+v", report.Stats)
		}
	})
}

// TestShardedWorkerHang wedges a worker (compute and heartbeats stop);
// the supervisor must detect the missed heartbeats, SIGKILL it, and
// recover the shard bit-exactly.
func TestShardedWorkerHang(t *testing.T) {
	forBothSchemes(t, func(t *testing.T, scheme bitpacker.Scheme) {
		ctx := testCtx(t, scheme)
		inputs := encryptBatch(t, ctx, 4, 44)
		want := unshardedRun(t, ctx, testProgram, inputs)
		fault := chaos.ProcFault{Kind: chaos.ProcHang, Shard: 1, Step: 1, Times: 1}
		opts := baseOpts(t, chaos.ProcFaultEnv+"="+fault.Encode())
		opts.HeartbeatTimeout = 250 * time.Millisecond
		got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, ctx, "hang", got, want)
		if report.Stats.Hangs == 0 {
			t.Fatalf("hang was injected but not detected: %+v", report.Stats)
		}
		if report.Stats.Redispatches == 0 {
			t.Fatalf("hung worker's shard was not re-dispatched: %+v", report.Stats)
		}
	})
}

// TestShardedBeatDelay stalls heartbeats for less than the hang
// deadline: the worker must NOT be killed and the job completes without
// recovery actions.
func TestShardedBeatDelay(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	inputs := encryptBatch(t, ctx, 4, 45)
	want := unshardedRun(t, ctx, testProgram, inputs)
	fault := chaos.ProcFault{Kind: chaos.ProcBeatDelay, Shard: 1, Step: 1, Times: 1, DelayMs: 120}
	opts := baseOpts(t, chaos.ProcFaultEnv+"="+fault.Encode())
	opts.HeartbeatTimeout = 600 * time.Millisecond
	got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, ctx, "beat-delay", got, want)
	if report.Stats.Hangs != 0 || report.Stats.Crashes != 0 {
		t.Fatalf("sub-deadline heartbeat delay killed a worker: %+v", report.Stats)
	}
}

// TestShardedCorruptOutput has a worker publish a torn (corrupted)
// output, report success, and die. The supervisor's checksum validation
// must reject the file, re-dispatch the shard, and the redo — resuming
// from the shard's intact per-step checkpoints — must produce the
// bit-identical result.
func TestShardedCorruptOutput(t *testing.T) {
	forBothSchemes(t, func(t *testing.T, scheme bitpacker.Scheme) {
		ctx := testCtx(t, scheme)
		inputs := encryptBatch(t, ctx, 4, 46)
		want := unshardedRun(t, ctx, testProgram, inputs)
		fault := chaos.ProcFault{Kind: chaos.ProcCorruptOut, Shard: 1, Step: 0, Times: 1}
		opts := baseOpts(t, chaos.ProcFaultEnv+"="+fault.Encode())
		got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, ctx, "corrupt-out", got, want)
		if report.Stats.ShardRetries == 0 {
			t.Fatalf("corrupt output was not rejected and retried: %+v", report.Stats)
		}
	})
}

// TestShardedCancelNotACrash is the error-laundering satellite: workers
// killed because the job context was canceled must surface ErrCanceled,
// and must NOT be charged to the circuit breaker as crashes.
func TestShardedCancelNotACrash(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	inputs := encryptBatch(t, ctx, 8, 47)
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := baseOpts(t)
	var once sync.Once
	opts.OnSpawn = func(worker, pid int) {
		once.Do(cancel) // cancel the job as soon as the first worker is up
	}
	_, report, err := ctx.RunSharded(runCtx, testProgram, inputs, opts)
	if err == nil {
		t.Fatal("canceled job reported success")
	}
	if !errors.Is(err, bitpacker.ErrCanceled) {
		t.Fatalf("canceled job returned %v, want ErrCanceled", err)
	}
	if report.Stats.Crashes != 0 {
		t.Fatalf("cancellation was laundered into %d crashes: %+v", report.Stats.Crashes, report.Stats)
	}
}

// TestShardedDegradedNoBinary removes the worker binary entirely: every
// slot retires on its terminal spawn error and the supervisor must fall
// back to bit-identical in-process execution.
func TestShardedDegradedNoBinary(t *testing.T) {
	forBothSchemes(t, func(t *testing.T, scheme bitpacker.Scheme) {
		ctx := testCtx(t, scheme)
		inputs := encryptBatch(t, ctx, 4, 48)
		want := unshardedRun(t, ctx, testProgram, inputs)
		opts := baseOpts(t)
		opts.WorkerCommand = []string{"/nonexistent/bpworker-missing"}
		got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, ctx, "degraded", got, want)
		if report.Stats.DegradedEntries != 1 {
			t.Fatalf("expected one degraded-mode entry, got %+v", report.Stats)
		}
		if int(report.Stats.LocalShards) != report.Shards {
			t.Fatalf("degraded mode ran %d of %d shards locally", report.Stats.LocalShards, report.Shards)
		}
		if report.Stats.WorkersRetired == 0 {
			t.Fatalf("spawn-failed slots were not retired: %+v", report.Stats)
		}
	})
}

// TestShardedBreakerExhaustion crashes every worker at every attempt
// with degraded mode disabled: the job must fail with the typed
// ErrFaultUnrecovered once the per-worker breakers give up — never a
// hang, never an untyped error.
func TestShardedBreakerExhaustion(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	inputs := encryptBatch(t, ctx, 2, 49)
	fault := chaos.ProcFault{Kind: chaos.ProcCrash, Shard: -1, Step: 0, Times: 1000}
	opts := baseOpts(t, chaos.ProcFaultEnv+"="+fault.Encode())
	opts.Respawn = bitpacker.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, BreakerThreshold: 1, Seed: 5}
	opts.DisableDegraded = true
	_, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
	if err == nil {
		t.Fatal("always-crashing fleet reported success")
	}
	if !errors.Is(err, bitpacker.ErrFaultUnrecovered) {
		t.Fatalf("exhausted fleet returned %v, want ErrFaultUnrecovered", err)
	}
	if report.Stats.Crashes == 0 || report.Stats.WorkersRetired == 0 {
		t.Fatalf("exhaustion without observed crashes/retirements: %+v", report.Stats)
	}
}

// TestShardedResume runs a job twice over the same exchange directory:
// the second run must accept the first run's intact outputs without
// recomputing (and without spawning any workers at all).
func TestShardedResume(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	inputs := encryptBatch(t, ctx, 4, 50)
	want := unshardedRun(t, ctx, testProgram, inputs)
	opts := baseOpts(t)
	opts.Keep = true
	got, _, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, ctx, "first run", got, want)
	got2, report2, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, ctx, "resumed run", got2, want)
	if report2.Resumed != report2.Shards {
		t.Fatalf("second run resumed %d of %d shards", report2.Resumed, report2.Shards)
	}
	if report2.Stats.Spawns != 0 {
		t.Fatalf("fully-resumed run spawned %d workers", report2.Stats.Spawns)
	}
}

// TestShardSoak kills random live workers throughout the job and gates
// on zero lost or duplicated shards: the output must be exactly the
// unsharded batch, in order, bit-identical — every killed worker's
// shards recovered, none applied twice.
func TestShardSoak(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	inputs := encryptBatch(t, ctx, 10, 51)
	want := unshardedRun(t, ctx, testProgram, inputs)

	var mu sync.Mutex
	pids := map[int]int{} // slot -> live pid
	var spawned []int     // every pid the supervisor ever started
	opts := baseOpts(t)
	opts.Workers = 3
	opts.Respawn = bitpacker.RetryPolicy{MaxAttempts: 1000, BaseDelay: time.Millisecond, BreakerThreshold: 1000, Seed: 5}
	opts.OnSpawn = func(slot, pid int) {
		mu.Lock()
		pids[slot] = pid
		spawned = append(spawned, pid)
		mu.Unlock()
	}

	stop := make(chan struct{})
	var killer sync.WaitGroup
	killer.Add(1)
	go func() {
		defer killer.Done()
		rng := rand.New(rand.NewPCG(99, 7))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(150+rng.IntN(150)) * time.Millisecond):
			}
			mu.Lock()
			var live []int
			for _, pid := range pids {
				live = append(live, pid)
			}
			mu.Unlock()
			if len(live) == 0 {
				continue
			}
			victim := live[rng.IntN(len(live))]
			if p, err := os.FindProcess(victim); err == nil {
				p.Kill() // the process may already be gone; that's fine
			}
		}
	}()

	got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
	close(stop)
	killer.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, ctx, "soak", got, want)
	t.Logf("soak stats: %+v", report.Stats)
	if len(got) != len(inputs) {
		t.Fatalf("soak lost or duplicated shards: %d outputs for %d inputs", len(got), len(inputs))
	}
	// Teardown: every worker the supervisor started — killed, crashed or
	// drained — has been reaped by the time the job returns.
	for _, pid := range spawned {
		if p, err := os.FindProcess(pid); err == nil && p.Signal(syscall.Signal(0)) == nil {
			t.Errorf("worker pid %d outlived the job", pid)
		}
	}
}

// TestJobFileRoundTrip covers the durable job description.
func TestJobFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jf := shard.JobFile{
		Version:       shard.JobFileVersion,
		Fingerprint:   0xfeedface,
		Config:        []byte(`{"LogN":9}`),
		Program:       []byte(`[{"op":"square"}]`),
		Shards:        []int{2, 2, 1},
		EngineWorkers: 2,
	}
	if err := shard.WriteJobFile(dir, jf); err != nil {
		t.Fatal(err)
	}
	got, err := shard.ReadJobFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != jf.Fingerprint || len(got.Shards) != 3 || got.EngineWorkers != 2 {
		t.Fatalf("round trip mangled the job file: %+v", got)
	}
	if _, err := shard.ReadJobFile(t.TempDir()); !os.IsNotExist(err) {
		t.Fatalf("missing job file should report os.ErrNotExist, got %v", err)
	}
}

// TestProcFaultTokens verifies the cross-process firing budget: a Times=2
// fault fires exactly twice no matter how many processes ask.
func TestProcFaultTokens(t *testing.T) {
	dir := t.TempDir()
	f := chaos.ProcFault{Kind: chaos.ProcCrash, Shard: 1, Step: 0, Times: 2}
	t.Setenv(chaos.ProcFaultEnv, f.Encode())
	fired := 0
	for i := 0; i < 5; i++ {
		if chaos.FireProc(dir, 1, 0) != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("Times=2 fault fired %d times", fired)
	}
	if chaos.FireProc(dir, 0, 0) != nil {
		t.Fatal("fault fired for a non-matching shard")
	}
	if chaos.FireProc(dir, 1, 1) != nil {
		t.Fatal("fault fired for a non-matching step")
	}
}

// TestShardedTypedErrors covers input validation.
func TestShardedTypedErrors(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	inputs := encryptBatch(t, ctx, 1, 52)
	if _, _, err := ctx.RunSharded(context.Background(), nil, inputs, bitpacker.ShardOptions{}); !errors.Is(err, bitpacker.ErrInvalidParams) {
		t.Fatalf("empty program: %v, want ErrInvalidParams", err)
	}
	if _, _, err := ctx.RunSharded(context.Background(), []bitpacker.ShardStep{{Op: "bogus"}}, inputs, bitpacker.ShardOptions{}); !errors.Is(err, bitpacker.ErrInvalidParams) {
		t.Fatalf("bogus op: %v, want ErrInvalidParams", err)
	}
	if _, _, err := ctx.RunSharded(context.Background(), testProgram, nil, bitpacker.ShardOptions{}); !errors.Is(err, bitpacker.ErrInvalidParams) {
		t.Fatalf("no inputs: %v, want ErrInvalidParams", err)
	}
	// A program deeper than the chain's three levels is refused before an
	// input is published or a worker started.
	opts := baseOpts(t)
	opts.WorkerCommand = selfExec(t)
	opts.OnSpawn = func(worker, pid int) { t.Errorf("worker %d (pid %d) started for a refused job", worker, pid) }
	tooDeep := []bitpacker.ShardStep{{Op: bitpacker.ShardOpQuartic}, {Op: bitpacker.ShardOpSquare}, {Op: bitpacker.ShardOpSquare}}
	if _, _, err := ctx.RunSharded(context.Background(), tooDeep, inputs, opts); !errors.Is(err, bitpacker.ErrChainExhausted) {
		t.Fatalf("too-deep program: %v, want ErrChainExhausted", err)
	}
	if left, err := os.ReadDir(opts.Dir); err != nil || len(left) != 0 {
		t.Fatalf("refused job left %v in the exchange directory (%v)", left, err)
	}
}
