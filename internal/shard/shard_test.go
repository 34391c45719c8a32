package shard_test

// Fault-tolerance tests for sharded execution: every process-level fault
// class (crash, hang, corrupt output, cancellation, missing worker
// binary) must leave the job's output bit-identical to
// the unsharded in-process run on both backends, with typed errors only
// on breaker/budget exhaustion. Worker processes are this test binary
// re-exec'd: TestMain routes a process spawned with the shard
// environment into worker.Main (a loopback fleet member the supervisor
// dials), so workers carry the same -race instrumentation as the test.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bitpacker"
	"bitpacker/internal/chaos"
	"bitpacker/internal/pipeline"
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

// jobProgram is the benchmark's shape of program: six steps.
var jobProgram = []bitpacker.ShardStep{
	{Op: bitpacker.ShardOpSquare},
	{Op: bitpacker.ShardOpOffset, Arg: 0.5},
	{Op: bitpacker.ShardOpNegate},
	{Op: bitpacker.ShardOpOffset, Arg: 1},
	{Op: bitpacker.ShardOpNegate},
	{Op: bitpacker.ShardOpOffset, Arg: 0.25},
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

// spawnLine is the supervisor's log line for a worker it spawned: the
// slot and the pid its peer names. assignLine is its line for a lease:
// the slot, the pid and the shard.
var (
	spawnLine  = regexp.MustCompile(`action=(?:re)?spawn worker=(\d+) peer=pid (\d+) at `)
	assignLine = regexp.MustCompile(`action=assign worker=(\d+) peer=pid (\d+) at \S+ shard=(\d+) `)
)

// onLine wraps opts.Logf so that f observes the integer submatches of
// every supervisor log line re matches.
func onLine(opts *bitpacker.ShardOptions, re *regexp.Regexp, f func(n []int)) {
	logf := opts.Logf
	opts.Logf = func(format string, args ...any) {
		if m := re.FindStringSubmatch(fmt.Sprintf(format, args...)); m != nil {
			n := make([]int, len(m)-1)
			for i, s := range m[1:] {
				n[i], _ = strconv.Atoi(s)
			}
			f(n)
		}
		logf(format, args...)
	}
}

// onSpawn has f observe every worker session start of a spawned fleet,
// as its spawn or respawn line reports it.
func onSpawn(opts *bitpacker.ShardOptions, f func(slot, pid int)) {
	onLine(opts, spawnLine, func(n []int) { f(n[0], n[1]) })
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

// baseOpts are fast-failover supervisor options for tests. A process
// fault reaches the spawned workers through the environment they inherit
// (t.Setenv of chaos.ProcFaultEnv).
func baseOpts(t *testing.T) bitpacker.ShardOptions {
	return bitpacker.ShardOptions{
		Dir:               t.TempDir(),
		Workers:           2,
		WorkerCommand:     selfExec(t),
		EngineWorkers:     2,
		HeartbeatInterval: 25 * time.Millisecond,
		Respawn:           bitpacker.RespawnPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 5},
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
		if report.PredictedSpeedup < 1 {
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
		t.Setenv(chaos.ProcFaultEnv, fault.Encode())
		opts := baseOpts(t)
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

// TestShardedCrashPoints kills the worker running one shard at each of the
// two points a shard can be lost, on the forked and on the TCP route (a
// standing fleet of member processes): mid-program, at step 3 of 6, and
// after its final checkpoint landed but before its done (the hook
// ExecShard fires once the output is durable). A shard's one durable
// record is that final checkpoint. So, when the shard is re-dispatched,
// the first crash has left nothing to resume from and the shard is
// recomputed from the input its assign carries; the second has left the
// record, which the re-dispatch returns without running a step — the
// file is the one that was there, not a rewrite. Either way the job is
// bit-identical to the serial run and the shard's directory holds only
// the final checkpoint.
func TestShardedCrashPoints(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	inputs := encryptBatch(t, ctx, 4, 74)
	want := unshardedRun(t, ctx, jobProgram, inputs)
	const victim = 1
	redispatchLine := regexp.MustCompile(`action=redispatch worker=\d+ shard=(\d+)`)
	for _, route := range []string{"fork", "tcp"} {
		for _, point := range []struct {
			name string
			step int
		}{{"mid-program", 3}, {"after-final", len(jobProgram)}} {
			t.Run(route+"/"+point.name, func(t *testing.T) {
				fault := chaos.ProcFault{Kind: chaos.ProcCrash, Shard: victim, Step: point.step, Times: 1}
				t.Setenv(chaos.ProcFaultEnv, fault.Encode())
				opts := baseOpts(t)
				opts.Keep = true
				if route == "tcp" {
					opts.Workers, opts.WorkerCommand = 0, nil
					opts.Addrs = spawnMembers(t, opts.Dir, 2)
				}
				final := pipeline.DirStorePath(shard.CkptDir(opts.Dir, victim), len(jobProgram)-1)
				// The supervisor logs the re-dispatch before it sends the
				// assign: what the file is then is what the crash left.
				var mu sync.Mutex
				var left os.FileInfo
				var leftErr error
				seen := false
				onLine(&opts, redispatchLine, func(n []int) {
					mu.Lock()
					defer mu.Unlock()
					if n[0] == victim && !seen {
						seen = true
						left, leftErr = os.Stat(final)
					}
				})
				got, report, err := ctx.RunSharded(context.Background(), jobProgram, inputs, opts)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, ctx, route+" "+point.name, got, want)
				mu.Lock()
				defer mu.Unlock()
				if !seen || report.Stats.DegradedEntries != 0 {
					t.Fatalf("shard %d was not re-dispatched to a worker (stats %+v)", victim, report.Stats)
				}
				assertOnlyFinal(t, opts.Dir, victim, len(jobProgram))
				after, err := os.Stat(final)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case point.step < len(jobProgram) && !os.IsNotExist(leftErr):
					t.Fatalf("a crash at step %d left %v (%v) for the re-dispatch, want nothing", point.step, left, leftErr)
				case point.step == len(jobProgram) && (leftErr != nil || !os.SameFile(left, after)):
					t.Fatalf("the re-dispatch rewrote the final checkpoint the crash left (%v): it ran the program again", leftErr)
				}
			})
		}
	}
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
		t.Setenv(chaos.ProcFaultEnv, fault.Encode())
		opts := baseOpts(t)
		opts.HeartbeatInterval = 250 * time.Millisecond / 8 // a 250 ms heartbeat deadline
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

// TestShardedCorruptOutput has a worker publish a torn (corrupted)
// output, report success, and die. The supervisor's checksum validation
// must reject the file, re-dispatch the shard, and the redo — returning
// the shard's intact final checkpoint, which the corruption never
// reached — must produce the bit-identical result.
func TestShardedCorruptOutput(t *testing.T) {
	forBothSchemes(t, func(t *testing.T, scheme bitpacker.Scheme) {
		ctx := testCtx(t, scheme)
		inputs := encryptBatch(t, ctx, 4, 46)
		want := unshardedRun(t, ctx, testProgram, inputs)
		fault := chaos.ProcFault{Kind: chaos.ProcCorruptOut, Shard: 1, Step: 0, Times: 1}
		t.Setenv(chaos.ProcFaultEnv, fault.Encode())
		opts := baseOpts(t)
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
	onSpawn(&opts, func(slot, pid int) {
		once.Do(cancel) // cancel the job as soon as the first worker is up
	})
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

// TestShardedFleetLostMidJob loses the fleet after it has finished part
// of the job: one worker, whose every attempt at shard 2 crashes, and a
// breaker that opens after one exhausted round. The supervisor hands the
// job back, and RunSharded runs in-process exactly the shard no worker
// finished — bit-identical, one degraded entry, and none of the shards a
// worker's done delivered computed again.
func TestShardedFleetLostMidJob(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	inputs := encryptBatch(t, ctx, 4, 53)
	want := unshardedRun(t, ctx, testProgram, inputs)
	fault := chaos.ProcFault{Kind: chaos.ProcCrash, Shard: 2, Step: 0, Times: 1000}
	t.Setenv(chaos.ProcFaultEnv, fault.Encode())
	opts := baseOpts(t)
	opts.Workers, opts.ShardSize = 1, 1
	opts.Respawn = bitpacker.RespawnPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, BreakerThreshold: 1, Seed: 5}
	var mu sync.Mutex
	var local []string
	opts.Logf = func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if strings.Contains(line, "action=local-complete") {
			mu.Lock()
			local = append(local, line)
			mu.Unlock()
		}
		t.Log(line)
	}
	got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, ctx, "fleet lost mid-job", got, want)
	st := report.Stats
	if st.DegradedEntries != 1 || st.WorkersRetired != 1 || st.Crashes == 0 {
		t.Fatalf("want one retired worker and one degraded entry, got %+v", st)
	}
	// Shard 2 is the only one a worker never finished: the others came back
	// on a done, and only shard 2 may run in-process.
	if st.LocalShards != 1 || len(local) != 1 || !strings.HasSuffix(local[0], "shard=2") {
		t.Fatalf("in-process route ran %d shards (%q), want only shard 2", st.LocalShards, local)
	}
}

// TestShardedBreakerExhaustion crashes every worker at every attempt
// with degraded mode disabled: the job must fail with the typed
// ErrFaultUnrecovered once the per-worker breakers give up — never a
// hang, never an untyped error.
func TestShardedBreakerExhaustion(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	inputs := encryptBatch(t, ctx, 2, 49)
	fault := chaos.ProcFault{Kind: chaos.ProcCrash, Shard: -1, Step: 0, Times: 1000}
	t.Setenv(chaos.ProcFaultEnv, fault.Encode())
	opts := baseOpts(t)
	opts.Respawn = bitpacker.RespawnPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, BreakerThreshold: 1, Seed: 5}
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

// TestShardedForeignExchangeCleared reruns the in-process route over an
// exchange directory holding another job's kept checkpoints — the same
// program, so the stage names match, on other inputs — and then over its
// own kept directory with a byte of the job file flipped. Only the
// fingerprint tells either from resumable state: both reruns must clear
// the directory and recompute every shard, bit-identical, where an
// untouched rerun resumes them all.
func TestShardedForeignExchangeCleared(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	opts := bitpacker.ShardOptions{Dir: t.TempDir(), ShardSize: 1, Keep: true}
	if _, _, err := ctx.RunSharded(context.Background(), testProgram, encryptBatch(t, ctx, 3, 74), opts); err != nil {
		t.Fatal(err)
	}
	inputs := encryptBatch(t, ctx, 3, 75)
	want := unshardedRun(t, ctx, testProgram, inputs)
	run := func(what string, resumed int) {
		t.Helper()
		got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, ctx, what, got, want)
		if report.Resumed != resumed {
			t.Fatalf("%s resumed %d of %d shards, want %d", what, report.Resumed, report.Shards, resumed)
		}
	}
	run("over a foreign job's directory", 0)
	run("untouched rerun", len(inputs))
	job := filepath.Join(opts.Dir, "job.json")
	data, err := os.ReadFile(job)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(job, data, 0o644); err != nil {
		t.Fatal(err)
	}
	run("over a damaged job file", 0)
}

// TestShardSoak kills random live workers throughout the job and gates
// on zero lost or duplicated shards: the output must be exactly the
// unsharded batch, in order, bit-identical — every killed worker's
// shards recovered, none applied twice. The first kill fires on the
// first lease the supervisor logs, at the worker holding it (the job can
// end before any timer would), the rest every 150–300 ms at a random
// live worker, and the report must count a crash and a re-dispatch: a
// soak that killed nothing, or no worker with a shard, proves nothing.
func TestShardSoak(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	inputs := encryptBatch(t, ctx, 10, 51)
	want := unshardedRun(t, ctx, testProgram, inputs)

	var mu sync.Mutex
	pids := map[int]int{}      // slot -> live pid
	var spawned []int          // every pid the supervisor ever started
	first := make(chan int, 1) // the pid of the first lease
	opts := baseOpts(t)
	opts.Workers = 3
	opts.Respawn = bitpacker.RespawnPolicy{MaxAttempts: 1000, BaseDelay: time.Millisecond, BreakerThreshold: 1000, Seed: 5}
	onSpawn(&opts, func(slot, pid int) {
		mu.Lock()
		pids[slot] = pid
		spawned = append(spawned, pid)
		mu.Unlock()
	})
	onLine(&opts, assignLine, func(n []int) {
		select {
		case first <- n[1]:
		default:
		}
	})

	stop := make(chan struct{})
	var killer sync.WaitGroup
	killer.Add(1)
	go func() {
		defer killer.Done()
		rng := rand.New(rand.NewPCG(99, 7))
		var victim int
		select {
		case <-stop:
			return
		case victim = <-first:
		}
		for {
			if p, err := os.FindProcess(victim); victim > 0 && err == nil {
				p.Kill() // the process may already be gone; that's fine
			}
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
			victim = 0 // no live worker: nobody to kill this round
			if len(live) > 0 {
				victim = live[rng.IntN(len(live))]
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
	if report.Stats.Crashes == 0 || report.Stats.Redispatches == 0 {
		t.Fatalf("soak killed no worker holding a shard: %+v", report.Stats)
	}
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
	onSpawn(&opts, func(slot, pid int) { t.Errorf("worker %d (pid %d) started for a refused job", slot, pid) })
	tooDeep := []bitpacker.ShardStep{{Op: bitpacker.ShardOpQuartic}, {Op: bitpacker.ShardOpSquare}, {Op: bitpacker.ShardOpSquare}}
	if _, _, err := ctx.RunSharded(context.Background(), tooDeep, inputs, opts); !errors.Is(err, bitpacker.ErrChainExhausted) {
		t.Fatalf("too-deep program: %v, want ErrChainExhausted", err)
	}
	if left, err := os.ReadDir(opts.Dir); err != nil || len(left) != 0 {
		t.Fatalf("refused job left %v in the exchange directory (%v)", left, err)
	}
}
