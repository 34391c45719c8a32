package shard_test

// Network fault-tolerance tests: every network fault class (conn drop
// mid-shard, partition past the lease, duplicate done, stale-epoch
// zombie writes at both the message and the blob layer, full fleet loss)
// must leave the job's output bit-identical to the unsharded in-process
// run, with the recovery visible in the supervisor's counters. Fleet
// members run in-process (worker.Listen on a loopback port) so they
// carry the same -race instrumentation as the supervisor; the cases that
// pin the two address sources to one lane run a second time against
// members the supervisor spawns (this binary re-exec'd).

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"testing"
	"time"

	"bitpacker"
	"bitpacker/internal/chaos"
	"bitpacker/internal/frame"
	"bitpacker/internal/shard"
	"bitpacker/internal/shard/worker"
)

// startFleet runs an in-process fleet member on a loopback port and
// returns its address.
func startFleet(t *testing.T) (*worker.Fleet, string) {
	t.Helper()
	fl, err := worker.Listen("127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	go fl.Serve()
	t.Cleanup(func() { fl.Close() })
	return fl, fl.Addr()
}

// fleetOpts are fast-failover supervisor options for TCP tests: n
// in-process fleet members, one slot each.
func fleetOpts(t *testing.T, n int) bitpacker.ShardOptions {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		_, addrs[i] = startFleet(t)
	}
	return bitpacker.ShardOptions{
		Dir:               t.TempDir(),
		Addrs:             addrs,
		EngineWorkers:     2,
		HeartbeatInterval: 25 * time.Millisecond,
		Respawn:           bitpacker.RespawnPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 5},
		Logf:              t.Logf,
	}
}

// TestTCPShardedBitIdentical is the fault-free fleet baseline: remote
// execution over TCP equals the unsharded in-process run exactly, on
// both backends, with zero recovery actions.
func TestTCPShardedBitIdentical(t *testing.T) {
	forBothSchemes(t, func(t *testing.T, scheme bitpacker.Scheme) {
		ctx := testCtx(t, scheme)
		inputs := encryptBatch(t, ctx, 6, 61)
		want := unshardedRun(t, ctx, testProgram, inputs)
		got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, fleetOpts(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, ctx, "tcp fault-free", got, want)
		st := report.Stats
		if st.Crashes != 0 || st.Hangs != 0 || st.Partitions != 0 || st.DegradedEntries != 0 {
			t.Fatalf("fault-free fleet run reported recovery actions: %+v", st)
		}
		if st.Spawns == 0 {
			t.Fatalf("fleet run never dialed a worker: %+v", st)
		}
	})
}

// lanes runs f once per address source: standing in-process members the
// supervisor dials, and members it spawns for the job. Everything past
// the address is one code path, so a network fault must heal the same way
// on both.
func lanes(t *testing.T, f func(t *testing.T, opts bitpacker.ShardOptions)) {
	t.Run("fleet", func(t *testing.T) { f(t, fleetOpts(t, 2)) })
	t.Run("spawned", func(t *testing.T) { f(t, baseOpts(t)) })
}

// TestTCPConnDropReadopt drops the supervisor connection mid-shard while
// the fleet member keeps computing. The supervisor must treat it as a
// heartbeat miss — reconnect with backoff and re-adopt (or collect the
// flushed completion), never re-dispatch, never count a crash.
func TestTCPConnDropReadopt(t *testing.T) {
	forBothSchemes(t, func(t *testing.T, scheme bitpacker.Scheme) {
		lanes(t, func(t *testing.T, opts bitpacker.ShardOptions) {
			ctx := testCtx(t, scheme)
			inputs := encryptBatch(t, ctx, 6, 62)
			want := unshardedRun(t, ctx, testProgram, inputs)
			fault := chaos.NetFault{Kind: chaos.NetConnDrop, Shard: 2, Step: 1, Times: 1}
			t.Setenv(chaos.NetFaultEnv, fault.Encode()) // reaches an in-process fleet directly, a spawned member by inheritance
			got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, ctx, "conn-drop", got, want)
			st := report.Stats
			if st.ConnDrops == 0 {
				t.Fatalf("conn drop was injected but not observed: %+v", st)
			}
			if st.Reconnects == 0 {
				t.Fatalf("dropped connection was never healed: %+v", st)
			}
			if st.Crashes != 0 || st.Partitions != 0 {
				t.Fatalf("sub-deadline conn drop was escalated: %+v", st)
			}
			if st.Redispatches != 0 {
				t.Fatalf("conn drop caused a re-dispatch despite the worker computing on: %+v", st)
			}
		})
	})
}

// TestTCPBeatDelay suppresses fleet heartbeats for less than the
// deadline: the lease must survive untouched.
func TestTCPBeatDelay(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	inputs := encryptBatch(t, ctx, 4, 63)
	want := unshardedRun(t, ctx, testProgram, inputs)
	fault := chaos.NetFault{Kind: chaos.NetBeatDelay, Shard: 1, Step: 1, Times: 1, DelayMs: 120}
	t.Setenv(chaos.NetFaultEnv, fault.Encode())
	opts := fleetOpts(t, 2)
	opts.HeartbeatTimeout = 600 * time.Millisecond
	got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, ctx, "net beat-delay", got, want)
	st := report.Stats
	if st.Hangs != 0 || st.Partitions != 0 || st.Redispatches != 0 {
		t.Fatalf("sub-deadline beat delay broke the lease: %+v", st)
	}
}

// TestTCPBeatsPrecedeContextBuild gives a cold member a context whose build
// (keygen for four dozen rotation keys) outlasts the heartbeat timeout
// several times over: beats must flow from the hello on, so the build is
// never mistaken for a hang — whichever way the supervisor came by the
// member's address.
func TestTCPBeatsPrecedeContextBuild(t *testing.T) {
	cfg := testConfig(bitpacker.BitPacker)
	cfg.LogN, cfg.Levels, cfg.CheckInvariants = 12, 6, false
	for r := 1; r <= 48; r++ {
		cfg.Rotations = append(cfg.Rotations, r)
	}
	t0 := time.Now()
	ctx, err := bitpacker.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 150 * time.Millisecond
	if build := time.Since(t0); build < 2*timeout {
		t.Skipf("context builds in %v: too fast to outlast a %v heartbeat timeout", build, timeout)
	}
	program := []bitpacker.ShardStep{{Op: bitpacker.ShardOpNegate}}
	inputs := encryptBatch(t, ctx, 2, 70)
	want := unshardedRun(t, ctx, program, inputs)
	lanes(t, func(t *testing.T, opts bitpacker.ShardOptions) {
		opts.Workers = 1
		opts.Addrs = opts.Addrs[:min(1, len(opts.Addrs))]
		opts.HeartbeatTimeout = timeout
		got, report, err := ctx.RunSharded(context.Background(), program, inputs, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, ctx, "slow build", got, want)
		if st := report.Stats; st.Hangs != 0 || st.Crashes != 0 || st.Spawns != 1 {
			t.Fatalf("a context build longer than the heartbeat timeout was taken for a fault: %+v", st)
		}
	})
}

// TestTCPPartitionPastLease partitions a fleet member (connection
// dropped AND re-handshakes refused) for longer than the heartbeat
// deadline: the lease must break, the shard must be re-dispatched from
// its checkpoints, and the healed fleet must finish the job
// bit-identically — with the zombie's late reports fenced by epoch.
func TestTCPPartitionPastLease(t *testing.T) {
	forBothSchemes(t, func(t *testing.T, scheme bitpacker.Scheme) {
		ctx := testCtx(t, scheme)
		inputs := encryptBatch(t, ctx, 6, 64)
		want := unshardedRun(t, ctx, testProgram, inputs)
		fault := chaos.NetFault{Kind: chaos.NetPartition, Shard: 1, Step: 1, Times: 1, DelayMs: 700}
		t.Setenv(chaos.NetFaultEnv, fault.Encode())
		opts := fleetOpts(t, 2)
		opts.HeartbeatTimeout = 150 * time.Millisecond
		// Keep redialing through the partition instead of retiring.
		opts.Respawn = bitpacker.RespawnPolicy{MaxAttempts: 1000, BaseDelay: 20 * time.Millisecond, BreakerThreshold: 1000, Seed: 5}
		got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, ctx, "partition", got, want)
		st := report.Stats
		if st.Partitions == 0 {
			t.Fatalf("partition was injected but never declared: %+v", st)
		}
		if st.Redispatches == 0 {
			t.Fatalf("partitioned lease was not re-dispatched: %+v", st)
		}
		if st.DegradedEntries != 0 {
			t.Fatalf("partition of one member degraded the whole fleet: %+v", st)
		}
	})
}

// TestTCPDuplicateDone has the worker report a completion twice: the
// supervisor must apply it once and count the duplicate.
func TestTCPDuplicateDone(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	inputs := encryptBatch(t, ctx, 6, 65)
	want := unshardedRun(t, ctx, testProgram, inputs)
	fault := chaos.NetFault{Kind: chaos.NetDupDone, Shard: 1, Step: 0, Times: 1}
	t.Setenv(chaos.NetFaultEnv, fault.Encode())
	got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, fleetOpts(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, ctx, "dup-done", got, want)
	if len(got) != len(inputs) {
		t.Fatalf("duplicate done duplicated output: %d for %d inputs", len(got), len(inputs))
	}
	if report.Stats.DuplicateDones == 0 {
		t.Fatalf("duplicate done was not detected: %+v", report.Stats)
	}
}

// TestTCPStaleEpochDone replays a done stamped with the previous lease
// epoch ahead of the real one — the fencing test at the message layer.
// The supervisor must reject the stale report (counted) and accept only
// the correctly-stamped one.
func TestTCPStaleEpochDone(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	inputs := encryptBatch(t, ctx, 6, 66)
	want := unshardedRun(t, ctx, testProgram, inputs)
	fault := chaos.NetFault{Kind: chaos.NetStaleDone, Shard: 2, Step: 0, Times: 1}
	t.Setenv(chaos.NetFaultEnv, fault.Encode())
	got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, fleetOpts(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, ctx, "stale-done", got, want)
	if report.Stats.StaleEpochRejects == 0 {
		t.Fatalf("stale-epoch done was not rejected: %+v", report.Stats)
	}
}

// TestTCPStaleEpochBlob overwrites the shard's durable output with a
// stamp from the previous epoch while reporting done under the current
// one — the fencing test at the blob layer (a zombie's file write).
// Output validation must reject the stale stamp, count it, and
// re-dispatch the shard until a correctly-stamped output lands.
func TestTCPStaleEpochBlob(t *testing.T) {
	forBothSchemes(t, func(t *testing.T, scheme bitpacker.Scheme) {
		ctx := testCtx(t, scheme)
		inputs := encryptBatch(t, ctx, 6, 67)
		want := unshardedRun(t, ctx, testProgram, inputs)
		fault := chaos.NetFault{Kind: chaos.NetStaleBlob, Shard: 1, Step: 0, Times: 1}
		t.Setenv(chaos.NetFaultEnv, fault.Encode())
		got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, fleetOpts(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, ctx, "stale-blob", got, want)
		st := report.Stats
		if st.StaleEpochRejects == 0 {
			t.Fatalf("stale-epoch blob was not rejected: %+v", st)
		}
		if st.ShardRetries == 0 {
			t.Fatalf("stale-epoch blob did not force a re-dispatch: %+v", st)
		}
	})
}

// TestTCPFullFleetLoss points the supervisor at dead addresses: every
// slot must exhaust its redials, retire, and the job must degrade to
// bit-identical in-process execution.
func TestTCPFullFleetLoss(t *testing.T) {
	forBothSchemes(t, func(t *testing.T, scheme bitpacker.Scheme) {
		ctx := testCtx(t, scheme)
		inputs := encryptBatch(t, ctx, 4, 68)
		want := unshardedRun(t, ctx, testProgram, inputs)
		// A freshly closed listener's port: nothing is listening there.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dead := ln.Addr().String()
		ln.Close()
		opts := bitpacker.ShardOptions{
			Dir:               t.TempDir(),
			Addrs:             []string{dead, dead},
			EngineWorkers:     2,
			HeartbeatInterval: 25 * time.Millisecond,
			Respawn:           bitpacker.RespawnPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, BreakerThreshold: 1, Seed: 5},
			Logf:              t.Logf,
		}
		got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, ctx, "fleet-loss", got, want)
		st := report.Stats
		if st.DegradedEntries != 1 {
			t.Fatalf("expected one degraded-mode entry, got %+v", st)
		}
		if int(st.LocalShards) != report.Shards {
			t.Fatalf("degraded mode ran %d of %d shards locally", st.LocalShards, report.Shards)
		}
		if st.WorkersRetired == 0 {
			t.Fatalf("unreachable fleet slots were not retired: %+v", st)
		}
	})
}

// TestTCPFleetResume drains a fleet job after killing it mid-flight via
// cancellation, then reruns over the same exchange directory: finished
// shards resume without recomputation and the result stays
// bit-identical.
func TestTCPFleetResume(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	inputs := encryptBatch(t, ctx, 6, 69)
	want := unshardedRun(t, ctx, testProgram, inputs)
	opts := fleetOpts(t, 2)
	opts.Keep = true
	got, _, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, ctx, "fleet first run", got, want)
	got2, report2, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, ctx, "fleet resumed run", got2, want)
	if report2.Resumed != report2.Shards {
		t.Fatalf("second run resumed %d of %d shards", report2.Resumed, report2.Shards)
	}
	if report2.Stats.Spawns != 0 {
		t.Fatalf("fully-resumed run dialed %d workers", report2.Stats.Spawns)
	}
}

// TestFleetRejectsBadFingerprint dials a fleet directly with a hello the
// job file on disk does not back: a fingerprint that does not match it,
// or a matching one for a program the op table refuses. The fleet must
// answer with a reject at the handshake, not serve the job (and fail
// every shard of it ShardAttempts times).
func TestFleetRejectsBadFingerprint(t *testing.T) {
	cfgJSON, err := json.Marshal(testConfig(bitpacker.BitPacker))
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startFleet(t)
	for _, tc := range []struct {
		name, program string
		helloFP       uint64
	}{
		{"fingerprint mismatch", `[{"op":"square"}]`, 222},
		{"unknown op", `[{"op":"square"},{"op":"cube"}]`, 111},
	} {
		dir := t.TempDir()
		if err := shard.WriteJobFile(dir, shard.JobFile{
			Version:     shard.JobFileVersion,
			Fingerprint: 111,
			Config:      cfgJSON,
			Program:     []byte(tc.program),
			Shards:      []int{1},
		}); err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := shard.WriteMessage(conn, shard.Msg{Type: shard.MsgHello, Dir: dir, Fingerprint: tc.helloFP, BeatMs: 50}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		br := bufio.NewReader(conn)
		m, err := shard.ReadMessage(br)
		for err == nil && m.Type == shard.MsgBeat { // beats precede the context build
			m, err = shard.ReadMessage(br)
		}
		if err != nil {
			t.Fatalf("%s: no reject answer: %v", tc.name, err)
		}
		if m.Type != shard.MsgReject {
			t.Fatalf("%s answered with %q, want reject", tc.name, m.Type)
		}
	}
}

// TestFleetSpawnedMemberServesOnlyItsDir starts a worker the way the
// supervisor does — this binary with the exchange directory in its
// environment — and checks the two things process ownership rests on: it
// refuses a hello for any directory but its own, and it exits when its
// stdin closes (which is also what a dead supervisor looks like).
func TestFleetSpawnedMemberServesOnlyItsDir(t *testing.T) {
	cmd := exec.Command(selfExec(t)[0])
	cmd.Env = append(os.Environ(), shard.EnvDir+"="+t.TempDir())
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	addr, err := frame.Expect(stdout, frame.Addr, 1<<10)
	if err != nil {
		t.Fatalf("spawned member announced no address: %v", err)
	}
	conn, err := net.Dial("tcp", string(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := shard.WriteMessage(conn, shard.Msg{Type: shard.MsgHello, Dir: t.TempDir(), Fingerprint: 1, BeatMs: 50}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	if m, err := shard.ReadMessage(bufio.NewReader(conn)); err != nil || m.Type != shard.MsgReject {
		t.Fatalf("hello for a foreign directory answered with %q (%v), want reject", m.Type, err)
	}
	stdin.Close()
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("spawned member exited uncleanly after stdin closed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("spawned member outlived its closed stdin")
	}
}
