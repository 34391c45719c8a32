package shard_test

// Network fault-tolerance tests: every network fault class (conn drop
// mid-shard, partition past the lease, held beats, duplicate done, a
// stale-epoch zombie done carrying a batch that is not the output, full
// fleet loss) must leave the job's output bit-identical to the unsharded
// in-process run, with the recovery visible in the supervisor's
// counters. Fleet members run in-process (worker.Listen on a loopback
// port) so they carry the same -race instrumentation as the supervisor;
// the link faults are injected by the relay of relay_test.go in front of
// them. The cases that pin the two address sources to one lane run a
// second time against members the supervisor spawns (this binary
// re-exec'd).

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bitpacker"
	"bitpacker/internal/durable"
	"bitpacker/internal/frame"
	"bitpacker/internal/pipeline"
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

// TestOptionsWorkersDefaultFollowsFleet: RunSharded resolves Workers.
// Zero with no addresses is the in-process route (no slot at all); zero
// with fleet addresses is one slot per address; an explicit count wins,
// several slots sharing one member.
func TestOptionsWorkersDefaultFollowsFleet(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	inputs := encryptBatch(t, ctx, 4, 76)
	oneAddr := fleetOpts(t, 1)
	oneAddr.Workers = 2
	for _, tc := range []struct {
		name  string
		opts  bitpacker.ShardOptions
		slots int
	}{
		{"no fleet", bitpacker.ShardOptions{Dir: t.TempDir()}, 0},
		{"three addresses", fleetOpts(t, 3), 3},
		{"two slots on one address", oneAddr, 2},
	} {
		_, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if report.Workers != tc.slots || report.Stats.Spawns != int64(tc.slots) {
			t.Fatalf("%s: %d workers, %d sessions, want %d of each", tc.name, report.Workers, report.Stats.Spawns, tc.slots)
		}
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

// TestTCPConnDropReadopt cuts the supervisor connection mid-shard while
// the fleet member keeps computing. The supervisor must treat it as a
// heartbeat miss — reconnect with backoff and re-adopt (or collect the
// flushed completion), never re-dispatch, never count a crash. (The
// relay cannot sit in front of a spawned member's announced address: the
// model's conn-drop-readopt-spawned schedule is that lane.)
func TestTCPConnDropReadopt(t *testing.T) {
	forBothSchemes(t, func(t *testing.T, scheme bitpacker.Scheme) {
		t.Run("fleet", func(t *testing.T) {
			ctx := testCtx(t, scheme)
			inputs := encryptBatch(t, ctx, 6, 62)
			want := unshardedRun(t, ctx, testProgram, inputs)
			opts := relayedOpts(t, 2, ctx, linkFault{kind: linkCut, shard: 2, step: 1})
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

// TestTCPBeatDelay holds a member's heartbeats back on the link for less
// than the deadline: the lease must survive untouched. (A process that
// stalls its beats and a link that delays them look the same to the
// supervisor; this is the one injector for both.)
func TestTCPBeatDelay(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	inputs := encryptBatch(t, ctx, 4, 63)
	want := unshardedRun(t, ctx, testProgram, inputs)
	opts := relayedOpts(t, 2, ctx, linkFault{kind: linkHold, shard: 1, step: 1, span: 120 * time.Millisecond})
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
		opts := relayedOpts(t, 2, ctx, linkFault{kind: linkPartition, shard: 1, step: 1, span: 700 * time.Millisecond})
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

// TestTCPDuplicateDone has the link deliver a completion twice: the
// supervisor must apply it once and count the duplicate.
func TestTCPDuplicateDone(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	inputs := encryptBatch(t, ctx, 6, 65)
	want := unshardedRun(t, ctx, testProgram, inputs)
	opts := relayedOpts(t, 2, ctx, linkFault{kind: linkDupDone, shard: 1, step: 0})
	got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
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
// epoch ahead of the real one, carrying the shard's input as its batch —
// the fencing test, at the one layer a zombie's output now reaches. The
// supervisor must reject the stale report (counted) and accept only the
// correctly-stamped one: had the fence let it through, the input would
// stand in for the output and the bit-identity check would fail.
func TestTCPStaleEpochDone(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	inputs := encryptBatch(t, ctx, 6, 66)
	want := unshardedRun(t, ctx, testProgram, inputs)
	opts := relayedOpts(t, 2, ctx, linkFault{kind: linkStaleDone, shard: 2, step: 0})
	got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, ctx, "stale-done", got, want)
	if report.Stats.StaleEpochRejects == 0 {
		t.Fatalf("stale-epoch done was not rejected: %+v", report.Stats)
	}
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

// TestTCPFleetResumeDamaged reruns a kept job after one shard's
// checkpoint directory was deleted and a byte of another's final-stage
// checkpoint flipped: every other shard resumes from its final checkpoint,
// the deleted one is recomputed, the damaged one resumes from its previous
// step's checkpoint (which the rerun leaves as it was) — and the outputs
// are still bit-identical to the serial run.
func TestTCPFleetResumeDamaged(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	inputs := encryptBatch(t, ctx, 6, 71)
	want := unshardedRun(t, ctx, testProgram, inputs)
	opts := fleetOpts(t, 2)
	opts.Keep = true
	got, report, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, ctx, "first run", got, want)
	last := len(testProgram) - 1
	if err := os.RemoveAll(shard.CkptDir(opts.Dir, 1)); err != nil {
		t.Fatal(err)
	}
	final := pipeline.DirStorePath(shard.CkptDir(opts.Dir, 3), last)
	data, err := os.ReadFile(final)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(final, data, 0o600); err != nil {
		t.Fatal(err)
	}
	previous := pipeline.DirStorePath(shard.CkptDir(opts.Dir, 3), last-1)
	before, err := os.Stat(previous)
	if err != nil {
		t.Fatal(err)
	}

	got2, report2, err := ctx.RunSharded(context.Background(), testProgram, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, ctx, "damaged resume", got2, want)
	if report2.Resumed != report.Shards-2 {
		t.Fatalf("rerun resumed %d of %d shards, want all but the two damaged", report2.Resumed, report2.Shards)
	}
	if after, err := os.Stat(previous); err != nil || !os.SameFile(before, after) {
		t.Fatalf("the damaged shard's step %d checkpoint was rewritten (%v): it did not resume from it", last-1, err)
	}
}

// TestShardedDurableWrites counts the directory fsyncs of one kept job at
// the benchmark's shape — 4 shards through 6 steps — on both routes: on
// in-process fleet members, so every write happens here, and with no
// fleet at all. It checks what is left: the job file and one checkpoint
// per shard and step are all the job makes durable, and all the exchange
// directory holds. On the fleet, inputs and outputs travel on the
// sessions; with none, they never leave the process.
func TestShardedDurableWrites(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	program := []bitpacker.ShardStep{
		{Op: bitpacker.ShardOpSquare},
		{Op: bitpacker.ShardOpOffset, Arg: 0.5},
		{Op: bitpacker.ShardOpNegate},
		{Op: bitpacker.ShardOpOffset, Arg: 1},
		{Op: bitpacker.ShardOpNegate},
		{Op: bitpacker.ShardOpOffset, Arg: 0.25},
	}
	const shards = 4
	inputs := encryptBatch(t, ctx, 2*shards, 72)
	want := unshardedRun(t, ctx, program, inputs)
	for _, route := range []struct {
		name string
		opts bitpacker.ShardOptions
	}{
		{"fleet", fleetOpts(t, 2)},
		{"in-process", bitpacker.ShardOptions{Dir: t.TempDir()}},
	} {
		t.Run(route.name, func(t *testing.T) {
			opts := route.opts
			opts.ShardSize, opts.Keep = 2, true
			var syncs atomic.Int64
			syncDir := durable.SyncDir
			durable.SyncDir = func(dir string) error { syncs.Add(1); return syncDir(dir) }
			defer func() { durable.SyncDir = syncDir }()
			got, report, err := ctx.RunSharded(context.Background(), program, inputs, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, ctx, "durable writes", got, want)
			if report.Shards != shards {
				t.Fatalf("%d shards, want %d", report.Shards, shards)
			}
			if len(opts.Addrs) == 0 && (report.Workers != 0 || report.PredictedSpeedup != 1 || report.Stats != (bitpacker.SupervisorStats{})) {
				t.Fatalf("the in-process route reported %d workers, speedup %g, stats %+v; want 0, 1 and none", report.Workers, report.PredictedSpeedup, report.Stats)
			}
			if n, want := syncs.Load(), int64(1+shards*len(program)); n != want {
				t.Fatalf("one job made %d directory fsyncs, want %d: the job file and one per shard and step", n, want)
			}
			entries, err := os.ReadDir(opts.Dir)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			if strings.Join(names, " ") != "ckpt job.json" {
				t.Fatalf("the kept exchange directory holds %v, want only ckpt and job.json", names)
			}
		})
	}
}

// TestTCPAssignToStalledPeer points the supervisor at a member that
// answers the handshake and then reads nothing more — a frozen process,
// or a peer behind a link that drops packets silently. The assign's
// batch is larger than the socket buffers take, so without a deadline on
// the send the driver's loop would block in the write for good, and with
// it no tick would ever reach the core. The send must give up instead:
// the session ends, the slot is spent and the job finishes degraded,
// bit-identical.
func TestTCPAssignToStalledPeer(t *testing.T) {
	ctx := testCtx(t, bitpacker.BitPacker)
	program := []bitpacker.ShardStep{{Op: bitpacker.ShardOpNegate}}
	inputs := encryptBatch(t, ctx, 1, 73)
	for len(inputs) < 16<<20/ctx.MaxCiphertextBytes() { // a 16 MiB batch
		inputs = append(inputs, inputs[0])
	}
	want := unshardedRun(t, ctx, program, inputs)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		var held []net.Conn // open, never read past the hello
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, conn)
			if _, err := shard.ReadMessage(conn, shard.Limit{}); err == nil {
				shard.WriteMessage(conn, shard.Msg{Type: shard.MsgReady})
			}
		}
	}()
	opts := bitpacker.ShardOptions{
		Dir:               t.TempDir(),
		Addrs:             []string{ln.Addr().String()},
		ShardSize:         len(inputs),
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  150 * time.Millisecond,
		Respawn:           bitpacker.RespawnPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, BreakerThreshold: 1, Seed: 5},
		Logf:              t.Logf,
	}
	type result struct {
		got    []*bitpacker.Ciphertext
		report bitpacker.ShardReport
		err    error
	}
	done := make(chan result, 1)
	go func() {
		got, report, err := ctx.RunSharded(context.Background(), program, inputs, opts)
		done <- result{got, report, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		assertBitIdentical(t, ctx, "stalled peer", r.got, want)
		if r.report.Stats.DegradedEntries != 1 {
			t.Fatalf("the stalled member's shard was not run degraded: %+v", r.report.Stats)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the supervisor is stuck writing an assign to a member that reads nothing")
	}
}

// TestFleetRejectsBadFingerprint dials a fleet directly with a hello the
// job file on disk does not back: a fingerprint that does not match it,
// a matching one for a program the op table refuses, or a matching one
// asking for a beat period no ticker can have (as a Duration, 1<<62 ms
// overflows). The fleet must answer with a reject at the handshake, not
// serve the job (and fail every shard of it ShardAttempts times), and
// must still be there to answer the next row.
func TestFleetRejectsBadFingerprint(t *testing.T) {
	cfgJSON, err := json.Marshal(testConfig(bitpacker.BitPacker))
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startFleet(t)
	for _, tc := range []struct {
		name, program string
		helloFP       uint64
		beatMs        int
	}{
		{"beat period overflow", `[{"op":"square"}]`, 111, 1 << 62},
		{"fingerprint mismatch", `[{"op":"square"}]`, 222, 50},
		{"unknown op", `[{"op":"square"},{"op":"cube"}]`, 111, 50},
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
		if err := shard.WriteMessage(conn, shard.Msg{Type: shard.MsgHello, Dir: dir, Fingerprint: tc.helloFP, BeatMs: tc.beatMs}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		br := bufio.NewReader(conn)
		m, err := shard.ReadMessage(br, shard.Limit{})
		for err == nil && m.Type == shard.MsgBeat { // beats precede the context build
			m, err = shard.ReadMessage(br, shard.Limit{})
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
	if m, err := shard.ReadMessage(bufio.NewReader(conn), shard.Limit{}); err != nil || m.Type != shard.MsgReject {
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
