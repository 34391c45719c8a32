package worker

import (
	"context"
	goruntime "runtime"
	"testing"
	"time"

	"bitpacker"
)

// TestFleetReleasesDrainedJobs runs several distinct jobs through one
// standing member, two slots each, and requires it to hold nothing for
// them afterwards: no slot, no runtime (a job's full FHE context), no
// slot loop still ticking. A member that only ever adds to its tables grows by a
// context and a goroutine per slot per job until it is closed.
func TestFleetReleasesDrainedJobs(t *testing.T) {
	fl, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	go fl.Serve()
	defer fl.Close()

	ctx, err := bitpacker.New(bitpacker.Config{
		Scheme: bitpacker.BitPacker, LogN: 9, Levels: 3, ScaleBits: 40, WordBits: 61, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*bitpacker.Ciphertext, 2)
	for i := range inputs {
		if inputs[i], err = ctx.Encrypt(make([]complex128, ctx.Slots())); err != nil {
			t.Fatal(err)
		}
	}
	// Each job offsets by its own constant, so each has its own
	// fingerprint, as the jobs of different users do.
	job := func(i int) {
		t.Helper()
		program := []bitpacker.ShardStep{{Op: bitpacker.ShardOpOffset, Arg: float64(i)}}
		_, report, err := ctx.RunSharded(context.Background(), program, inputs, bitpacker.ShardOptions{
			Dir:               t.TempDir(),
			Addrs:             []string{fl.Addr()},
			Workers:           2,
			EngineWorkers:     1,
			HeartbeatInterval: 25 * time.Millisecond,
			DisableDegraded:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if report.Stats.Spawns != 2 {
			t.Fatalf("job %d used %d slots of the member, want 2", i, report.Stats.Spawns)
		}
	}
	// held polls the member's tables: the supervisor returns when its
	// sessions close, a moment before the member finishes releasing.
	held := func(goroutines int) (slots, jobs, extra int) {
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			fl.mu.Lock()
			slots, jobs = len(fl.slots), len(fl.jobs)
			fl.mu.Unlock()
			extra = goruntime.NumGoroutine() - goroutines
			if slots == 0 && jobs == 0 && extra <= 0 || time.Now().After(deadline) {
				return slots, jobs, extra
			}
		}
	}

	job(0) // warm-up: the engine's worker pool and the runtime's pollers start once
	held(1 << 30)
	before := goruntime.NumGoroutine()
	for i := 1; i <= 5; i++ {
		job(i)
	}
	if slots, jobs, extra := held(before); slots != 0 || jobs != 0 || extra > 0 {
		t.Fatalf("after 5 drained jobs the member still holds %d slots, %d runtimes and %d goroutines more than before them",
			slots, jobs, extra)
	}
}
