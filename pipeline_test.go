package bitpacker

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"runtime"
	"testing"
	"time"

	"bitpacker/internal/pipeline"
)

// The stage runner's own contract, over a checkpoint directory: clean
// runs clear it, a crashed run resumes past its intact checkpoints and
// falls back past damaged ones, the stage rung heals or gives up with a
// typed error, and only a retrier pays for a copy of a stage's input.

func pipelineCtx(t testing.TB, scheme Scheme, rrns bool, retry *RetryPolicy) *Context {
	t.Helper()
	c, err := New(Config{Scheme: scheme, LogN: 9, Levels: 3, ScaleBits: 40, WordBits: 61, RedundantResidue: rrns, Retry: retry})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// squareStages is a 3-stage pipeline: square+rescale, double, square+
// rescale again — deep enough that a mid-pipeline resume skips real work.
func squareStages(c *Context) []PipelineStage {
	sq := func(_ context.Context, state []*Ciphertext) ([]*Ciphertext, error) {
		out, err := c.MulRescale(state[0], state[0])
		if err != nil {
			return nil, err
		}
		return []*Ciphertext{out}, nil
	}
	double := func(_ context.Context, state []*Ciphertext) ([]*Ciphertext, error) {
		out, err := c.Add(state[0], state[0])
		if err != nil {
			return nil, err
		}
		return []*Ciphertext{out}, nil
	}
	return []PipelineStage{
		{Name: "square-1", Run: sq},
		{Name: "double", Run: double},
		{Name: "square-2", Run: sq},
	}
}

// crashAtLast is squareStages with its last stage dying, as a killed
// process would: the checkpoints of stages 0 and 1 stay behind.
func crashAtLast(c *Context) []PipelineStage {
	stages := squareStages(c)
	stages[2].Run = func(context.Context, []*Ciphertext) ([]*Ciphertext, error) {
		return nil, ErrEngineFault
	}
	return stages
}

func wantSquare(vals []complex128) []complex128 {
	out := make([]complex128, len(vals))
	for i, v := range vals {
		x := v * v
		out[i] = (2 * x) * (2 * x)
	}
	return out
}

func maxSqErr(got, want []complex128) float64 {
	var m float64
	for i := range want {
		d := got[i] - want[i]
		m = max(m, real(d)*real(d)+imag(d)*imag(d))
	}
	return m
}

// checkpointsIn lists the stages with a checkpoint file in dir.
func checkpointsIn(t *testing.T, dir string) []int {
	t.Helper()
	store, err := pipeline.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := store.Stages()
	if err != nil {
		t.Fatal(err)
	}
	return stages
}

// crashedRun runs crashAtLast over a fresh checkpoint directory, and
// returns the directory and the values of an uninterrupted run.
func crashedRun(t *testing.T, c *Context, in *Ciphertext) (string, []complex128) {
	t.Helper()
	ref, _, err := c.RunPipeline(context.Background(), squareStages(c), []*Ciphertext{in}, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := c.RunPipeline(context.Background(), crashAtLast(c), []*Ciphertext{in}, PipelineOptions{CheckpointDir: dir}); !errors.Is(err, ErrEngineFault) {
		t.Fatalf("crashed run: err = %v, want ErrEngineFault", err)
	}
	if left := checkpointsIn(t, dir); len(left) != 2 {
		t.Fatalf("%d checkpoints after stages 0 and 1 completed, want 2", len(left))
	}
	return dir, c.MustDecrypt(ref[0])
}

// resumeFrom reruns squareStages over dir and requires it to resume
// after stage from and to reproduce the uninterrupted run exactly.
func resumeFrom(t *testing.T, c *Context, dir string, in *Ciphertext, from int, ref []complex128) {
	t.Helper()
	final, report, err := c.RunPipeline(context.Background(), squareStages(c), []*Ciphertext{in}, PipelineOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if report.ResumedFrom != from || report.StagesRun != 2-from {
		t.Fatalf("report = %+v, want ResumedFrom=%d StagesRun=%d", report, from, 2-from)
	}
	if e := maxSqErr(c.MustDecrypt(final[0]), ref); e != 0 {
		t.Fatalf("resumed run differs from the uninterrupted run by %g", e)
	}
	if left := checkpointsIn(t, dir); len(left) != 0 {
		t.Fatalf("%d checkpoints left after success", len(left))
	}
}

func TestPipelineCleanRun(t *testing.T) {
	for _, scheme := range []Scheme{RNSCKKS, BitPacker} {
		c := pipelineCtx(t, scheme, true, nil)
		vals := randComplex(c.Slots(), rand.New(rand.NewPCG(5, 6)))
		dir := t.TempDir()
		final, report, err := c.RunPipeline(context.Background(), squareStages(c), []*Ciphertext{c.MustEncrypt(vals)}, PipelineOptions{CheckpointDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if report.ResumedFrom != -1 || report.StagesRun != 3 {
			t.Fatalf("%v: report = %+v", scheme, report)
		}
		if e := maxSqErr(c.MustDecrypt(final[0]), wantSquare(vals)); e > 1e-3 {
			t.Fatalf("%v: error %g", scheme, e)
		}
		if left := checkpointsIn(t, dir); len(left) != 0 {
			t.Fatalf("%v: %d checkpoints left after success", scheme, len(left))
		}
	}
}

// TestPipelineResume: a run dies mid-pipeline, and a new run over the
// same directory (modeling a process restart) resumes from the last
// checkpoint — skipping completed stages — and produces the exact values
// of an uninterrupted run.
func TestPipelineResume(t *testing.T) {
	for _, scheme := range []Scheme{RNSCKKS, BitPacker} {
		c := pipelineCtx(t, scheme, true, nil)
		in := c.MustEncrypt(randComplex(c.Slots(), rand.New(rand.NewPCG(7, 8))))
		dir, ref := crashedRun(t, c, in)
		resumeFrom(t, c, dir, in, 1, ref)
	}
}

// TestPipelineFallsBackPastCorruptCheckpoint: the newest checkpoint is
// damaged on disk — a flipped byte the checksum catches, another stage's
// name, a payload that does not decode — and resume restarts from the
// previous stage instead. A checkpoint a longer pipeline left is passed
// over the same way.
func TestPipelineFallsBackPastCorruptCheckpoint(t *testing.T) {
	c := pipelineCtx(t, BitPacker, true, nil)
	in := c.MustEncrypt(randComplex(c.Slots(), rand.New(rand.NewPCG(9, 10))))
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, store *pipeline.DirStore, dir string)
		from   int
	}{
		{"corrupt", func(t *testing.T, _ *pipeline.DirStore, dir string) {
			path := pipeline.DirStorePath(dir, 1)
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			blob[len(blob)/2] ^= 0xff
			if err := os.WriteFile(path, blob, 0o600); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"renamed", func(t *testing.T, store *pipeline.DirStore, _ string) {
			_, payload, err := store.Get(1)
			if err == nil {
				err = store.Put(1, "square-1", payload)
			}
			if err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"undecodable", func(t *testing.T, store *pipeline.DirStore, _ string) {
			if err := store.Put(1, "double", []byte("not a state")); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"longer-pipeline", func(t *testing.T, store *pipeline.DirStore, _ string) {
			_, payload, err := store.Get(1)
			if err == nil {
				err = store.Put(3, "square-3", payload)
			}
			if err != nil {
				t.Fatal(err)
			}
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, ref := crashedRun(t, c, in)
			store, err := pipeline.NewDirStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(t, store, dir)
			resumeFrom(t, c, dir, in, tc.from, ref)
		})
	}
}

// TestPipelineRefusesParentFormatCheckpoint: the newest checkpoint on disk
// is in the previous release's format ("BPKP" header, FNV-64a trailer,
// count- and length-prefixed state), intact by that format's own
// checksum. There is no compatibility reader: it is refused like a
// corrupt one and the run recomputes from the previous intact stage.
func TestPipelineRefusesParentFormatCheckpoint(t *testing.T) {
	c := pipelineCtx(t, BitPacker, false, nil)
	in := c.MustEncrypt(randComplex(c.Slots(), rand.New(rand.NewPCG(19, 20))))
	dir, ref := crashedRun(t, c, in)

	ctBlob, err := c.MarshalCiphertext(in)
	if err != nil {
		t.Fatal(err)
	}
	state := binary.LittleEndian.AppendUint32(nil, 1)
	state = binary.LittleEndian.AppendUint64(state, uint64(len(ctBlob)))
	state = append(state, ctBlob...)
	const stage, name = 1, "double"
	old := append([]byte("BPKP"), 1)
	old = binary.LittleEndian.AppendUint32(old, stage)
	old = binary.LittleEndian.AppendUint32(old, uint32(len(name)))
	old = append(old, name...)
	old = binary.LittleEndian.AppendUint64(old, uint64(len(state)))
	old = append(old, state...)
	h := fnv.New64a()
	h.Write(old)
	old = binary.LittleEndian.AppendUint64(old, h.Sum64())
	if err := os.WriteFile(pipeline.DirStorePath(dir, stage), old, 0o600); err != nil {
		t.Fatal(err)
	}
	store, err := pipeline.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Get(stage); err == nil {
		t.Fatal("parent-format checkpoint accepted")
	}
	resumeFrom(t, c, dir, in, 0, ref)
}

// TestPipelineRetryHealsStage: a transient stage fault is healed by the
// retry rung (Config.Retry) without consuming the checkpoint rung.
func TestPipelineRetryHealsStage(t *testing.T) {
	c := pipelineCtx(t, RNSCKKS, true, &RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond, Seed: 9})
	vals := randComplex(c.Slots(), rand.New(rand.NewPCG(11, 12)))
	stages := squareStages(c)
	inner := stages[1].Run
	failures := 2
	stages[1].Run = func(ctx context.Context, state []*Ciphertext) ([]*Ciphertext, error) {
		if failures > 0 {
			failures--
			return nil, fmt.Errorf("transient corruption: %w", ErrInvariant)
		}
		return inner(ctx, state)
	}
	final, report, err := c.RunPipeline(context.Background(), stages, []*Ciphertext{c.MustEncrypt(vals)}, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Retries != 2 {
		t.Fatalf("report.Retries = %d, want 2", report.Retries)
	}
	if e := maxSqErr(c.MustDecrypt(final[0]), wantSquare(vals)); e > 1e-3 {
		t.Fatalf("error %g", e)
	}
}

// TestPipelineRetryExhaustion: a persistent fault exhausts the budget
// and surfaces the typed unrecovered error with stage context.
func TestPipelineRetryExhaustion(t *testing.T) {
	c := pipelineCtx(t, BitPacker, false, &RetryPolicy{MaxAttempts: 2, BaseDelay: 50 * time.Microsecond, Seed: 3})
	doomed := []PipelineStage{{Name: "doomed", Run: func(context.Context, []*Ciphertext) ([]*Ciphertext, error) {
		return nil, ErrEngineFault
	}}}
	in := c.MustEncrypt(randComplex(c.Slots(), rand.New(rand.NewPCG(13, 14))))
	_, _, err := c.RunPipeline(context.Background(), doomed, []*Ciphertext{in}, PipelineOptions{})
	if !errors.Is(err, ErrFaultUnrecovered) {
		t.Fatalf("err = %v, want ErrFaultUnrecovered", err)
	}
}

// TestPipelineStageInputCopiedOnlyForRetry pins who pays for the deep
// copy of a stage's input: under a retry policy every attempt gets one, a
// pristine replay of the retained input; with no policy nothing re-runs a
// stage, and it receives the state itself, allocating per stage far less
// than one state's size.
func TestPipelineStageInputCopiedOnlyForRetry(t *testing.T) {
	for _, retry := range []*RetryPolicy{nil, {MaxAttempts: 2, BaseDelay: time.Microsecond, Seed: 1}} {
		c := pipelineCtx(t, BitPacker, false, retry)
		ct := c.MustEncrypt(randComplex(c.Slots(), rand.New(rand.NewPCG(21, 22))))
		initial := []*Ciphertext{ct}
		var same, copied int
		pass := func(_ context.Context, state []*Ciphertext) ([]*Ciphertext, error) {
			if state[0].ct == ct.ct {
				same++
			} else {
				copied++
			}
			return state, nil
		}
		stages := []PipelineStage{{Name: "a", Run: pass}, {Name: "b", Run: pass}, {Name: "c", Run: pass}}
		if _, _, err := c.RunPipeline(context.Background(), stages, initial, PipelineOptions{}); err != nil {
			t.Fatal(err)
		}
		if retry == nil && (same != len(stages) || copied != 0) {
			t.Fatalf("no retrier: %d stages got the state itself and %d a copy, want all of them the state", same, copied)
		}
		if retry != nil && (copied != len(stages) || same != 0) {
			t.Fatalf("under a retrier: %d stages got a copy and %d the state itself, want all of them a copy", copied, same)
		}
		if retry != nil || raceEnabled {
			continue
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, _, err := c.RunPipeline(context.Background(), stages, initial, PipelineOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perStage := float64(after.TotalAlloc-before.TotalAlloc) / (runs * float64(len(stages)))
		if size := ct.ct.BinarySize(); perStage >= float64(size)/8 {
			t.Fatalf("a stage with no retrier allocates %.0f bytes, against a %d-byte state: its input is being copied", perStage, size)
		}
	}
}

func TestPipelineCancellation(t *testing.T) {
	c := pipelineCtx(t, BitPacker, false, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := c.MustEncrypt(randComplex(c.Slots(), rand.New(rand.NewPCG(15, 16))))
	_, _, err := c.RunPipeline(ctx, squareStages(c), []*Ciphertext{in}, PipelineOptions{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
