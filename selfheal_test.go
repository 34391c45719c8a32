package bitpacker

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"bitpacker/internal/chaos"
)

// Self-healing end-to-end tests: every fault class the chaos harness
// injects must be recovered transparently — the decrypted values of the
// healed run equal the fault-free run — by some rung of the recovery
// ladder (RRNS in-place repair, op-level retry, checkpoint stage
// rerun), and faults past the recovery budget must surface the typed
// errors ErrFaultUnrecovered / ErrCircuitOpen.

func healCtx(t *testing.T, scheme Scheme, retry *RetryPolicy, rotations []int) *Context {
	t.Helper()
	ctx, err := New(Config{
		Scheme:           scheme,
		LogN:             9,
		Levels:           3,
		ScaleBits:        40,
		WordBits:         61,
		Rotations:        rotations,
		RedundantResidue: true,
		CheckInvariants:  true,
		Retry:            retry,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func fastRetry() *RetryPolicy {
	return &RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond, Seed: 7}
}

func randComplex(n int, rng *rand.Rand) []complex128 {
	vals := make([]complex128, n)
	for i := range vals {
		vals[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	return vals
}

func equalSlots(t *testing.T, label string, got, want []complex128) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: healed run differs from fault-free run at slot %d: %v vs %v",
				label, i, got[i], want[i])
		}
	}
}

// TestSelfHealResidueCorruption: the RRNS rung repairs a bit-flipped
// residue word in place — no retry, no checkpoint, decrypted values
// bit-identical to the fault-free run.
func TestSelfHealResidueCorruption(t *testing.T) {
	for _, scheme := range []Scheme{RNSCKKS, BitPacker} {
		c := healCtx(t, scheme, nil, nil)
		rng := rand.New(rand.NewPCG(1, 2))
		a := c.MustEncrypt(randComplex(c.Slots(), rng))
		b := c.MustEncrypt(randComplex(c.Slots(), rng))

		run := func(corrupt bool, seed uint64) []complex128 {
			ca, cb := a.Copy(), b.Copy()
			if corrupt {
				chaos.New(seed).CorruptResidueWord(ca.ct)
			}
			out := c.MustRescale(c.MustMul(ca, cb))
			return c.MustDecrypt(out)
		}
		clean := run(false, 0)
		for trial := uint64(0); trial < 3; trial++ {
			equalSlots(t, "residue-word", run(true, 100+trial), clean)
		}
	}
}

// TestSelfHealFusedKernels: the RRNS rung keeps working inside the fused
// kernels. A chaos-injected residue-word flip is repaired in place by the
// fused MulRescale macro op and by the fused rotation path, the healed
// outputs equal the fault-free run slot for slot, and the fused and
// staged (SetFused(false)) healed runs agree exactly with each other.
func TestSelfHealFusedKernels(t *testing.T) {
	for _, scheme := range []Scheme{RNSCKKS, BitPacker} {
		c := healCtx(t, scheme, nil, []int{2})
		rng := rand.New(rand.NewPCG(21, 22))
		a := c.MustEncrypt(randComplex(c.Slots(), rng))
		b := c.MustEncrypt(randComplex(c.Slots(), rng))

		run := func(fused, corrupt bool, seed uint64) []complex128 {
			c.eval.SetFused(fused)
			defer c.eval.SetFused(true)
			ca, cb := a.Copy(), b.Copy()
			if corrupt {
				chaos.New(seed).CorruptResidueWord(ca.ct)
			}
			out := c.MustMulRescale(ca, c.MustRotate(cb, 2))
			return c.MustDecrypt(out)
		}
		clean := run(true, false, 0)
		for trial := uint64(0); trial < 3; trial++ {
			healedFused := run(true, true, 300+trial)
			healedStaged := run(false, true, 300+trial)
			equalSlots(t, "fused residue-word", healedFused, clean)
			equalSlots(t, "staged residue-word", healedStaged, clean)
		}
	}
}

// TestSelfHealDroppedTaskBurst: the retry rung heals a burst of dropped
// engine tasks shorter than the attempt budget; a longer burst exhausts
// into ErrFaultUnrecovered.
func TestSelfHealDroppedTaskBurst(t *testing.T) {
	const dim = 8
	rots := []int{1, 2, 3, 4, 5, 6, 7}
	mrng := rand.New(rand.NewPCG(3, 4))
	mat := make([][]complex128, dim)
	for i := range mat {
		mat[i] = make([]complex128, dim)
		for j := range mat[i] {
			mat[i][j] = complex(2*mrng.Float64()-1, 0)
		}
	}
	for _, scheme := range []Scheme{RNSCKKS, BitPacker} {
		c := healCtx(t, scheme, fastRetry(), rots)
		tr, err := c.NewMatrixTransform(mat, c.MaxLevel())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(5, 6))
		in := c.MustEncrypt(c.Replicate(randComplex(dim, rng), dim))
		clean := c.MustDecrypt(c.MustApply(in, tr))

		_, restore := chaos.New(7).Burst(0, 2) // 2 faults < 3 attempts
		healed, err := c.Apply(in, tr)
		restore()
		if err != nil {
			t.Fatalf("%v: retry did not heal sub-budget burst: %v", scheme, err)
		}
		equalSlots(t, "drop-task burst", c.MustDecrypt(healed), clean)

		// RotateHoisted, the serving layer's extraction, is under the same rung.
		cleanRot, err := c.RotateHoisted(in, rots)
		if err != nil {
			t.Fatal(err)
		}
		_, restore = chaos.New(9).Burst(0, 2)
		healedRot, err := c.RotateHoisted(in, rots)
		restore()
		if err != nil {
			t.Fatalf("%v: retry did not heal a sub-budget burst in RotateHoisted: %v", scheme, err)
		}
		for i := range rots {
			equalSlots(t, "drop-task burst, hoisted rotation", c.MustDecrypt(healedRot[i]), c.MustDecrypt(cleanRot[i]))
		}

		_, restore = chaos.New(8).Burst(0, 10) // outlasts the budget
		_, err = c.Apply(in, tr)
		restore()
		if !errors.Is(err, ErrFaultUnrecovered) {
			t.Fatalf("%v: over-budget burst: err = %v, want ErrFaultUnrecovered", scheme, err)
		}
	}
}

// TestSelfHealCircuitBreaker: consecutive unrecovered operations open
// the breaker; operations fail fast with ErrCircuitOpen until the fault
// source clears and the breaker is reset.
func TestSelfHealCircuitBreaker(t *testing.T) {
	rots := []int{1, 2, 3, 4, 5, 6, 7}
	policy := &RetryPolicy{MaxAttempts: 1, BaseDelay: 50 * time.Microsecond, BreakerThreshold: 2, Seed: 9}
	c := healCtx(t, BitPacker, policy, rots)
	const dim = 8
	mrng := rand.New(rand.NewPCG(11, 12))
	mat := make([][]complex128, dim)
	for i := range mat {
		mat[i] = make([]complex128, dim)
		for j := range mat[i] {
			mat[i][j] = complex(2*mrng.Float64()-1, 0)
		}
	}
	tr, err := c.NewMatrixTransform(mat, c.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(13, 14))
	in := c.MustEncrypt(c.Replicate(randComplex(dim, rng), dim))

	_, restore := chaos.New(10).Burst(0, 100) // persistent fault source
	for i := 0; i < 2; i++ {
		if _, err := c.Apply(in, tr); !errors.Is(err, ErrFaultUnrecovered) {
			restore()
			t.Fatalf("op %d: err = %v, want ErrFaultUnrecovered", i, err)
		}
	}
	_, err = c.Apply(in, tr)
	if !errors.Is(err, ErrCircuitOpen) {
		restore()
		t.Fatalf("breaker did not open: %v", err)
	}
	restore() // fault source fixed
	c.retrier.Reset()
	out, err := c.Apply(in, tr)
	if err != nil {
		t.Fatalf("after reset: %v", err)
	}
	if err := c.Validate(out); err != nil {
		t.Fatal(err)
	}
}

// TestSelfHealBreakerCoolsDown: a Context's breaker closes again on its
// own. No Cooldown is set, and Reset is out of reach from the root API,
// so once a persistent fault has opened the breaker only the default
// cooldown can let the next operation through after the fault is gone.
func TestSelfHealBreakerCoolsDown(t *testing.T) {
	c := healCtx(t, BitPacker, &RetryPolicy{MaxAttempts: 1, BreakerThreshold: 2}, []int{1, 2, 3})
	const dim = 4
	mat := make([][]complex128, dim)
	for i := range mat {
		mat[i] = make([]complex128, dim)
		for j := range mat[i] {
			mat[i][j] = complex(float64(i+2*j)/8, 0)
		}
	}
	tr, err := c.NewMatrixTransform(mat, c.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	in := c.MustEncrypt(c.Replicate(randComplex(dim, rand.New(rand.NewPCG(17, 18))), dim))
	_, restore := chaos.New(19).Burst(0, 100) // persistent fault source
	for i := 0; i < 2; i++ {
		if _, err := c.Apply(in, tr); !errors.Is(err, ErrFaultUnrecovered) {
			restore()
			t.Fatalf("op %d: err = %v, want ErrFaultUnrecovered", i, err)
		}
	}
	if _, err := c.Apply(in, tr); !errors.Is(err, ErrCircuitOpen) {
		restore()
		t.Fatalf("breaker did not open: %v", err)
	}
	restore() // fault source fixed
	time.Sleep(1100 * time.Millisecond)
	out, err := c.Apply(in, tr)
	if err != nil {
		t.Fatalf("past the default cooldown: %v", err)
	}
	if err := c.Validate(out); err != nil {
		t.Fatal(err)
	}
}

// TestSelfHealMetadataFaults: metadata corruption (scale skew, noise
// laundering) and in-range payload tampering poison the working copy of
// a pipeline stage; the retry rung discards the poisoned attempt and
// re-runs from the retained input, yielding the fault-free values.
func TestSelfHealMetadataFaults(t *testing.T) {
	faults := []struct {
		name   string
		inject func(inj *chaos.Injector, ct *Ciphertext)
	}{
		{"scale-ulp", func(inj *chaos.Injector, ct *Ciphertext) { inj.SkewScaleULP(ct.ct) }},
		{"noise-estimate", func(inj *chaos.Injector, ct *Ciphertext) { inj.SkewNoiseEstimate(ct.ct) }},
		{"residue-word", func(inj *chaos.Injector, ct *Ciphertext) { inj.CorruptResidueWord(ct.ct) }},
	}
	for _, scheme := range []Scheme{RNSCKKS, BitPacker} {
		c := healCtx(t, scheme, fastRetry(), nil)
		rng := rand.New(rand.NewPCG(15, 16))
		vals := randComplex(c.Slots(), rng)
		in := c.MustEncrypt(vals)

		square := func(ctx context.Context, state []*Ciphertext) ([]*Ciphertext, error) {
			out, err := c.Mul(state[0], state[0])
			if err != nil {
				return nil, err
			}
			if out, err = c.Rescale(out); err != nil {
				return nil, err
			}
			return []*Ciphertext{out}, nil
		}
		clean, _, err := c.RunPipeline(context.Background(), []PipelineStage{{Name: "square", Run: square}},
			[]*Ciphertext{in.Copy()}, PipelineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cleanVals := c.MustDecrypt(clean[0])

		for fi, f := range faults {
			inj := chaos.New(uint64(17 + fi))
			armed := true
			stage := PipelineStage{Name: "square", Run: func(ctx context.Context, state []*Ciphertext) ([]*Ciphertext, error) {
				if armed {
					armed = false
					f.inject(inj, state[0]) // poisons this attempt's copy only
				}
				return square(ctx, state)
			}}
			healed, report, err := c.RunPipeline(context.Background(), []PipelineStage{stage},
				[]*Ciphertext{in.Copy()}, PipelineOptions{})
			if err != nil {
				t.Fatalf("%v/%s: pipeline did not heal: %v", scheme, f.name, err)
			}
			// The residue-word fault is repaired in place by the RRNS rung
			// (zero retries); the metadata faults need one stage re-run.
			if f.name != "residue-word" && report.Retries != 1 {
				t.Fatalf("%v/%s: report.Retries = %d, want 1", scheme, f.name, report.Retries)
			}
			equalSlots(t, f.name, c.MustDecrypt(healed[0]), cleanVals)
		}
	}
}

// TestSelfHealScribbledStageInput holds the stage rung to its contract
// under Config.Retry: a first attempt that scribbles over its input — the
// coefficients of every residue of C0 and C1, more than the RRNS rung
// could repair, and on a chain without a spare channel anyway — and then
// fails with ErrEngineFault is re-run on a pristine copy. The result is
// bit-identical to an unfaulted run's, and the caller's input is
// untouched.
func TestSelfHealScribbledStageInput(t *testing.T) {
	for _, scheme := range []Scheme{RNSCKKS, BitPacker} {
		c, err := New(Config{Scheme: scheme, LogN: 9, Levels: 3, ScaleBits: 40, WordBits: 61, Retry: fastRetry()})
		if err != nil {
			t.Fatal(err)
		}
		in := c.MustEncrypt(randComplex(c.Slots(), rand.New(rand.NewPCG(23, 24))))
		inBytes, err := c.MarshalCiphertext(in)
		if err != nil {
			t.Fatal(err)
		}
		square := func(_ context.Context, state []*Ciphertext) ([]*Ciphertext, error) {
			out, err := c.MulRescale(state[0], state[0])
			return []*Ciphertext{out}, err
		}
		clean, _, err := c.RunPipeline(context.Background(), []PipelineStage{{Name: "square", Run: square}}, []*Ciphertext{in}, PipelineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		attempts := 0
		scribble := func(ctx context.Context, state []*Ciphertext) ([]*Ciphertext, error) {
			if attempts++; attempts == 1 {
				for _, p := range [][][]uint64{state[0].ct.C0.Coeffs, state[0].ct.C1.Coeffs} {
					for _, row := range p {
						clear(row)
					}
				}
				return nil, fmt.Errorf("scribbled on its input: %w", ErrEngineFault)
			}
			return square(ctx, state)
		}
		healed, report, err := c.RunPipeline(context.Background(), []PipelineStage{{Name: "square", Run: scribble}}, []*Ciphertext{in}, PipelineOptions{})
		if err != nil {
			t.Fatalf("%v: the stage rung did not heal: %v", scheme, err)
		}
		if report.Retries != 1 || attempts != 2 {
			t.Fatalf("%v: %d retries over %d attempts, want 1 over 2", scheme, report.Retries, attempts)
		}
		for _, pair := range [][2]*Ciphertext{{healed[0], clean[0]}, {in, nil}} {
			got, err := c.MarshalCiphertext(pair[0])
			if err != nil {
				t.Fatal(err)
			}
			want := inBytes
			if pair[1] != nil {
				if want, err = c.MarshalCiphertext(pair[1]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%v: the re-run did not see a pristine input (result or input bytes differ)", scheme)
			}
		}
	}
}

// TestSelfHealCheckpointResume: a pipeline killed mid-run resumes from
// its checkpoint directory after a simulated process restart (a fresh
// Context from the same Config), at both 1 and 4 engine workers, and
// produces the exact values of an uninterrupted run.
func TestSelfHealCheckpointResume(t *testing.T) {
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		for _, scheme := range []Scheme{RNSCKKS, BitPacker} {
			c := healCtx(t, scheme, fastRetry(), nil)
			rng := rand.New(rand.NewPCG(19, 20))
			vals := randComplex(c.Slots(), rng)
			in := c.MustEncrypt(vals)

			square := func(c *Context) func(context.Context, []*Ciphertext) ([]*Ciphertext, error) {
				return func(ctx context.Context, state []*Ciphertext) ([]*Ciphertext, error) {
					out, err := c.Mul(state[0], state[0])
					if err != nil {
						return nil, err
					}
					if out, err = c.Rescale(out); err != nil {
						return nil, err
					}
					return []*Ciphertext{out}, nil
				}
			}
			double := func(c *Context) func(context.Context, []*Ciphertext) ([]*Ciphertext, error) {
				return func(ctx context.Context, state []*Ciphertext) ([]*Ciphertext, error) {
					out, err := c.Add(state[0], state[0])
					if err != nil {
						return nil, err
					}
					return []*Ciphertext{out}, nil
				}
			}

			ref, _, err := c.RunPipeline(context.Background(), []PipelineStage{
				{Name: "square-1", Run: square(c)},
				{Name: "double", Run: double(c)},
				{Name: "square-2", Run: square(c)},
			}, []*Ciphertext{in.Copy()}, PipelineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			refVals := c.MustDecrypt(ref[0])

			// The run dies at stage 2 after 0 and 1 are checkpointed.
			dir := t.TempDir()
			crash := PipelineStage{Name: "square-2", Run: func(context.Context, []*Ciphertext) ([]*Ciphertext, error) {
				return nil, ErrEngineFault
			}}
			_, _, err = c.RunPipeline(context.Background(), []PipelineStage{
				{Name: "square-1", Run: square(c)},
				{Name: "double", Run: double(c)},
				crash,
			}, []*Ciphertext{in.Copy()}, PipelineOptions{CheckpointDir: dir})
			if !errors.Is(err, ErrFaultUnrecovered) {
				t.Fatalf("workers=%d %v: crashed run err = %v, want ErrFaultUnrecovered", workers, scheme, err)
			}

			// Process restart: a fresh Context (same Config → same keys)
			// over the same checkpoint directory.
			c2 := healCtx(t, scheme, fastRetry(), nil)
			final, report, err := c2.RunPipeline(context.Background(), []PipelineStage{
				{Name: "square-1", Run: square(c2)},
				{Name: "double", Run: double(c2)},
				{Name: "square-2", Run: square(c2)},
			}, nil, PipelineOptions{CheckpointDir: dir})
			if err != nil {
				t.Fatalf("workers=%d %v: resume: %v", workers, scheme, err)
			}
			if report.ResumedFrom != 1 || report.StagesRun != 1 {
				t.Fatalf("workers=%d %v: report = %+v, want ResumedFrom=1 StagesRun=1", workers, scheme, report)
			}
			equalSlots(t, "checkpoint-resume", c2.MustDecrypt(final[0]), refVals)
		}
	}
	SetWorkers(0)
}

// TestRetryCancellationPrecedence: with retry configured, a canceled
// WithContext still fails immediately with ErrCanceled — cancellation is
// never retried.
func TestRetryCancellationPrecedence(t *testing.T) {
	rots := []int{1, 2, 3, 4, 5, 6, 7}
	c := healCtx(t, BitPacker, fastRetry(), rots)
	const dim = 8
	mat := make([][]complex128, dim)
	for i := range mat {
		mat[i] = make([]complex128, dim)
		mat[i][i] = 1
	}
	tr, err := c.NewMatrixTransform(mat, c.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(21, 22))
	in := c.MustEncrypt(c.Replicate(randComplex(dim, rng), dim))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = c.WithContext(ctx).Apply(in, tr)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v — was it retried with backoff?", elapsed)
	}
}
