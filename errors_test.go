package bitpacker

import (
	"context"
	"errors"
	"math/big"
	"testing"
)

// errCtx builds a context wired for negative-path tests: invariant
// checks armed, one rotation key only.
func errCtx(t *testing.T, scheme Scheme) *Context {
	t.Helper()
	ctx, err := New(Config{
		Scheme:          scheme,
		LogN:            9,
		Levels:          3,
		ScaleBits:       40,
		WordBits:        61,
		Rotations:       []int{1},
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestErrorTaxonomy drives every public failure mode on both backends
// and asserts the returned error matches its sentinel under errors.Is.
func TestErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name     string
		sentinel error
		run      func(t *testing.T, ctx *Context, ct *Ciphertext) error
	}{
		{"add across levels", ErrLevelMismatch, func(t *testing.T, ctx *Context, ct *Ciphertext) error {
			low := ctx.MustAdjust(ct, ct.Level()-1)
			_, err := ctx.Add(ct, low)
			return err
		}},
		{"add across scales", ErrScaleMismatch, func(t *testing.T, ctx *Context, ct *Ciphertext) error {
			sq := ctx.MustMul(ct, ct) // scale S^2, same level as ct
			_, err := ctx.Add(sq, ct)
			return err
		}},
		{"adjust upward", ErrLevelMismatch, func(t *testing.T, ctx *Context, ct *Ciphertext) error {
			low := ctx.MustAdjust(ct, 0)
			_, err := ctx.Adjust(low, ctx.MaxLevel())
			return err
		}},
		{"rotate without key", ErrMissingKey, func(t *testing.T, ctx *Context, ct *Ciphertext) error {
			_, err := ctx.Rotate(ct, 2) // only step 1 has a key
			return err
		}},
		{"conjugate without key", ErrMissingKey, func(t *testing.T, ctx *Context, ct *Ciphertext) error {
			_, err := ctx.Conjugate(ct)
			return err
		}},
		{"rescale at level 0", ErrChainExhausted, func(t *testing.T, ctx *Context, ct *Ciphertext) error {
			_, err := ctx.Rescale(ctx.MustAdjust(ct, 0))
			return err
		}},
		{"oversize encrypt", ErrInvalidParams, func(t *testing.T, ctx *Context, ct *Ciphertext) error {
			_, err := ctx.Encrypt(make([]complex128, 2*ctx.Slots()+1))
			return err
		}},
		{"diagonal indices naming one rotation", ErrInvalidParams, func(t *testing.T, ctx *Context, ct *Ciphertext) error {
			one := make([]complex128, ctx.Slots())
			_, err := ctx.NewDiagonalTransform(map[int][]complex128{1: one, 1 + ctx.Slots(): one}, ct.Level())
			return err
		}},
		{"refresh without bootstrap", ErrInvalidParams, func(t *testing.T, ctx *Context, ct *Ciphertext) error {
			_, err := ctx.Refresh(ctx.MustAdjust(ct, 0))
			return err
		}},
		{"tampered operand", ErrInvariant, func(t *testing.T, ctx *Context, ct *Ciphertext) error {
			// Out-of-band scale mutation: only the metadata tag can see it.
			ct.ct.Scale.Mul(ct.ct.Scale, big.NewRat((1<<52)+1, 1<<52))
			if err := ctx.Validate(ct); !errors.Is(err, ErrInvariant) {
				t.Fatalf("Validate = %v, want ErrInvariant", err)
			}
			_, err := ctx.Add(ct, ct)
			return err
		}},
		{"canceled context", ErrCanceled, func(t *testing.T, ctx *Context, ct *Ciphertext) error {
			cctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := ctx.WithContext(cctx).Add(ct, ct)
			return err
		}},
	}
	for _, scheme := range []Scheme{RNSCKKS, BitPacker} {
		for _, tc := range cases {
			t.Run(scheme.String()+"/"+tc.name, func(t *testing.T) {
				ctx := errCtx(t, scheme)
				ct, err := ctx.EncryptReal([]float64{0.5, -0.25})
				if err != nil {
					t.Fatal(err)
				}
				if err := tc.run(t, ctx, ct); !errors.Is(err, tc.sentinel) {
					t.Fatalf("got %v, want errors.Is(err, %v)", err, tc.sentinel)
				}
			})
		}
	}
}

func TestNoiseGuardConfig(t *testing.T) {
	for _, scheme := range []Scheme{RNSCKKS, BitPacker} {
		ctx, err := New(Config{
			Scheme: scheme, LogN: 9, Levels: 2, ScaleBits: 40, WordBits: 61,
			NoiseGuardBits: 1000, // beyond any chain: first consuming op trips
		})
		if err != nil {
			t.Fatal(err)
		}
		ct, err := ctx.EncryptReal([]float64{0.5})
		if err != nil {
			t.Fatal(err)
		}
		if b := ctx.NoiseBudget(ct); b <= 0 {
			t.Fatalf("%v: fresh budget %.1f, want positive", scheme, b)
		}
		_, err = ctx.Mul(ct, ct)
		if !errors.Is(err, ErrNoiseBudget) {
			t.Fatalf("%v: got %v, want ErrNoiseBudget", scheme, err)
		}
		var nbe *NoiseBudgetError
		if !errors.As(err, &nbe) || nbe.Action == "" {
			t.Fatalf("%v: want *NoiseBudgetError with action, got %v", scheme, err)
		}
	}
}

func TestConfigErrorsTyped(t *testing.T) {
	if _, err := New(Config{Scheme: BitPacker, LogN: 9, Levels: 2}); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("missing ScaleBits: got %v, want ErrInvalidParams", err)
	}
	if _, err := New(Config{
		Scheme: BitPacker, LogN: 9, Levels: 2, ScaleSchedule: []float64{40},
	}); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("short ScaleSchedule: got %v, want ErrInvalidParams", err)
	}
}

func TestMustPanicsOnError(t *testing.T) {
	ctx := errCtx(t, BitPacker)
	ct, err := ctx.EncryptReal([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustRotate without key did not panic")
		}
		if err, ok := r.(error); !ok || !errors.Is(err, ErrMissingKey) {
			t.Fatalf("panic value %v, want error wrapping ErrMissingKey", r)
		}
	}()
	ctx.MustRotate(ct, 2)
}

// TestDecodeCiphertextsRejectsHostileBatch: a shard batch whose framing
// and ciphertext encoding both parse but whose ciphertext breaks an
// evaluator invariant (here: polynomials flagged coefficient-domain) is
// refused with ErrInvalidParams — by the one validation pass
// pipeline.DecodeState runs, DecodeCiphertexts adds none of its own.
func TestDecodeCiphertextsRejectsHostileBatch(t *testing.T) {
	ctx := errCtx(t, BitPacker)
	ct := ctx.MustEncrypt([]complex128{1, 2, 3})
	blob, err := ctx.EncodeCiphertexts([]*Ciphertext{ct, ct})
	if err != nil {
		t.Fatal(err)
	}
	if back, err := ctx.DecodeCiphertexts(blob); err != nil || len(back) != 2 {
		t.Fatalf("clean batch: %d ciphertexts, %v", len(back), err)
	}
	// count u32 | len u64 | "BPCT" version u8 level u32 | isNTT u8
	const isNTT = 4 + 8 + 4 + 1 + 4
	if blob[isNTT] != 1 {
		t.Fatalf("byte %d of the batch is %d, not the first ciphertext's NTT flag", isNTT, blob[isNTT])
	}
	blob[isNTT] = 0
	if _, err := ctx.DecodeCiphertexts(blob); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("hostile batch: %v, want ErrInvalidParams", err)
	}
	if _, err := ctx.DecodeCiphertexts(blob[:len(blob)-1]); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("truncated batch: %v, want ErrInvalidParams", err)
	}
}
