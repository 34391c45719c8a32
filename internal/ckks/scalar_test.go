package ckks

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"

	"bitpacker/internal/core"
)

// constPT is the encoder path the evaluator's scalar operations replaced:
// v replicated across every slot and encoded at the given level and
// scale. Kept here as their reference.
func constPT(s *testSetup, v float64, level int, scale *big.Rat) *Plaintext {
	vals := make([]complex128, s.params.Slots())
	for i := range vals {
		vals[i] = complex(v, 0)
	}
	return &Plaintext{
		Value: s.enc.MustEncode(vals, scale, s.params.LevelModuli(level)),
		Level: level,
		Scale: new(big.Rat).Set(scale),
	}
}

// chebRecurrence evaluates the series by the three-term recurrence with
// its constants applied through mulC and addC, so one algorithm runs over
// the scalar path and over the encoder path.
func chebRecurrence(t *testing.T, ev *Evaluator, x *Ciphertext, coeffs []float64,
	mulC, addC func(*Ciphertext, float64) (*Ciphertext, error)) *Ciphertext {
	t.Helper()
	must := func(ct *Ciphertext, err error) *Ciphertext {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	term := func(tk *Ciphertext, c float64) *Ciphertext { return must(ev.Rescale(must(mulC(tk, c)))) }
	acc := term(x, coeffs[1])
	tPrev2, tPrev := (*Ciphertext)(nil), x
	for k := 2; k < len(coeffs); k++ {
		xa := must(ev.AdjustTo(x.CopyNew(), tPrev.Level))
		tk := must(ev.MulScalarInt(must(ev.Rescale(must(ev.MulRelin(xa, tPrev)))), 2))
		if k == 2 {
			tk = must(addC(tk, -1)) // T_0 = 1 is a constant
		} else {
			tk = must(ev.Sub(tk, must(ev.AdjustTo(tPrev2, tk.Level))))
		}
		tPrev2, tPrev = tPrev, tk
		if coeffs[k] != 0 {
			tt := term(tk, coeffs[k])
			acc = must(ev.Add(must(ev.AdjustTo(acc, tt.Level)), tt))
		}
	}
	return must(addC(acc, coeffs[0]))
}

// TestScalarConstantsMatchEncoderPath checks the constants that no longer
// reach the encoder, at a narrow and a wide word: MulConst and AddConst
// against MulPlain and AddPlain of the encoded constant (same level,
// scale and tracked noise; values within 2^-25, negative and zero
// constants included), a whole series through either path, and the
// production evaluations against the exact series within the precision
// their own NoiseBits promise (an expected magnitude, so with the root
// fuzz target's 16× allowance for the worst slot).
func TestScalarConstantsMatchEncoderPath(t *testing.T) {
	const tol = 1.0 / (1 << 25)
	for _, w := range []int{28, 61} {
		s := newTestSetup(t, core.BitPacker, 6, 40, w, 10, 3, nil)
		rng := rand.New(rand.NewPCG(91, uint64(w)))
		vals := make([]complex128, s.params.Slots())
		for i := range vals {
			vals[i] = complex(2*rng.Float64()-1, 0)
		}
		ct := s.encryptValues(vals)
		decode := func(ct *Ciphertext) []complex128 { return s.decrypt(ct) }
		mulEnc := func(ct *Ciphertext, v float64) (*Ciphertext, error) {
			return s.ev.MulPlain(ct, constPT(s, v, ct.Level, s.params.DefaultScale(ct.Level)))
		}
		addEnc := func(ct *Ciphertext, v float64) (*Ciphertext, error) {
			return s.ev.AddPlain(ct, constPT(s, v, ct.Level, ct.Scale))
		}

		for _, v := range []float64{0.7, -0.37, 0, -1, 1e-9} {
			for _, op := range []struct {
				name        string
				scalar, enc func(*Ciphertext, float64) (*Ciphertext, error)
			}{{"MulConst", s.ev.MulConst, mulEnc}, {"AddConst", s.ev.AddConst, addEnc}} {
				got, err := op.scalar(ct, v)
				if err != nil {
					t.Fatalf("w=%d %s(%g): %v", w, op.name, v, err)
				}
				want, err := op.enc(ct, v)
				if err != nil {
					t.Fatal(err)
				}
				if got.Level != want.Level || got.Scale.Cmp(want.Scale) != 0 || got.NoiseBits != want.NoiseBits {
					t.Fatalf("w=%d %s(%g): level/scale/noise %d/%v/%g, encoder path %d/%v/%g", w, op.name, v,
						got.Level, got.Scale, got.NoiseBits, want.Level, want.Scale, want.NoiseBits)
				}
				if op.name == "MulConst" {
					got, want = s.ev.MustRescale(got), s.ev.MustRescale(want)
				}
				if e := maxErr(decode(got), decode(want)); e > tol {
					t.Errorf("w=%d %s(%g): %g from the encoder path", w, op.name, v, e)
				}
			}
		}
		for _, v := range []float64{math.NaN(), math.Inf(-1)} {
			if _, err := s.ev.MulConst(ct, v); err == nil {
				t.Errorf("w=%d MulConst(%g) accepted", w, v)
			}
			if _, err := s.ev.AddConst(ct, v); err == nil {
				t.Errorf("w=%d AddConst(%g) accepted", w, v)
			}
		}

		series := []float64{-0.2, 0.8, -0.3, 0, 0.12, -0.05}
		scalar := chebRecurrence(t, s.ev, ct, series, s.ev.MulConst, s.ev.AddConst)
		encoded := chebRecurrence(t, s.ev, ct, series, mulEnc, addEnc)
		if e := maxErr(decode(scalar), decode(encoded)); e > tol {
			t.Errorf("w=%d: series through the scalar path %g from the encoder path", w, e)
		}
		for i, got := range decode(scalar) {
			if want := chebyshevRef(series, real(vals[i])); math.Abs(real(got)-want) > 1e-4 {
				t.Fatalf("w=%d: recurrence slot %d = %g, exact %g", w, i, real(got), want)
			}
		}

		deg7 := []float64{0.1, 0.8, -0.3, 0, 0.12, -0.05, 0, 0.02}
		for name, eval := range map[string]func(*Encoder, *Ciphertext, []float64) (*Ciphertext, error){
			"EvalChebyshev":      s.ev.EvalChebyshev,
			"EvalChebyshevNaive": s.ev.EvalChebyshevNaive,
		} {
			coeffs := deg7
			if name == "EvalChebyshevNaive" {
				coeffs = series // one level per degree
			}
			out, err := eval(s.enc, ct, coeffs)
			if err != nil {
				t.Fatalf("w=%d %s: %v", w, name, err)
			}
			want := make([]complex128, len(vals))
			for i := range vals {
				want[i] = complex(chebyshevRef(coeffs, real(vals[i])), 0)
			}
			got := decode(out)
			for i := range got {
				got[i] = complex(real(got[i]), 0)
			}
			if e, bound := maxErr(got, want), 16*math.Exp2(-s.ev.NoiseBudget(out)); e > bound {
				t.Errorf("w=%d %s: error %g above the tracked bound %g", w, name, e, bound)
			}
		}
	}
}
