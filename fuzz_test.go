package bitpacker

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"sync"
	"testing"
)

var (
	fuzzCtxOnce sync.Once
	fuzzCtxVal  *Context
	fuzzCtxErr  error
)

// fuzzContext is shared across FuzzEncodeDecode executions: building a
// chain and keys dominates an encode round-trip by orders of magnitude.
func fuzzContext() (*Context, error) {
	fuzzCtxOnce.Do(func() {
		fuzzCtxVal, fuzzCtxErr = New(Config{
			Scheme: BitPacker, LogN: 8, Levels: 1, ScaleBits: 40, WordBits: 61,
		})
	})
	return fuzzCtxVal, fuzzCtxErr
}

// FuzzEncodeDecode checks that encode/encrypt/decrypt/decode never
// panics: non-finite inputs fail with ErrInvalidParams, finite inputs
// round-trip, and inputs within the precision budget round-trip
// accurately.
func FuzzEncodeDecode(f *testing.F) {
	f.Add(0.5, -0.25, 1.0, 0.0)
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(1e-9, -1e-9, 3.999, -3.999)
	f.Add(1e300, -1e300, 4.5e15, -0.1)
	f.Add(math.Inf(1), 0.0, 0.0, 0.0)
	f.Add(math.NaN(), 1.0, -1.0, 0.5)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		ctx, err := fuzzContext()
		if err != nil {
			t.Fatal(err)
		}
		vals := []float64{a, b, c, d}
		finite, inBudget := true, true
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
			}
			if math.Abs(v) > 4 {
				inBudget = false
			}
		}
		ct, err := ctx.EncryptReal(vals)
		if !finite {
			if !errors.Is(err, ErrInvalidParams) {
				t.Fatalf("non-finite input: got %v, want ErrInvalidParams", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("encrypt(%v): %v", vals, err)
		}
		if err := ctx.Validate(ct); err != nil {
			t.Fatalf("fresh ciphertext invalid for %v: %v", vals, err)
		}
		out, err := ctx.DecryptReal(ct)
		if err != nil {
			t.Fatalf("decrypt(%v): %v", vals, err)
		}
		if !inBudget {
			return // out-of-budget magnitudes wrap; only no-crash is promised
		}
		for i, v := range vals {
			if math.Abs(out[i]-v) > 1e-4 {
				t.Fatalf("slot %d: %v -> %v", i, v, out[i])
			}
		}
	})
}

// FuzzParams checks that New never panics: any configuration either
// fails with an error or yields a context whose basic round-trip works.
func FuzzParams(f *testing.F) {
	f.Add(9, 2, 40.0, 61, 3, false)
	f.Add(10, 3, 35.0, 28, 2, true)
	f.Add(8, 1, 30.0, 32, 1, false)
	f.Add(0, 0, 0.0, 0, 0, false)
	f.Add(-1, -2, -5.0, 200, -3, true)
	f.Add(17, 6, 61.0, 64, 8, true)
	f.Fuzz(func(t *testing.T, logN, levels int, scaleBits float64, wordBits, ksDigits int, rns bool) {
		if logN > 11 || levels > 6 {
			t.Skip("resource bound")
		}
		scheme := BitPacker
		if rns {
			scheme = RNSCKKS
		}
		ctx, err := New(Config{
			Scheme:          scheme,
			LogN:            logN,
			Levels:          levels,
			ScaleBits:       scaleBits,
			WordBits:        wordBits,
			KeySwitchDigits: ksDigits,
		})
		if err != nil {
			return // rejected configurations just need a clean error
		}
		ct, err := ctx.EncryptReal([]float64{0.5})
		if err != nil {
			t.Fatalf("accepted config cannot encrypt: %v", err)
		}
		out, err := ctx.DecryptReal(ct)
		if err != nil {
			t.Fatalf("accepted config cannot decrypt: %v", err)
		}
		// The noise estimator bounds the error: budget bits of precision
		// remain, so the slot error must stay within 2^-budget (with
		// generous slack for decode rounding).
		tol := 16 * math.Pow(2, -ctx.NoiseBudget(ct))
		if tol < 1e-2 {
			tol = 1e-2
		}
		if math.Abs(out[0]-0.5) > tol {
			t.Fatalf("accepted config round-trips 0.5 to %v (budget %.1f bits)",
				out[0], ctx.NoiseBudget(ct))
		}
	})
}

// FuzzUnmarshalCiphertext hammers the wire decoder with arbitrary blobs
// — the serving layer makes this path attacker-reachable. It must never
// panic or allocate beyond the payload it was actually handed, and
// anything it accepts must pass full invariant validation and re-encode.
func FuzzUnmarshalCiphertext(f *testing.F) {
	ctx, err := fuzzContext()
	if err != nil {
		f.Fatal(err)
	}
	ct, err := ctx.EncryptReal([]float64{0.5, -0.25})
	if err != nil {
		f.Fatal(err)
	}
	blob, err := ctx.MarshalCiphertext(ct)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte("BPCT"))
	// Hostile declared lengths: the scale-numerator length field claims
	// ~4 GiB against a few remaining bytes.
	hostile := append([]byte(nil), blob[:24]...)
	for i := 18; i < 22; i++ {
		hostile[i] = 0xff
	}
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ctx.UnmarshalCiphertext(data)
		if err != nil {
			return // rejected blobs just need a clean typed error
		}
		if err := ctx.Validate(got); err != nil {
			t.Fatalf("accepted blob fails validation: %v", err)
		}
		if _, err := ctx.MarshalCiphertext(got); err != nil {
			t.Fatalf("accepted blob does not re-encode: %v", err)
		}
	})
}

// FuzzProgram feeds arbitrary bytes through the path a job file or a
// served request takes: JSON -> program -> PlanProgram. Planning never
// panics and refuses with a typed error; a program it accepts runs, at
// LogN 9, to exactly the level it planned, or fails with a typed error.
func FuzzProgram(f *testing.F) {
	ctx, err := New(Config{Scheme: BitPacker, LogN: 9, Levels: 3, ScaleBits: 40, WordBits: 61, Rotations: []int{1, -2}})
	if err != nil {
		f.Fatal(err)
	}
	in, err := ctx.EncryptReal([]float64{0.5, -0.25, 0.125})
	if err != nil {
		f.Fatal(err)
	}
	typed := []error{ErrInvalidParams, ErrMissingKey, ErrChainExhausted, ErrInvariant, ErrNoiseBudget}
	isTyped := func(err error) bool {
		for _, want := range typed {
			if errors.Is(err, want) {
				return true
			}
		}
		return false
	}
	f.Add([]byte(`[{"op":"square"},{"op":"scale","arg":1.25},{"op":"offset","arg":0.125},{"op":"negate"}]`))
	f.Add([]byte(`[{"op":"rotate","arg":1e300}]`))
	f.Add([]byte(`[{"op":"rotate","arg":-2},{"op":"rotate","arg":257}]`))
	f.Add([]byte(`[{"op":"quartic"},{"op":"quartic"}]`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var program []ShardStep
		if json.Unmarshal(data, &program) != nil || len(program) > 8 {
			return
		}
		plan, err := ctx.PlanProgram(program, in.Level())
		if err != nil {
			if !isTyped(err) {
				t.Fatalf("PlanProgram(%s) refused with an untyped error: %v", data, err)
			}
			return
		}
		out, _, err := ctx.RunProgram(context.Background(), program, []*Ciphertext{in}, PipelineOptions{}, nil)
		if err != nil {
			if !isTyped(err) {
				t.Fatalf("accepted program %s failed with an untyped error: %v", data, err)
			}
			return
		}
		if out[0].Level() != plan.EndLevel {
			t.Fatalf("program %s ended at level %d, planned %d", data, out[0].Level(), plan.EndLevel)
		}
	})
}
