package bitpacker

import (
	"math"
	"runtime"
	"testing"
)

func helperCtx(t *testing.T, levels int) *Context {
	t.Helper()
	ctx, err := New(Config{
		Scheme:    BitPacker,
		LogN:      11,
		Levels:    levels,
		ScaleBits: 40,
		WordBits:  28,
		Rotations: []int{1, 2, 4, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestPower(t *testing.T) {
	ctx := helperCtx(t, 5)
	x := 0.9
	ct, _ := ctx.EncryptReal([]float64{x})
	for _, k := range []int{1, 2, 3, 5, 8} {
		got, err := ctx.Power(ct, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		out, _ := ctx.DecryptReal(got)
		want := math.Pow(x, float64(k))
		if math.Abs(out[0]-want) > 1e-3 {
			t.Fatalf("x^%d = %v, want %v", k, out[0], want)
		}
	}
	if _, err := ctx.Power(ct, 0); err == nil {
		t.Fatal("power 0 accepted")
	}
	if _, err := ctx.Power(ct, 1<<10); err == nil {
		t.Fatal("impossible depth accepted")
	}
}

func TestInnerSum(t *testing.T) {
	ctx := helperCtx(t, 2)
	vals := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	ct, _ := ctx.EncryptReal(vals)
	sum, err := ctx.InnerSum(ct, 8)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ctx.DecryptReal(sum)
	want := 0.0
	for _, v := range vals {
		want += v
	}
	if math.Abs(out[0]-want) > 1e-4 {
		t.Fatalf("inner sum %v, want %v", out[0], want)
	}
	if _, err := ctx.InnerSum(ct, 3); err == nil {
		t.Fatal("non power of two accepted")
	}
	if _, err := ctx.InnerSum(ct, 4*ctx.Slots()); err == nil {
		t.Fatal("oversized width accepted")
	}
}

func TestEvalPolynomial(t *testing.T) {
	ctx := helperCtx(t, 4)
	x := 0.4
	ct, _ := ctx.EncryptReal([]float64{x})
	// p(x) = 0.5 + 0.197x - 0.004x^3 (the HELR sigmoid approximation).
	coeffs := []float64{0.5, 0.197, 0, -0.004}
	got, err := ctx.EvalPolynomial(ct, coeffs)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ctx.DecryptReal(got)
	want := 0.5 + 0.197*x - 0.004*x*x*x
	if math.Abs(out[0]-want) > 1e-3 {
		t.Fatalf("p(x) = %v, want %v", out[0], want)
	}

	if _, err := ctx.EvalPolynomial(ct, nil); err == nil {
		t.Fatal("empty polynomial accepted")
	}
	deep := make([]float64, 20)
	if _, err := ctx.EvalPolynomial(ct, deep); err == nil {
		t.Fatal("too-deep polynomial accepted")
	}
}

// TestEvalPolynomialScalarsMatchEncoderPath runs EvalPolynomial, whose
// coefficients reach the evaluator as scalars, beside the same Horner
// scheme over MulConst/AddConst of the replicated, encoded coefficient —
// the path it took before — at a narrow and a wide word, with negative
// and zero coefficients: within 2^-25 of each other, and within the
// precision the result's own noise budget promises (the fuzz target's
// 16× allowance) of the exact polynomial.
func TestEvalPolynomialScalarsMatchEncoderPath(t *testing.T) {
	coeffs := []float64{-0.5, 0.197, 0, -0.004, 0.3}
	for _, w := range []int{28, 61} {
		ctx, err := New(Config{Scheme: BitPacker, LogN: 10, Levels: 5, ScaleBits: 40, WordBits: w})
		if err != nil {
			t.Fatal(err)
		}
		xs := []float64{0.4, -0.9, 0, 0.77}
		ct, _ := ctx.EncryptReal(xs)
		got, err := ctx.EvalPolynomial(ct, coeffs)
		if err != nil {
			t.Fatal(err)
		}

		cvec := func(v float64) []complex128 {
			out := make([]complex128, ctx.Slots())
			for i := range out {
				out[i] = complex(v, 0)
			}
			return out
		}
		must := func(c *Ciphertext, err error) *Ciphertext {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		d := len(coeffs) - 1
		ref := must(ctx.Rescale(must(ctx.MulConst(ct, cvec(coeffs[d])))))
		ref = must(ctx.AddConst(ref, cvec(coeffs[d-1])))
		for i := d - 2; i >= 0; i-- {
			ref = must(ctx.Rescale(must(ctx.Mul(ref, must(ctx.Adjust(ct, ref.Level()))))))
			ref = must(ctx.AddConst(ref, cvec(coeffs[i])))
		}

		out, _ := ctx.DecryptReal(got)
		enc, _ := ctx.DecryptReal(ref)
		bound := 16 * math.Exp2(-ctx.NoiseBudget(got))
		for i, x := range xs {
			want := 0.0
			for k := d; k >= 0; k-- {
				want = want*x + coeffs[k]
			}
			if e := math.Abs(out[i] - enc[i]); e > 1.0/(1<<25) {
				t.Errorf("w=%d p(%g): scalar path %g from the encoder path", w, x, e)
			}
			if e := math.Abs(out[i] - want); e > bound {
				t.Errorf("w=%d p(%g) = %g, want %g: error above the tracked bound %g", w, x, out[i], want, bound)
			}
		}
	}
}

func TestCrossSchemeEquivalence(t *testing.T) {
	// The two representations must compute the same function to within
	// noise: run an identical program under both and compare outputs.
	programs := func(ctx *Context) []float64 {
		in := []float64{0.7, -0.3, 0.5, 0.2}
		ct, err := ctx.EncryptReal(in)
		if err != nil {
			t.Fatal(err)
		}
		sq := ctx.MustRescale(ctx.MustMul(ct, ct))
		cu := ctx.MustRescale(ctx.MustMul(sq, ctx.MustAdjust(ct, sq.Level())))
		res := ctx.MustAdd(cu, ctx.MustAdjust(ct, cu.Level()))
		out, _ := ctx.DecryptReal(res)
		return out[:4]
	}
	var results [2][]float64
	for i, scheme := range []Scheme{BitPacker, RNSCKKS} {
		ctx, err := New(Config{
			Scheme: scheme, LogN: 11, Levels: 3, ScaleBits: 40, WordBits: 28, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = programs(ctx)
	}
	for i := range results[0] {
		if math.Abs(results[0][i]-results[1][i]) > 1e-5 {
			t.Fatalf("slot %d: BitPacker %v vs RNS-CKKS %v", i, results[0][i], results[1][i])
		}
	}
}

func TestTransformAPI(t *testing.T) {
	ctx, err := New(Config{
		Scheme: BitPacker, LogN: 10, Levels: 2, ScaleBits: 40, WordBits: 61,
		Rotations: []int{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	mat := [][]complex128{
		{1, 2, 0, 0},
		{0, 1, 2, 0},
		{0, 0, 1, 2},
		{2, 0, 0, 1},
	}
	tr, err := ctx.NewMatrixTransform(mat, ctx.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	vec := []complex128{0.1, 0.2, 0.3, 0.4}
	ct, err := ctx.Encrypt(ctx.Replicate(vec, 4))
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Decrypt(ctx.MustRescale(ctx.MustApply(ct, tr)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		want := complex(0, 0)
		for j := 0; j < 4; j++ {
			want += mat[i][j] * vec[j]
		}
		if d := out[i] - want; real(d)*real(d)+imag(d)*imag(d) > 1e-8 {
			t.Fatalf("row %d: got %v want %v", i, out[i], want)
		}
	}
	if len(tr.Rotations()) == 0 {
		t.Fatal("transform should need rotations")
	}
}

// TestTransformStoresEachDiagonalOnce: a transform retains one encoded
// polynomial (R rows of N words) per diagonal and little else. Measured as
// live heap across the build; with a second encoded copy of every
// diagonal beside the one Apply reads, the same build retained 2.0 x.
func TestTransformStoresEachDiagonalOnce(t *testing.T) {
	const dim = 32
	mat := make([][]complex128, dim)
	for i := range mat {
		mat[i] = make([]complex128, dim)
		for j := range mat[i] {
			mat[i][j] = complex(float64(1+(i*dim+j)%7)/8, 0)
		}
	}
	for _, scheme := range []Scheme{RNSCKKS, BitPacker} {
		ctx, err := New(Config{Scheme: scheme, LogN: 12, Levels: 3, ScaleBits: 40, WordBits: 28})
		if err != nil {
			t.Fatal(err)
		}
		ct, err := ctx.EncryptReal([]float64{0.5})
		if err != nil {
			t.Fatal(err)
		}
		live := func() uint64 {
			var ms runtime.MemStats
			runtime.GC()
			runtime.GC() // the second cycle drops sync.Pool's victim cache
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
		before := live()
		tr, err := ctx.NewMatrixTransform(mat, ctx.MaxLevel())
		if err != nil {
			t.Fatal(err)
		}
		retained := float64(live()) - float64(before)
		runtime.KeepAlive(tr)
		runtime.KeepAlive(ctx) // or its keys are collected between the readings
		once := float64(dim * ct.Residues() * (1 << 12) * 8)
		if retained > 1.15*once {
			t.Errorf("%v: a %dx%d transform retains %.1f MB, %.2f x one encoded copy per diagonal (%.1f MB)",
				scheme, dim, dim, retained/1e6, retained/once, once/1e6)
		} else {
			t.Logf("%v: retained %.2f x one encoded copy per diagonal (%.1f MB)", scheme, retained/once, once/1e6)
		}
	}
}

func TestChebyshevAPI(t *testing.T) {
	ctx := helperCtx(t, 4)
	x := 0.3
	ct, _ := ctx.EncryptReal([]float64{x})
	coeffs := []float64{0.2, 0.5, -0.1, 0.05}
	got, err := ctx.Chebyshev(ct, coeffs)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ctx.DecryptReal(got)
	// Reference via the recurrence.
	t0, t1 := 1.0, x
	want := coeffs[0]*t0 + coeffs[1]*t1
	for k := 2; k < len(coeffs); k++ {
		tk := 2*x*t1 - t0
		want += coeffs[k] * tk
		t0, t1 = t1, tk
	}
	if math.Abs(out[0]-want) > 1e-3 {
		t.Fatalf("chebyshev: got %v want %v", out[0], want)
	}
}

func TestRefreshAPI(t *testing.T) {
	ctx, err := New(Config{
		Scheme:             BitPacker,
		LogN:               8,
		Levels:             22,
		ScaleBits:          40,
		QMinBits:           48,
		WordBits:           61,
		SparseSecretWeight: 3,
		Bootstrap:          &BootstrapOptions{KRange: 2, SineDegree: 19},
		Seed:               7,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{0.3, -0.2}
	ct, _ := ctx.EncryptReal(in)
	ct = ctx.MustAdjust(ct, 0)
	refreshed, err := ctx.Refresh(ct)
	if err != nil {
		t.Fatal(err)
	}
	if refreshed.Level() < 1 {
		t.Fatalf("no levels regained: %d", refreshed.Level())
	}
	out, _ := ctx.DecryptReal(refreshed)
	for i, v := range in {
		if math.Abs(out[i]-v) > 0.06 {
			t.Fatalf("slot %d: %v vs %v", i, out[i], v)
		}
	}
	// Context without Bootstrap must refuse.
	plain := helperCtx(t, 2)
	pct, _ := plain.EncryptReal(in)
	if _, err := plain.Refresh(plain.MustAdjust(pct, 0)); err == nil {
		t.Fatal("Refresh without Config.Bootstrap accepted")
	}
}
