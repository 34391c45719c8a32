package ring

import (
	"math/big"
	"math/rand/v2"
	"testing"

	"bitpacker/internal/engine"
)

// Differential tests for the fused kernels: each must be bit-identical to
// the staged composition it replaces, at workers 1 and 4.

func withWorkers(t *testing.T, f func()) {
	t.Helper()
	forceEngine(t)
	for _, w := range []int{1, 4} {
		engine.SetWorkers(w)
		f()
	}
}

func mustEqual(t *testing.T, name string, got, want *Poly) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s: fused result differs from staged", name)
	}
}

func TestScratchCopyTransforms(t *testing.T) {
	n := 128
	ctx := testCtx(t, n)
	moduli := testModuli(t, n, 55, 4)
	rng := rand.New(rand.NewPCG(7, 8))

	withWorkers(t, func() {
		p := randPoly(ctx, moduli, rng)
		p.IsNTT = true
		want := p.ScratchCopy()
		want.INTT()
		mustEqual(t, "ScratchCopyINTT", p.ScratchCopyINTT(), want)

		c := randPoly(ctx, moduli, rng)
		wantF := c.ScratchCopy()
		wantF.NTT()
		mustEqual(t, "ScratchCopyNTT", c.ScratchCopyNTT(), wantF)

		// Same-domain inputs degrade to plain copies.
		mustEqual(t, "ScratchCopyINTT/coeff", c.ScratchCopyINTT(), c)
		mustEqual(t, "ScratchCopyNTT/ntt", p.ScratchCopyNTT(), p)
	})
}

func TestMulRelinProductsMatchesStaged(t *testing.T) {
	n := 128
	ctx := testCtx(t, n)
	moduli := testModuli(t, n, 55, 4)
	rng := rand.New(rand.NewPCG(9, 10))
	mk := func() *Poly {
		p := randPoly(ctx, moduli, rng)
		p.IsNTT = true
		return p
	}
	a0, a1, b0, b1 := mk(), mk(), mk(), mk()

	want0 := NewPoly(ctx, moduli)
	want1 := NewPoly(ctx, moduli)
	want2 := NewPoly(ctx, moduli)
	want0.IsNTT, want1.IsNTT, want2.IsNTT = true, true, true
	want0.MulCoeffs(a0, b0)
	want1.MulCoeffs(a0, b1)
	want1.MulCoeffsAdd(a1, b0)
	want2.MulCoeffs(a1, b1)

	withWorkers(t, func() {
		d0, d1, d2 := ctx.GetPoly(moduli), ctx.GetPoly(moduli), ctx.GetPoly(moduli)
		d0.IsNTT, d1.IsNTT, d2.IsNTT = true, true, true
		MulRelinProducts(d0, d1, d2, a0, a1, b0, b1)
		mustEqual(t, "MulRelinProducts/d0", d0, want0)
		mustEqual(t, "MulRelinProducts/d1", d1, want1)
		mustEqual(t, "MulRelinProducts/d2", d2, want2)
	})
}

func TestPairKernelsMatchStaged(t *testing.T) {
	n := 128
	ctx := testCtx(t, n)
	moduli := testModuli(t, n, 55, 3)
	rng := rand.New(rand.NewPCG(11, 12))
	a0 := randPoly(ctx, moduli, rng)
	a1 := randPoly(ctx, moduli, rng)
	b0 := randPoly(ctx, moduli, rng)
	b1 := randPoly(ctx, moduli, rng)
	k := new(big.Int).SetUint64(0xdeadbeefcafe)

	withWorkers(t, func() {
		o0, o1 := NewPoly(ctx, moduli), NewPoly(ctx, moduli)
		w0, w1 := NewPoly(ctx, moduli), NewPoly(ctx, moduli)

		AddPair(o0, a0, b0, o1, a1, b1)
		w0.Add(a0, b0)
		w1.Add(a1, b1)
		mustEqual(t, "AddPair/0", o0, w0)
		mustEqual(t, "AddPair/1", o1, w1)

		SubPair(o0, a0, b0, o1, a1, b1)
		w0.Sub(a0, b0)
		w1.Sub(a1, b1)
		mustEqual(t, "SubPair/0", o0, w0)
		mustEqual(t, "SubPair/1", o1, w1)

		NegPair(o0, a0, o1, a1)
		w0.Neg(a0)
		w1.Neg(a1)
		mustEqual(t, "NegPair/0", o0, w0)
		mustEqual(t, "NegPair/1", o1, w1)

		AddCopyPair(o0, a0, b0, o1, a1)
		w0.Add(a0, b0)
		mustEqual(t, "AddCopyPair/0", o0, w0)
		mustEqual(t, "AddCopyPair/1", o1, a1)

		MulScalarBigPair(o0, a0, o1, a1, k)
		w0.MulScalarBig(a0, k)
		w1.MulScalarBig(a1, k)
		mustEqual(t, "MulScalarBigPair/0", o0, w0)
		mustEqual(t, "MulScalarBigPair/1", o1, w1)
	})

	// NTT-domain pair kernels.
	for _, p := range []*Poly{a0, a1, b0, b1} {
		p.IsNTT = true
	}
	withWorkers(t, func() {
		o0, o1 := NewPoly(ctx, moduli), NewPoly(ctx, moduli)
		w0, w1 := NewPoly(ctx, moduli), NewPoly(ctx, moduli)
		o0.IsNTT, o1.IsNTT, w0.IsNTT, w1.IsNTT = true, true, true, true

		MulCoeffsPair(o0, a0, o1, a1, b0)
		w0.MulCoeffs(a0, b0)
		w1.MulCoeffs(a1, b0)
		mustEqual(t, "MulCoeffsPair/0", o0, w0)
		mustEqual(t, "MulCoeffsPair/1", o1, w1)

		// The inner product against its staged composition: a product
		// pass, then one accumulate pass per further term, on the
		// permuted operands.
		for _, k := range []uint64{1, GaloisElementForRotation(3, ctx.N)} {
			InnerProduct(o0, o1, k, []Term{{X: a0, Y0: b0, Y1: b1}, {X: a1, Y0: b1, Y1: b0}})
			x0, x1 := a0.PermuteNTT(k), a1.PermuteNTT(k)
			w0.MulCoeffs(x0, b0)
			w1.MulCoeffs(x0, b1)
			w0.MulCoeffsAdd(x1, b1)
			w1.MulCoeffsAdd(x1, b0)
			mustEqual(t, "InnerProduct/0", o0, w0)
			mustEqual(t, "InnerProduct/1", o1, w1)
		}
	})
}

func TestTransformAddFusionsMatchStaged(t *testing.T) {
	n := 128
	ctx := testCtx(t, n)
	moduli := testModuli(t, n, 55, 3)
	rng := rand.New(rand.NewPCG(15, 16))

	withWorkers(t, func() {
		// NTTBatch vs per-poly transforms.
		x := randPoly(ctx, moduli, rng)
		y := randPoly(ctx, moduli, rng)
		wx, wy := x.ScratchCopy(), y.ScratchCopy()
		wx.NTT()
		wy.NTT()
		gx, gy := x.ScratchCopy(), y.ScratchCopy()
		NTTBatch(gx, gy)
		mustEqual(t, "NTTBatch/0", gx, wx)
		mustEqual(t, "NTTBatch/1", gy, wy)

		outs := ScratchCopyBatch(x, y)
		mustEqual(t, "ScratchCopyBatch/0", outs[0], x)
		mustEqual(t, "ScratchCopyBatch/1", outs[1], y)
	})
}

func TestRescalePrepAndScaleDownBatchMatchStaged(t *testing.T) {
	n := 128
	ctx := testCtx(t, n)
	all := testModuli(t, n, 55, 6)
	moduli, up := all[:4], all[4:]
	rng := rand.New(rand.NewPCG(17, 18))
	kInt := new(big.Int).SetInt64(-987654321)
	kBig := new(big.Int).Set(kInt)
	for _, q := range up {
		kBig.Mul(kBig, new(big.Int).SetUint64(q))
	}

	withWorkers(t, func() {
		p0 := randPoly(ctx, moduli, rng)
		p1 := randPoly(ctx, moduli, rng)
		p0.IsNTT, p1.IsNTT = true, true

		// Staged: copy, premultiply by kInt, ScaleUp by Π up — in either
		// domain, since ScaleUpBatch keeps its input's.
		for _, intt := range []bool{false, true} {
			want := make([]*Poly, 2)
			in := make([]*Poly, 2)
			for i, p := range []*Poly{p0, p1} {
				in[i] = p.ScratchCopy()
				if intt {
					in[i].INTT()
				}
				m := NewPoly(ctx, moduli)
				m.IsNTT = in[i].IsNTT
				m.MulScalarBig(in[i], kInt)
				want[i] = m.ScaleUp(up)
			}
			// Fused: one pass with the folded premultiplier kInt·Πup.
			got := ctx.ScaleUpBatch(in, up, reduceBig(kBig, in[0].Moduli))
			mustEqual(t, "ScaleUpBatch/0", got[0], want[0])
			mustEqual(t, "ScaleUpBatch/1", got[1], want[1])
			if !intt {
				continue
			}
			// ScaleDownBatch vs ScaleDown.
			params := NewScaleDownParams(got[0].Moduli, []int{len(got[0].Moduli) - 1})
			gotDown := params.ScaleDownBatch(got)
			mustEqual(t, "ScaleDownBatch/0", gotDown[0], got[0].ScaleDown(params))
			mustEqual(t, "ScaleDownBatch/1", gotDown[1], got[1].ScaleDown(params))
		}
	})
}

func TestPermuteNTTMatchesCoeffAutomorphism(t *testing.T) {
	n := 128
	ctx := testCtx(t, n)
	moduli := testModuli(t, n, 55, 3)
	rng := rand.New(rand.NewPCG(31, 32))

	// Rotation elements (5^r mod 2N), conjugation (2N-1) and an arbitrary
	// odd element: the evaluation-domain gather must match coefficient-
	// domain permute + forward transform bit-for-bit on every residue.
	els := []uint64{
		GaloisElementForRotation(1, n),
		GaloisElementForRotation(5, n),
		GaloisElementForConjugation(n),
		3,
	}
	withWorkers(t, func() {
		for _, k := range els {
			p := randPoly(ctx, moduli, rng)
			want := p.Automorphism(k)
			want.NTT()

			pn := p.ScratchCopyNTT()
			got := pn.PermuteNTT(k)
			mustEqual(t, "PermuteNTT", got, want)

			// PermuteNTTAdd fuses the fold with the gather.
			b := randPoly(ctx, moduli, rng)
			b.IsNTT = true
			wantAdd := NewPoly(ctx, moduli)
			wantAdd.IsNTT = true
			wantAdd.Add(want, b)
			gotAdd := pn.PermuteNTTAdd(k, b)
			mustEqual(t, "PermuteNTTAdd", gotAdd, wantAdd)
		}
	})
}

func TestScaleDownNTTBatchMatchesStaged(t *testing.T) {
	n := 128
	ctx := testCtx(t, n)
	moduli := testModuli(t, n, 55, 5)
	rng := rand.New(rand.NewPCG(41, 42))

	// Shed the last two rows (the special-modulus layout of a keyswitch
	// ModDown) and, separately, an interior row.
	for _, shedPos := range [][]int{{3, 4}, {1}} {
		params := NewScaleDownParams(moduli, shedPos)
		withWorkers(t, func() {
			a := randPoly(ctx, moduli, rng)
			b := randPoly(ctx, moduli, rng)
			a.IsNTT, b.IsNTT = true, true

			// Staged: INTT everything, coefficient-domain division,
			// forward transform of the kept rows.
			want := make([]*Poly, 2)
			for i, p := range []*Poly{a, b} {
				c := p.ScratchCopyINTT()
				want[i] = c.ScaleDown(params)
				want[i].NTT()
			}
			got := params.ScaleDownNTTBatch([]*Poly{a, b})
			mustEqual(t, "ScaleDownNTTBatch/0", got[0], want[0])
			mustEqual(t, "ScaleDownNTTBatch/1", got[1], want[1])
		})
	}
}
