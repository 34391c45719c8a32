package ckks

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"bitpacker/internal/core"
)

// TestNoiseModelIsAnEnvelope checks that the analytic estimate is a
// conservative lower bound on the measured precision of a squaring chain,
// but not absurdly loose (within ~12 bits of measured).
func TestNoiseModelIsAnEnvelope(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		depth := 3
		s := newTestSetup(t, scheme, depth, 40, 61, 11, 8, nil)
		nm := NewNoiseModel(s.params)
		predicted := nm.EstimateSquaringChain(depth)

		rng := rand.New(rand.NewPCG(71, 72))
		n := s.params.Slots()
		vals := make([]complex128, n)
		for i := range vals {
			vals[i] = complex(0.5+0.5*rng.Float64(), 0)
		}
		ct := s.encryptValues(vals)
		ref := append([]complex128(nil), vals...)
		for d := 0; d < depth; d++ {
			ct = s.ev.MustRescale(s.ev.MustSquare(ct))
			for i := range ref {
				ref[i] *= ref[i]
			}
		}
		got := s.decrypt(ct)
		worst := math.Inf(1)
		for i := range ref {
			e := cmplx.Abs(got[i] - ref[i])
			if e == 0 {
				continue
			}
			if b := -math.Log2(e); b < worst {
				worst = b
			}
		}
		if worst < predicted {
			t.Fatalf("%v: measured %.1f bits below predicted floor %.1f", scheme, worst, predicted)
		}
		if worst > predicted+22 {
			t.Fatalf("%v: estimate uselessly loose: measured %.1f vs predicted %.1f", scheme, worst, predicted)
		}
	}
}

// TestNoiseModelCoversDivisionPoints: the operations whose divisions this
// change moved keep a sound noise estimate, on both schemes (BitPacker at
// 28-bit words, RNS-CKKS at 61). Each estimate is no looser than the
// parent's bookkeeping for the same op by more than 2 bits — the BSGS
// apply against the formula that charged every baby a floored keyswitch,
// MulRescale against MulRelin+Rescale, InnerSum against Rotate+Add
// pairs, AdjustTo against chained one-level
// adjusts, the degree-7 series against the NoiseBits the parent recorded
// at 7e1f31d for these inputs (the bookkeeping is data-independent) —
// and the one-division extraction against RotateHoisted with
// MulPlain+Rescale per reply, held to 1 bit. Every op decrypts inside
// the tracked bound with PR 19's 16× allowance — AdjustTo of a fresh
// top-level input too, since the division rounds: floored, it fell short
// by k/2 per coefficient, which NoiseBits does not model and which
// dominated an input carrying only encryption noise, 1.2 bits outside.
// AdjustTo must also decrypt no more than 0.5 bit worse than the chained
// adjusts.
func TestNoiseModelCoversDivisionPoints(t *testing.T) {
	for _, c := range []struct {
		scheme      core.Scheme
		w           int
		parentCheb7 float64
	}{{core.BitPacker, 28, 14.627875513811849}, {core.RNSCKKS, 61, 14.165682973314988}} {
		s := newTestSetup(t, c.scheme, 6, 40, c.w, 9, 3, nil)
		rng := rand.New(rand.NewPCG(311, uint64(c.w)))
		slots := s.params.Slots()
		vals := make([]complex128, slots)
		for i := range vals {
			vals[i] = complex(2*rng.Float64()-1, 0)
		}
		ct := s.encryptValues(vals)
		errBits := func(out *Ciphertext, want []complex128) float64 {
			got := s.decrypt(out)[:len(want)]
			for i := range got {
				got[i] = complex(real(got[i]), 0) // every reference is real
			}
			return math.Log2(maxErr(got, want))
		}
		check := func(op string, out *Ciphertext, want []complex128, parentNoise float64) float64 {
			t.Helper()
			e, bound := errBits(out, want), 4-s.ev.NoiseBudget(out)
			t.Logf("%v %s: error 2^%.2f, tracked bound 2^%.2f, estimate %.2f bits (parent's %.2f)", c.scheme, op, e, bound, out.NoiseBits, parentNoise)
			if e > bound {
				t.Errorf("%v %s: error 2^%.2f above the tracked bound 2^%.2f", c.scheme, op, e, bound)
			}
			if out.NoiseBits > parentNoise+2 {
				t.Errorf("%v %s: estimate %.2f bits, parent's %.2f: looser by more than 2", c.scheme, op, out.NoiseBits, parentNoise)
			}
			return e
		}

		lt, in, want := denseTestTransform(t, s, 32, 313)
		s.addRotationKeys(lt.Rotations())
		check("BSGS apply", s.ev.MustApplyLinearTransform(in, lt), want,
			s.ev.transformNoise(in, lt.Scale, lt.diags, s.ev.nm.KeySwitchBits()))

		sums := make([]complex128, slots)
		for i := range sums {
			for j := range 16 {
				sums[i] += vals[(i+j)%slots]
			}
		}
		chain := ct
		for r := 1; r < 16; r <<= 1 {
			chain = s.ev.MustAdd(chain, s.ev.MustRotate(chain, r))
		}
		check("InnerSum(16)", innerSum(t, s, ct, 16), sums, chain.NoiseBits)

		sq := make([]complex128, slots)
		for i := range sq {
			sq[i] = vals[i] * vals[i]
		}
		check("MulRescale", s.ev.MustMulRescale(ct, ct), sq, s.ev.MustRescale(s.ev.MustMulRelin(ct, ct)).NoiseBits)

		// The one-division extraction: no looser than the two-step
		// bookkeeping by more than 1 bit, for a zero, a duplicated and a
		// nonzero step.
		s.addRotationKeys([]int{1})
		steps, mask := []int{1, 0, 1}, extractionMask(slots)
		pt := s.encodeExt(mask, ct.Level)
		twoStep := s.twoStepExtract(ct, steps, pt)
		for i, out := range s.ev.MustRotateHoistedMulRescale(ct, steps, pt) {
			want := make([]complex128, slots)
			for k := range want {
				want[k] = vals[(k+steps[i])%slots] * mask[k]
			}
			check(fmt.Sprintf("RotateHoistedMulRescale step %d", steps[i]), out, want, twoStep[i].NoiseBits)
			if out.NoiseBits > twoStep[i].NoiseBits+1 {
				t.Errorf("%v RotateHoistedMulRescale step %d: estimate %.2f bits, two-step %.2f", c.scheme, steps[i], out.NoiseBits, twoStep[i].NoiseBits)
			}
		}

		chained := ct
		for chained.Level > 1 {
			chained = s.ev.MustAdjust(chained)
		}
		if e, eParent := check("AdjustTo(top → 1)", s.ev.MustAdjustTo(ct, 1), vals, chained.NoiseBits), errBits(chained, vals); e > eParent+0.5 {
			t.Errorf("%v AdjustTo(top → 1): error 2^%.2f, chained adjusts 2^%.2f", c.scheme, e, eParent)
		}

		cheb7 := []float64{0.1, 0.8, -0.3, 0.05, 0.12, -0.05, 0.03, 0.02}
		series, err := s.ev.EvalChebyshev(s.enc, ct, cheb7)
		if err != nil {
			t.Fatal(err)
		}
		exact := make([]complex128, slots)
		for i := range exact {
			exact[i] = complex(chebyshevRef(cheb7, real(vals[i])), 0)
		}
		check("degree-7 Chebyshev", series, exact, c.parentCheb7)
	}
}

func TestNoiseModelMonotonicity(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 5, 40, 61, 10, 8, nil)
	nm := NewNoiseModel(s.params)
	prev := math.Inf(1)
	for d := 1; d <= 4; d++ {
		p := nm.EstimateSquaringChain(d)
		if p > prev {
			t.Fatalf("precision estimate increased with depth: %f -> %f", prev, p)
		}
		prev = p
	}
	if !nm.SupportsDepth(2, 10) {
		t.Fatal("40-bit scale should support depth 2 at 10-bit precision")
	}
	if nm.SupportsDepth(4, 35) {
		t.Fatal("cannot promise 35-bit precision at a 40-bit scale")
	}
}

func TestNoiseModelScaleSensitivity(t *testing.T) {
	// Higher scales must predict more precision.
	var p30, p50 float64
	for _, sb := range []float64{30, 50} {
		s := newTestSetup(t, core.BitPacker, 3, sb, 61, 10, 8, nil)
		nm := NewNoiseModel(s.params)
		if sb == 30 {
			p30 = nm.EstimateSquaringChain(2)
		} else {
			p50 = nm.EstimateSquaringChain(2)
		}
	}
	if p50 < p30+12 {
		t.Fatalf("precision should scale with the CKKS scale: %f vs %f", p30, p50)
	}
}

// SupportsDepth reports whether a program of the given multiplicative
// depth retains at least minPrecisionBits of relative precision under
// this model.
func (nm *NoiseModel) SupportsDepth(depth int, minPrecisionBits float64) bool {
	return nm.EstimateSquaringChain(depth) >= minPrecisionBits
}
