package ckks

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"bitpacker/internal/core"
)

// BenchmarkDivideOnce times the operations whose divisions moved — the
// BSGS apply of a dense 32×32 matrix (32 diagonals), MulRescale,
// AdjustTo from the top level to level 1, a degree-7 Chebyshev series
// and a 32-slot InnerSum — at logN 12 on the benchmark's two
// configurations (BitPacker at 28-bit words, RNS-CKKS at 61; 8 levels
// of 40-bit scale, 3 digits). CI runs it
// once as a smoke (-benchtime 1x); for numbers, build the parent's and
// the change's test binaries and alternate them pinned (verify skill).
func BenchmarkDivideOnce(b *testing.B) {
	for _, c := range []struct {
		name   string
		scheme core.Scheme
		w      int
	}{{"bp28", core.BitPacker, 28}, {"rns61", core.RNSCKKS, 61}} {
		s := newTestSetup(b, c.scheme, 8, 40, c.w, 12, 3, nil)
		top := s.params.MaxLevel()
		rng := rand.New(rand.NewPCG(501, uint64(c.w)))
		ct := s.encryptValues(randomValues(s.params.Slots(), rng))
		lt, err := NewLinearTransform(s.params, s.enc, denseTestMatrix(rng, 32), top)
		if err != nil {
			b.Fatal(err)
		}
		s.addRotationKeys(append(lt.Rotations(), 16))
		cheb7 := []float64{0.1, 0.8, -0.3, 0.05, 0.12, -0.05, 0.03, 0.02}
		for _, op := range []struct {
			name string
			run  func()
		}{
			{"ApplyLinearTransform32", func() { s.ev.MustApplyLinearTransform(ct, lt) }},
			{"MulRescale", func() { s.ev.MustMulRescale(ct, ct) }},
			{"AdjustToLevel1", func() { s.ev.MustAdjustTo(ct, 1) }},
			{"EvalChebyshev7", func() {
				if _, err := s.ev.EvalChebyshev(s.enc, ct, cheb7); err != nil {
					b.Fatal(err)
				}
			}},
			{"InnerSum32", func() { innerSum(b, s, ct, 32) }},
		} {
			b.Run(c.name+"/"+op.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					op.run()
				}
			})
		}
	}
}

// BenchmarkRotate times Rotate, Conjugate and an 8-step RotateHoisted —
// every one the hoisted rotation, the first two its one-step case — at
// LogN 13 on the benchmark's two configurations (BitPacker at 28-bit
// words, RNS-CKKS at 61; 8 levels of 40-bit scale, 3 digits), at three
// levels of the infer unit: the top, L3 (its second transform) and L1
// (its InnerSum). The keyswitch decomposes into one group per key digit
// at the top and into fewer below it (ksPlan), so the lower levels are
// where a change to the decomposition shows. For numbers, alternate the
// parent's and the change's test binaries (EXPERIMENTS.md).
func BenchmarkRotate(b *testing.B) {
	eight := []int{1, 2, 3, 4, 5, 6, 7, 8}
	for _, c := range []struct {
		name   string
		scheme core.Scheme
		w      int
	}{{"bp28", core.BitPacker, 28}, {"rns61", core.RNSCKKS, 61}} {
		s := newTestSetup(b, c.scheme, 8, 40, c.w, 13, 3, eight)
		top := s.encryptValues(randomValues(s.params.Slots(), rand.New(rand.NewPCG(509, uint64(c.w)))))
		for _, l := range []int{top.Level, 3, 1} {
			ct := top
			if l < top.Level {
				ct = s.ev.MustAdjustTo(top, l)
			}
			for _, op := range []struct {
				name string
				run  func()
			}{
				{"Rotate", func() { s.ev.MustRotate(ct, 1) }},
				{"Conjugate", func() { s.ev.MustConjugate(ct) }},
				{"RotateHoisted8", func() { s.ev.MustRotateHoisted(ct, eight) }},
			} {
				b.Run(fmt.Sprintf("%s/L%d/%s", c.name, l, op.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						op.run()
					}
				})
			}
		}
	}
}

// encoderBench runs op over a LogN 12 RNS-CKKS chain's top moduli cut
// to 1 and 3 residues, at the top level's scale.
func encoderBench(b *testing.B, op func(b *testing.B, s *testSetup, vals []complex128, moduli []uint64)) {
	s := newTestSetup(b, core.RNSCKKS, 2, 40, 61, 12, 3, nil)
	vals := randomValues(s.params.Slots(), rand.New(rand.NewPCG(507, 508)))
	for _, r := range []int{1, 3} {
		moduli := s.params.LevelModuli(s.params.MaxLevel())[:r]
		b.Run(fmt.Sprintf("R%d", r), func(b *testing.B) { op(b, s, vals, moduli) })
	}
}

// BenchmarkEncode times Encode at LogN 12 over 1 and 3 residues.
func BenchmarkEncode(b *testing.B) {
	encoderBench(b, func(b *testing.B, s *testSetup, vals []complex128, moduli []uint64) {
		scale := s.params.DefaultScale(s.params.MaxLevel())
		for i := 0; i < b.N; i++ {
			s.enc.MustEncode(vals, scale, moduli)
		}
	})
}

// BenchmarkDecode times Decode at LogN 12 over 1 and 3 residues, on an
// encoded vector (coefficients of decryption size).
func BenchmarkDecode(b *testing.B) {
	encoderBench(b, func(b *testing.B, s *testSetup, vals []complex128, moduli []uint64) {
		scale := s.params.DefaultScale(s.params.MaxLevel())
		pt := s.enc.MustEncode(vals, scale, moduli)
		basis := s.dec.MustBasis(moduli)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.enc.Decode(pt, basis, scale)
		}
	})
}
