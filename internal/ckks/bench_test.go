package ckks

import (
	"math/rand/v2"
	"testing"

	"bitpacker/internal/core"
)

// BenchmarkDivideOnce times the operations whose divisions moved — the
// BSGS apply of a dense 32×32 matrix (32 diagonals), MulRescale,
// AdjustTo from the top level to level 1 and a degree-7 Chebyshev series
// — at logN 12 on the benchmark's two configurations (BitPacker at 28-bit
// words, RNS-CKKS at 61; 8 levels of 40-bit scale, 3 digits). CI runs it
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
		s.addRotationKeys(lt.Rotations())
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
		} {
			b.Run(c.name+"/"+op.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					op.run()
				}
			})
		}
	}
}
