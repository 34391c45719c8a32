package ring

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// BenchmarkInnerProduct times InnerProduct on one row pair of 8192 words:
// narrow (28-bit, one-word sums) and wide (61-bit, two-word sums) moduli,
// 3 and 8 terms (a keyswitch's digits, a BSGS giant's diagonals), under
// the identity and a Galois map read in place. Its giant cases are a BSGS
// giant of the benchmark's 32x32 inference transform at LogN 13: 8 terms
// over 19 rows of 28-bit moduli, X dense and X stored one word per run
// of 128 (the diagonal's form since it is stored by runs).
func BenchmarkInnerProduct(b *testing.B) {
	const n = 8192
	ctx := testCtx(b, n)
	for _, w := range []struct {
		name string
		bits uint
	}{{"narrow", 28}, {"wide", 61}} {
		moduli := testModuli(b, n, w.bits, 1)
		rng := rand.New(rand.NewPCG(uint64(w.bits), 8))
		for _, terms := range []int{3, 8} {
			ts := make([]Term, terms)
			for i := range ts {
				ts[i] = Term{X: randPoly(ctx, moduli, rng), Y0: randPoly(ctx, moduli, rng), Y1: randPoly(ctx, moduli, rng)}
				ts[i].X.IsNTT = true
				ts[i].Y0.IsNTT = true
				ts[i].Y1.IsNTT = true
			}
			o0, o1 := NewPoly(ctx, moduli), NewPoly(ctx, moduli)
			o0.IsNTT, o1.IsNTT = true, true
			for _, k := range []uint64{1, GaloisElementForRotation(1, n)} {
				name := "identity"
				if k != 1 {
					name = "galois"
				}
				b.Run(fmt.Sprintf("%s/terms=%d/%s", w.name, terms, name), func(b *testing.B) {
					for range b.N {
						InnerProduct(o0, o1, k, ts)
					}
				})
			}
		}
	}
	moduli := testModuli(b, n, 28, 19)
	rng := rand.New(rand.NewPCG(19, 8))
	dense, runs := make([]Term, 8), make([]Term, 8)
	for i := range dense {
		x := randPoly(ctx, moduli, rng)
		for _, row := range x.Coeffs {
			for k := range row {
				row[k] = row[k&^127]
			}
		}
		y0, y1 := randPoly(ctx, moduli, rng), randPoly(ctx, moduli, rng)
		x.IsNTT, y0.IsNTT, y1.IsNTT = true, true, true
		dense[i] = Term{X: x, Y0: y0, Y1: y1}
		runs[i] = Term{X: x.Runs(7), Y0: y0, Y1: y1}
	}
	o0, o1 := NewPoly(ctx, moduli), NewPoly(ctx, moduli)
	o0.IsNTT, o1.IsNTT = true, true
	for name, ts := range map[string][]Term{"dense": dense, "runs": runs} {
		b.Run("giant/rows=19/"+name, func(b *testing.B) {
			for range b.N {
				InnerProduct(o0, o1, 1, ts)
			}
		})
	}
}
