package rns

import (
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// Property: Compose is the inverse of Decompose for any value in [0, Q).
func TestQuickComposeDecompose(t *testing.T) {
	b, err := NewBasis(64, primes(t, 50, 256, 4))
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed1, seed2 uint64) bool {
		rng := rand.New(rand.NewPCG(seed1, seed2))
		x := randBig(rng, b.Q)
		return b.Compose(b.Decompose(x)).Cmp(x) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: ComposeCentered always lands in (-Q/2, Q/2] and is congruent
// to the input modulo Q.
func TestQuickComposeCentered(t *testing.T) {
	b, err := NewBasis(64, primes(t, 40, 256, 3))
	if err != nil {
		t.Fatal(err)
	}
	half := new(big.Int).Rsh(b.Q, 1)
	negHalf := new(big.Int).Neg(half)
	f := func(seed1, seed2 uint64) bool {
		rng := rand.New(rand.NewPCG(seed1, seed2))
		x := randBig(rng, b.Q)
		c := b.ComposeCentered(b.Decompose(x))
		if c.Cmp(negHalf) <= 0 || c.Cmp(half) > 0 {
			return false
		}
		diff := new(big.Int).Sub(c, x)
		return new(big.Int).Mod(diff, b.Q).Sign() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the approximate conversion never overshoots by more than
// (k-1) * P, i.e. the result is congruent to x + e*P with 0 <= e < k.
func TestQuickConvOvershootBound(t *testing.T) {
	src := primes(t, 35, 256, 4)
	dst := primes(t, 55, 256, 2)
	c := NewConv(src, dst)
	srcBasis, _ := NewBasis(64, src)
	dstBasis, _ := NewBasis(64, dst)
	f := func(seed1, seed2 uint64) bool {
		rng := rand.New(rand.NewPCG(seed1, seed2))
		x := randBig(rng, srcBasis.Q)
		out := convertScalar(c, srcBasis.Decompose(x))
		// Reconstruct the converted value mod dstQ and check congruence
		// to x + e*P for some 0 <= e < len(src).
		got := dstBasis.Compose(out)
		for e := int64(0); e < int64(len(src)); e++ {
			v := new(big.Int).Mul(big.NewInt(e), c.P)
			v.Add(v, x)
			v.Mod(v, dstBasis.Q)
			if v.Cmp(got) == 0 {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: exact division rounds within ±⌈k/2⌉ for arbitrary inputs,
// including values smaller than P.
func TestQuickExactDivBound(t *testing.T) {
	shed := primes(t, 30, 256, 3)
	kept := primes(t, 50, 256, 3)
	d := NewExactDiv(shed, kept)
	full := append(append([]uint64(nil), kept...), shed...)
	fb, _ := NewBasis(64, full)
	keptBasis, _ := NewBasis(64, kept)
	bound := big.NewInt(int64(len(shed)+1) / 2)
	half := new(big.Int).Rsh(d.Conv.P, 1)
	f := func(seed1, seed2 uint64) bool {
		rng := rand.New(rand.NewPCG(seed1, seed2))
		x := randBig(rng, fb.Q)
		xs := fb.Decompose(x)
		out := d.ApplyScalar(xs[:len(kept)], xs[len(kept):])
		got := keptBasis.Compose(out)
		want := new(big.Int).Div(x.Add(x, half), d.Conv.P)
		diff := keptBasis.ComposeCentered(keptBasis.Decompose(want.Sub(got, want)))
		return diff.CmpAbs(bound) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
