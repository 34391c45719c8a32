package ring

import (
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func quickPolys(seed1, seed2 uint64, ctx *Context, moduli []uint64, n int) []*Poly {
	rng := rand.New(rand.NewPCG(seed1, seed2))
	out := make([]*Poly, n)
	for i := range out {
		out[i] = randPoly(ctx, moduli, rng)
	}
	return out
}

// Property: ring addition is commutative and associative.
func TestQuickAddLaws(t *testing.T) {
	ctx := testCtx(t, 32)
	moduli := testModuli(t, 32, 45, 3)
	f := func(s1, s2 uint64) bool {
		ps := quickPolys(s1, s2, ctx, moduli, 3)
		a, b, c := ps[0], ps[1], ps[2]
		ab := NewPoly(ctx, moduli)
		ab.Add(a, b)
		ba := NewPoly(ctx, moduli)
		ba.Add(b, a)
		if !ab.Equal(ba) {
			return false
		}
		abc1 := NewPoly(ctx, moduli)
		abc1.Add(ab, c)
		bc := NewPoly(ctx, moduli)
		bc.Add(b, c)
		abc2 := NewPoly(ctx, moduli)
		abc2.Add(a, bc)
		return abc1.Equal(abc2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: multiplication distributes over addition (in the NTT domain).
func TestQuickMulDistributes(t *testing.T) {
	ctx := testCtx(t, 32)
	moduli := testModuli(t, 32, 45, 2)
	f := func(s1, s2 uint64) bool {
		ps := quickPolys(s1, s2, ctx, moduli, 3)
		a, b, c := ps[0], ps[1], ps[2]
		for _, p := range ps {
			p.NTT()
		}
		sum := NewPoly(ctx, moduli)
		sum.IsNTT = true
		sum.Add(b, c)
		lhs := NewPoly(ctx, moduli)
		lhs.IsNTT = true
		lhs.MulCoeffs(a, sum)
		ab := NewPoly(ctx, moduli)
		ab.IsNTT = true
		ab.MulCoeffs(a, b)
		ac := NewPoly(ctx, moduli)
		ac.IsNTT = true
		ac.MulCoeffs(a, c)
		rhs := NewPoly(ctx, moduli)
		rhs.IsNTT = true
		rhs.Add(ab, ac)
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: NTT is a bijection (Forward then Inverse is the identity) for
// random polynomials over random subsets of moduli.
func TestQuickNTTBijection(t *testing.T) {
	ctx := testCtx(t, 64)
	moduli := testModuli(t, 64, 50, 4)
	f := func(s1, s2 uint64, pick uint8) bool {
		sub := moduli[:1+int(pick)%len(moduli)]
		rng := rand.New(rand.NewPCG(s1, s2))
		p := randPoly(ctx, sub, rng)
		orig := p.Copy()
		p.NTT()
		p.INTT()
		return p.Equal(orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: automorphisms compose according to the group law
// phi_j(phi_k(p)) = phi_{jk mod 2N}(p) for random odd exponents.
func TestQuickAutomorphismGroupLaw(t *testing.T) {
	n := 32
	ctx := testCtx(t, n)
	moduli := testModuli(t, n, 40, 2)
	m := uint64(2 * n)
	f := func(s1, s2 uint64, j8, k8 uint8) bool {
		j := (uint64(j8)*2 + 1) % m
		k := (uint64(k8)*2 + 1) % m
		rng := rand.New(rand.NewPCG(s1, s2))
		p := randPoly(ctx, moduli, rng)
		lhs := p.Automorphism(k).Automorphism(j)
		rhs := p.Automorphism(j * k % m)
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ScaleUp then ScaleDown by the same moduli returns the original
// value up to the rounded division's error (at most ⌈k/2⌉ for k shed
// moduli; an exact multiple of K comes back shifted by a constant).
func TestQuickScaleUpDownInverse(t *testing.T) {
	n := 16
	ctx := testCtx(t, n)
	moduli := testModuli(t, n, 45, 3)
	extras := testModuli(t, n, 38, 2)
	f := func(s1, s2 uint64) bool {
		rng := rand.New(rand.NewPCG(s1, s2))
		p := randPoly(ctx, moduli, rng)
		basis := p.Basis()
		up := p.ScaleUp(extras)
		params := NewScaleDownParams(up.Moduli, []int{3, 4})
		down := up.ScaleDown(params)
		for k := 0; k < n; k++ {
			a := p.CoeffBig(basis, k)
			b := down.CoeffBig(basis, k)
			if d := basis.ComposeCentered(basis.Decompose(a.Sub(a, b))); d.CmpAbs(bigOne) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

var bigOne = big.NewInt(1)
