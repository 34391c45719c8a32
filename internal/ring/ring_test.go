package ring

import (
	"math/big"
	"math/rand/v2"
	"testing"

	"bitpacker/internal/nt"
)

func testCtx(t testing.TB, n int) *Context {
	t.Helper()
	ctx, err := NewContext(n)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func testModuli(t testing.TB, n int, bits uint, count int) []uint64 {
	t.Helper()
	ps := nt.NTTPrimesBelow(uint64(1)<<bits, uint64(2*n), count)
	if len(ps) != count {
		t.Fatalf("not enough primes")
	}
	return ps
}

func randPoly(ctx *Context, moduli []uint64, rng *rand.Rand) *Poly {
	p := NewPoly(ctx, moduli)
	for i, q := range p.Moduli {
		for k := range p.Coeffs[i] {
			p.Coeffs[i][k] = rng.Uint64N(q)
		}
	}
	return p
}

func TestAddSubNeg(t *testing.T) {
	ctx := testCtx(t, 32)
	moduli := testModuli(t, 32, 40, 3)
	rng := rand.New(rand.NewPCG(1, 1))
	a := randPoly(ctx, moduli, rng)
	b := randPoly(ctx, moduli, rng)
	sum := NewPoly(ctx, moduli)
	sum.Add(a, b)
	diff := NewPoly(ctx, moduli)
	diff.Sub(sum, b)
	if !diff.Equal(a) {
		t.Fatal("(a+b)-b != a")
	}
	neg := NewPoly(ctx, moduli)
	neg.Neg(a)
	zero := NewPoly(ctx, moduli)
	sum.Add(a, neg)
	if !sum.Equal(zero) {
		t.Fatal("a + (-a) != 0")
	}
}

func TestNTTRoundTripPoly(t *testing.T) {
	ctx := testCtx(t, 64)
	moduli := testModuli(t, 64, 45, 4)
	rng := rand.New(rand.NewPCG(2, 2))
	p := randPoly(ctx, moduli, rng)
	orig := p.Copy()
	p.NTT()
	if !p.IsNTT {
		t.Fatal("IsNTT not set")
	}
	p.NTT() // no-op
	p.INTT()
	p.INTT() // no-op
	if !p.Equal(orig) {
		t.Fatal("NTT roundtrip mismatch")
	}
}

func TestMulCoeffsMatchesBigPolyMul(t *testing.T) {
	n := 16
	ctx := testCtx(t, n)
	moduli := testModuli(t, n, 50, 3)
	rng := rand.New(rand.NewPCG(3, 3))
	a := randPoly(ctx, moduli, rng)
	b := randPoly(ctx, moduli, rng)
	basis := a.Basis()

	// Reference: negacyclic schoolbook over big.Int mod Q.
	av := make([]*big.Int, n)
	bv := make([]*big.Int, n)
	for k := 0; k < n; k++ {
		av[k] = a.CoeffBig(basis, k)
		bv[k] = b.CoeffBig(basis, k)
	}
	want := make([]*big.Int, n)
	for k := range want {
		want[k] = new(big.Int)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := new(big.Int).Mul(av[i], bv[j])
			if i+j < n {
				want[i+j].Add(want[i+j], p)
			} else {
				want[i+j-n].Sub(want[i+j-n], p)
			}
		}
	}
	a.NTT()
	b.NTT()
	prod := NewPoly(ctx, moduli)
	prod.IsNTT = true
	prod.MulCoeffs(a, b)
	prod.INTT()
	for k := 0; k < n; k++ {
		got := prod.CoeffBig(basis, k)
		w := new(big.Int).Mod(want[k], basis.Q)
		g := new(big.Int).Mod(got, basis.Q)
		if g.Cmp(w) != 0 {
			t.Fatalf("coeff %d: got %v want %v", k, g, w)
		}
	}
}

func TestMulScalarBig(t *testing.T) {
	ctx := testCtx(t, 16)
	moduli := testModuli(t, 16, 40, 2)
	rng := rand.New(rand.NewPCG(4, 4))
	a := randPoly(ctx, moduli, rng)
	basis := a.Basis()
	c := big.NewInt(-123456789)
	out := NewPoly(ctx, moduli)
	out.MulScalarBig(a, c)
	for k := 0; k < 16; k++ {
		want := new(big.Int).Mul(a.CoeffBig(basis, k), c)
		want.Mod(want, basis.Q)
		got := new(big.Int).Mod(out.CoeffBig(basis, k), basis.Q)
		if got.Cmp(want) != 0 {
			t.Fatalf("coeff %d mismatch", k)
		}
	}
}

func TestScaleUpScaleDownRoundTrip(t *testing.T) {
	n := 16
	ctx := testCtx(t, n)
	moduli := testModuli(t, n, 45, 3)
	extra := testModuli(t, n, 40, 2)
	rng := rand.New(rand.NewPCG(5, 5))
	p := randPoly(ctx, moduli, rng)
	basis := p.Basis()

	up := p.ScaleUp(extra)
	if up.R() != 5 {
		t.Fatalf("scaleUp residue count: %d", up.R())
	}
	// Value check: up = p * K mod (Q*K).
	upBasis := up.Basis()
	K := big.NewInt(1)
	for _, q := range extra {
		K.Mul(K, new(big.Int).SetUint64(q))
	}
	for k := 0; k < n; k++ {
		want := new(big.Int).Mul(p.CoeffBig(basis, k), K)
		want.Mod(want, upBasis.Q)
		got := new(big.Int).Mod(up.CoeffBig(upBasis, k), upBasis.Q)
		if got.Cmp(want) != 0 {
			t.Fatalf("scaleUp coeff %d mismatch", k)
		}
	}

	// Scale back down by the added moduli: must recover p up to the
	// rounded division's ±⌈k/2⌉ (k = 2).
	params := NewScaleDownParams(up.Moduli, []int{3, 4})
	down := up.ScaleDown(params)
	if down.R() != 3 {
		t.Fatalf("scaleDown residue count: %d", down.R())
	}
	for k := 0; k < n; k++ {
		orig := p.CoeffBig(basis, k)
		got := down.CoeffBig(basis, k)
		diff := basis.ComposeCentered(basis.Decompose(orig.Sub(orig, got)))
		if diff.CmpAbs(big.NewInt(1)) > 0 {
			t.Fatalf("coeff %d: roundtrip error %v", k, diff)
		}
	}
}

func TestScaleDownRequiresCoeffDomain(t *testing.T) {
	ctx := testCtx(t, 16)
	moduli := testModuli(t, 16, 45, 3)
	p := NewPoly(ctx, moduli)
	p.IsNTT = true
	params := NewScaleDownParams(moduli, []int{2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.ScaleDown(params)
}

// TestScaleDownShedOrderIrrelevant: the shed positions are a set. Listed
// out of basis order they used to pair each shed row with another shed
// modulus (the rows in list order, the conversion in basis order), and
// the merged MulRescale's natural list — special primes, then the
// retired moduli — decrypted to garbage.
func TestScaleDownShedOrderIrrelevant(t *testing.T) {
	ctx := testCtx(t, 32)
	moduli := testModuli(t, 32, 40, 5)
	p := randPoly(ctx, moduli, rand.New(rand.NewPCG(7, 7)))
	sorted, unsorted := NewScaleDownParams(moduli, []int{1, 3}), NewScaleDownParams(moduli, []int{3, 1})
	if !p.ScaleDown(unsorted).Equal(p.ScaleDown(sorted)) {
		t.Fatal("ScaleDown: shedPos {3, 1} differs from {1, 3}")
	}
	q := p.Copy()
	q.NTT()
	got, want := unsorted.ScaleDownNTTBatch([]*Poly{q}), sorted.ScaleDownNTTBatch([]*Poly{q})
	if !got[0].Equal(want[0]) {
		t.Fatal("ScaleDownNTTBatch: shedPos {3, 1} differs from {1, 3}")
	}
}

func TestAutomorphismComposition(t *testing.T) {
	n := 32
	ctx := testCtx(t, n)
	moduli := testModuli(t, n, 40, 2)
	rng := rand.New(rand.NewPCG(6, 6))
	p := randPoly(ctx, moduli, rng)

	if !p.Automorphism(1).Equal(p) {
		t.Fatal("φ_1 is not identity")
	}
	k1 := GaloisElementForRotation(1, n)
	k2 := GaloisElementForRotation(2, n)
	k3 := GaloisElementForRotation(3, n)
	lhs := p.Automorphism(k1).Automorphism(k2)
	rhs := p.Automorphism(k1 * k2 % uint64(2*n))
	if !lhs.Equal(rhs) {
		t.Fatal("φ_k1 ∘ φ_k2 != φ_k1k2")
	}
	if k1*k2%uint64(2*n) != k3 {
		t.Fatal("rotation group law broken")
	}
}

func TestAutomorphismNegacyclicSign(t *testing.T) {
	// For p(X) = X, φ_k(p) = X^k; with k = 2N-1 (conjugation),
	// X^{2N-1} = -X^{N-1} * X^N / X^N ... directly: X^{2N-1} mod X^N+1 = -X^{N-1}.
	n := 16
	ctx := testCtx(t, n)
	moduli := testModuli(t, n, 30, 1)
	p := NewPoly(ctx, moduli)
	p.Coeffs[0][1] = 1 // p = X
	out := p.Automorphism(GaloisElementForConjugation(n))
	q := moduli[0]
	for k := 0; k < n; k++ {
		want := uint64(0)
		if k == n-1 {
			want = q - 1
		}
		if out.Coeffs[0][k] != want {
			t.Fatalf("coeff %d: got %d want %d", k, out.Coeffs[0][k], want)
		}
	}
}

func TestSamplerDistributions(t *testing.T) {
	n := 1024
	ctx := testCtx(t, n)
	moduli := testModuli(t, n, 40, 2)
	s := NewSampler(ctx, 7, 7)

	u := s.UniformPoly(moduli)
	if !u.IsNTT {
		t.Fatal("uniform should be tagged NTT")
	}
	for i, q := range u.Moduli {
		for _, v := range u.Coeffs[i] {
			if v >= q {
				t.Fatal("uniform out of range")
			}
		}
	}

	tern := s.TernaryPoly(moduli)
	basis := tern.Basis()
	counts := map[int64]int{}
	for k := 0; k < n; k++ {
		v := tern.CoeffBig(basis, k).Int64()
		if v < -1 || v > 1 {
			t.Fatalf("ternary coeff %d out of range: %d", k, v)
		}
		counts[v]++
	}
	for v := int64(-1); v <= 1; v++ {
		if counts[v] < n/6 {
			t.Fatalf("ternary value %d too rare: %d", v, counts[v])
		}
	}

	zo := s.ZOPoly(moduli, 0.5)
	zeros := 0
	for k := 0; k < n; k++ {
		v := zo.CoeffBig(basis, k).Int64()
		if v == 0 {
			zeros++
		}
	}
	if zeros < n/3 || zeros > 2*n/3 {
		t.Fatalf("ZO(0.5) zero fraction off: %d/%d", zeros, n)
	}

	g := s.GaussianPoly(moduli, 3.2)
	for k := 0; k < n; k++ {
		v := g.CoeffBig(basis, k).Int64()
		if v < -20 || v > 20 {
			t.Fatalf("gaussian coeff out of 6σ bound: %d", v)
		}
	}
}

func TestNewContextErrors(t *testing.T) {
	if _, err := NewContext(100); err == nil {
		t.Fatal("non power of two accepted")
	}
	if _, err := NewContext(0); err == nil {
		t.Fatal("zero accepted")
	}
}

// TestRunsRoundTrip: RunShift finds the longest run every row is
// constant on, halving from the cap where one row breaks it, and Runs
// then ExpandRuns gives the rows back word for word.
func TestRunsRoundTrip(t *testing.T) {
	const n = 256
	ctx := testCtx(t, n)
	moduli := testModuli(t, n, 40, 3)
	p := randPoly(ctx, moduli, rand.New(rand.NewPCG(48, 1)))
	p.IsNTT = true
	for i, row := range p.Coeffs {
		run := 16
		if i == 1 {
			run = 4 // one row breaks the longer run
		}
		for k := range row {
			row[k] = row[k&^(run-1)]
		}
	}
	for _, c := range []struct{ max, want uint }{{8, 2}, {2, 2}, {1, 1}, {0, 0}} {
		if got := p.RunShift(c.max); got != c.want {
			t.Fatalf("RunShift(%d) = %d, want %d", c.max, got, c.want)
		}
	}
	for s := uint(0); s <= 2; s++ {
		r := p.Runs(s)
		for _, row := range r.Coeffs {
			if len(row) != n>>s {
				t.Fatalf("Runs(%d): row of %d words, want %d", s, len(row), n>>s)
			}
		}
		back := NewPoly(ctx, moduli)
		back.IsNTT = true
		ExpandRuns(back, r)
		if !back.Equal(p) {
			t.Fatalf("ExpandRuns(Runs(%d)) differs from the rows", s)
		}
	}
}
