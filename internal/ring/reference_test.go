package ring

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand/v2"
	"testing"

	"bitpacker/internal/engine"
)

// Every named entry point of the package against a per-coefficient
// reference that shares no code with the row kernels: modular arithmetic
// is math/bits' 128-bit divide (no Barrett, no Shoup, no nt), transforms
// are the O(N²) evaluation at the odd powers of ψ, permutations are the
// index map of the definition. The staged and fused entry points are
// instantiations of the same kernels, so comparing them with each other
// (fused_test.go) compares a kernel with itself; this is the check that
// can tell a wrong kernel from a right one. It runs on random canonical
// rows at 28-, 36- and 61-bit moduli (one-word Barrett, two-word
// Barrett, and the widest the lazy butterflies admit), with and without
// the destination aliasing a source, at workers 1 and 4.

const refN = 32

type refEnv struct {
	t      *testing.T
	ctx    *Context
	all    []uint64 // five moduli: three live, two to scale up by or shed
	moduli []uint64 // all[:3]
	psi    map[uint64]uint64
	rng    *rand.Rand
	tag    string
}

func refMul(x, y, q uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	_, r := bits.Div64(hi, lo, q) // x, y < q keeps hi < q
	return r
}

func refPow(x, e, q uint64) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = refMul(r, x, q)
		}
		x = refMul(x, x, q)
	}
	return r
}

func refBig(c *big.Int, q uint64) uint64 {
	return new(big.Int).Mod(c, new(big.Int).SetUint64(q)).Uint64()
}

func refBrv(x uint64) uint64 { return bits.Reverse64(x) >> (64 - bits.Len(refN-1)) }

func newRefEnv(t *testing.T, wordBits uint) *refEnv {
	e := &refEnv{t: t, ctx: testCtx(t, refN), psi: map[uint64]uint64{}, tag: fmt.Sprintf("%d-bit", wordBits)}
	e.all = testModuli(t, refN, wordBits, 5)
	e.moduli = e.all[:3]
	e.rng = rand.New(rand.NewPCG(uint64(wordBits), 99))
	// The transform's root is a convention of ntt.NewTable; read it off
	// the image of X (slot 0 evaluates at ψ^1) and require a primitive
	// 2N-th root, so the reference evaluates at the same points without
	// sharing the root search.
	for _, q := range e.all {
		x := make([]uint64, refN)
		x[1] = 1
		e.ctx.Table(q).Forward(x)
		if refPow(x[0], refN, q) != q-1 {
			t.Fatalf("%s: ψ=%d is not a primitive 2N-th root mod %d", e.tag, x[0], q)
		}
		e.psi[q] = x[0]
	}
	return e
}

func (e *refEnv) poly(moduli []uint64, ntt bool) *Poly {
	p := randPoly(e.ctx, moduli, e.rng)
	p.IsNTT = ntt
	return p
}

// rows deep-copies a polynomial's rows: sources are captured before an
// aliased destination overwrites them.
func rows(p *Poly) [][]uint64 {
	out := make([][]uint64, len(p.Coeffs))
	for i := range out {
		out[i] = append([]uint64(nil), p.Coeffs[i]...)
	}
	return out
}

// zip applies f coefficient by coefficient over same-shaped row sets.
func zip(moduli []uint64, f func(q uint64, x []uint64) uint64, srcs ...[][]uint64) [][]uint64 {
	out := make([][]uint64, len(moduli))
	x := make([]uint64, len(srcs))
	for i, q := range moduli {
		out[i] = make([]uint64, refN)
		for k := range out[i] {
			for s := range srcs {
				x[s] = srcs[s][i][k]
			}
			out[i][k] = f(q, x)
		}
	}
	return out
}

func refAdd(q uint64, x []uint64) uint64    { return (x[0] + x[1]) % q }
func refSub(q uint64, x []uint64) uint64    { return (x[0] + q - x[1]) % q }
func refNeg(q uint64, x []uint64) uint64    { return (q - x[0]) % q }
func refProd(q uint64, x []uint64) uint64   { return refMul(x[0], x[1], q) }
func refMulAdd(q uint64, x []uint64) uint64 { return (x[0] + refMul(x[1], x[2], q)) % q }
func refCross(q uint64, x []uint64) uint64 {
	return (refMul(x[0], x[1], q) + refMul(x[2], x[3], q)) % q
}
func refScale(c *big.Int) func(uint64, []uint64) uint64 {
	return func(q uint64, x []uint64) uint64 { return refMul(x[0], refBig(c, q), q) }
}

// fwd evaluates each row at ψ^(2·brv(j)+1), the forward transform's
// output order; inv interpolates back.
func (e *refEnv) fwd(moduli []uint64, a [][]uint64) [][]uint64 {
	out := make([][]uint64, len(moduli))
	for i, q := range moduli {
		out[i] = make([]uint64, refN)
		for j := range out[i] {
			pt := refPow(e.psi[q], 2*refBrv(uint64(j))+1, q)
			acc, pw := uint64(0), uint64(1)
			for k := 0; k < refN; k++ {
				acc = (acc + refMul(a[i][k], pw, q)) % q
				pw = refMul(pw, pt, q)
			}
			out[i][j] = acc
		}
	}
	return out
}

func (e *refEnv) inv(moduli []uint64, a [][]uint64) [][]uint64 {
	out := make([][]uint64, len(moduli))
	for i, q := range moduli {
		out[i] = make([]uint64, refN)
		nInv := refPow(refN, q-2, q)
		psiInv := refPow(e.psi[q], 2*refN-1, q)
		for k := range out[i] {
			acc := uint64(0)
			for j := 0; j < refN; j++ {
				pt := refPow(psiInv, (2*refBrv(uint64(j))+1)*uint64(k)%(2*refN), q)
				acc = (acc + refMul(a[i][j], pt, q)) % q
			}
			out[i][k] = refMul(acc, nInv, q)
		}
	}
	return out
}

// shift is X^j -> ±X^(f(j) mod N), negated when f(j) mod 2N lands in
// [N, 2N): the automorphism with f(j) = j·k and the monomial product
// with f(j) = j+k.
func shift(moduli []uint64, a [][]uint64, f func(j uint64) uint64) [][]uint64 {
	out := make([][]uint64, len(moduli))
	for i, q := range moduli {
		out[i] = make([]uint64, refN)
		for j := uint64(0); j < refN; j++ {
			idx, v := f(j)%(2*refN), a[i][j]
			if idx >= refN {
				idx, v = idx-refN, (q-v)%q
			}
			out[i][idx] = v
		}
	}
	return out
}

func (e *refEnv) check(name string, got *Poly, moduli []uint64, want [][]uint64, wantNTT bool) {
	e.t.Helper()
	if got.IsNTT != wantNTT {
		e.t.Fatalf("%s %s: IsNTT = %v, want %v", e.tag, name, got.IsNTT, wantNTT)
	}
	if len(got.Moduli) != len(moduli) || len(got.Coeffs) != len(want) {
		e.t.Fatalf("%s %s: %d moduli, %d rows, want %d", e.tag, name, len(got.Moduli), len(got.Coeffs), len(moduli))
	}
	for i, q := range moduli {
		if got.Moduli[i] != q {
			e.t.Fatalf("%s %s: modulus %d is %d, want %d", e.tag, name, i, got.Moduli[i], q)
		}
		for k, w := range want[i] {
			if got.Coeffs[i][k] != w {
				e.t.Fatalf("%s %s: row %d (q=%d) coefficient %d = %d, reference says %d", e.tag, name, i, q, k, got.Coeffs[i][k], w)
			}
		}
	}
}

// dst returns the destination of an op whose first source is a: a itself
// when aliasing, else a polynomial full of garbage.
func (e *refEnv) dst(a *Poly, alias bool) *Poly {
	if alias {
		return a
	}
	return e.poly(a.Moduli, a.IsNTT)
}

func TestEntryPointsMatchIndependentReference(t *testing.T) {
	forceEngine(t)
	for _, wordBits := range []uint{28, 36, 61} {
		e := newRefEnv(t, wordBits)
		for _, workers := range []int{1, 4} {
			engine.SetWorkers(workers)
			for _, alias := range []bool{false, true} {
				e.tag = fmt.Sprintf("%d-bit workers=%d alias=%v", wordBits, workers, alias)
				e.pointwise(alias)
				e.products(alias)
				e.transforms()
				e.permutations()
				e.levels()
				e.seeded(alias)
				e.inner(alias)
			}
		}
	}
}

func (e *refEnv) pointwise(alias bool) {
	m := e.moduli
	c := new(big.Int).Lsh(big.NewInt(-987654321), 70) // negative, wider than any modulus
	for _, ntt := range []bool{false, true} {         // these kernels are domain-blind
		a0, a1, b0, b1 := e.poly(m, ntt), e.poly(m, ntt), e.poly(m, ntt), e.poly(m, ntt)
		ra0, ra1, rb0, rb1 := rows(a0), rows(a1), rows(b0), rows(b1)
		sum0, sum1 := zip(m, refAdd, ra0, rb0), zip(m, refAdd, ra1, rb1)
		dif0, dif1 := zip(m, refSub, ra0, rb0), zip(m, refSub, ra1, rb1)
		neg0, neg1 := zip(m, refNeg, ra0), zip(m, refNeg, ra1)
		scl0, scl1 := zip(m, refScale(c), ra0), zip(m, refScale(c), ra1)
		// Each op runs on fresh copies, so an aliased destination never
		// feeds the next case.
		cp := func() (x0, x1 *Poly) { return a0.Copy(), a1.Copy() }

		x0, _ := cp()
		d := e.dst(x0, alias)
		d.Add(x0, b0)
		e.check("Add", d, m, sum0, ntt)
		x0, _ = cp()
		d = e.dst(x0, alias)
		d.Sub(x0, b0)
		e.check("Sub", d, m, dif0, ntt)
		x0, _ = cp()
		d = e.dst(x0, alias)
		d.Neg(x0)
		e.check("Neg", d, m, neg0, ntt)
		x0, _ = cp()
		d = e.dst(x0, alias)
		d.MulScalarBig(x0, c)
		e.check("MulScalarBig", d, m, scl0, ntt)

		x0, x1 := cp()
		d0, d1 := e.dst(x0, alias), e.dst(x1, alias)
		AddPair(d0, x0, b0, d1, x1, b1)
		e.check("AddPair/0", d0, m, sum0, ntt)
		e.check("AddPair/1", d1, m, sum1, ntt)
		x0, x1 = cp()
		d0, d1 = e.dst(x0, alias), e.dst(x1, alias)
		SubPair(d0, x0, b0, d1, x1, b1)
		e.check("SubPair/0", d0, m, dif0, ntt)
		e.check("SubPair/1", d1, m, dif1, ntt)
		x0, x1 = cp()
		d0, d1 = e.dst(x0, alias), e.dst(x1, alias)
		NegPair(d0, x0, d1, x1)
		e.check("NegPair/0", d0, m, neg0, ntt)
		e.check("NegPair/1", d1, m, neg1, ntt)
		x0, x1 = cp()
		d0, d1 = e.dst(x0, alias), e.dst(x1, alias)
		AddCopyPair(d0, x0, b0, d1, x1)
		e.check("AddCopyPair/0", d0, m, sum0, ntt)
		e.check("AddCopyPair/1", d1, m, ra1, ntt)
		x0, x1 = cp()
		d0, d1 = e.dst(x0, alias), e.dst(x1, alias)
		MulScalarBigPair(d0, x0, d1, x1, c)
		e.check("MulScalarBigPair/0", d0, m, scl0, ntt)
		e.check("MulScalarBigPair/1", d1, m, scl1, ntt)

		s := a0.ScratchCopy()
		e.check("ScratchCopy", s, m, ra0, ntt)
		ss := ScratchCopyBatch(a0, b1)
		e.check("ScratchCopyBatch/0", ss[0], m, ra0, ntt)
		e.check("ScratchCopyBatch/1", ss[1], m, rb1, ntt)
		e.ctx.PutPoly(s)
		e.ctx.PutPoly(ss[0])
		e.ctx.PutPoly(ss[1]) // seeds the pool with non-zero rows for GetPolyZero
		e.check("GetPolyZero", e.ctx.GetPolyZero(m), m, zip(m, func(uint64, []uint64) uint64 { return 0 }, ra0), false)
	}
}

func (e *refEnv) products(alias bool) {
	m := e.moduli
	a0, a1, b0, b1 := e.poly(m, true), e.poly(m, true), e.poly(m, true), e.poly(m, true)
	acc0 := e.poly(m, true)
	ra0, ra1, rb0, rb1, rc0 := rows(a0), rows(a1), rows(b0), rows(b1), rows(acc0)
	cp := func() (x0, x1 *Poly) { return a0.Copy(), a1.Copy() }

	x0, _ := cp()
	d := e.dst(x0, alias)
	d.MulCoeffs(x0, b0)
	e.check("MulCoeffs", d, m, zip(m, refProd, ra0, rb0), true)

	// The accumulator is a destination by nature; aliasing here means the
	// product's first factor is the accumulator itself.
	acc := acc0.Copy()
	if alias {
		acc.MulCoeffsAdd(acc, b0)
		e.check("MulCoeffsAdd", acc, m, zip(m, refMulAdd, rc0, rc0, rb0), true)
	} else {
		acc.MulCoeffsAdd(a0, b0)
		e.check("MulCoeffsAdd", acc, m, zip(m, refMulAdd, rc0, ra0, rb0), true)
	}

	x0, x1 := cp()
	d0, d1 := e.dst(x0, alias), e.dst(x1, alias)
	MulCoeffsPair(d0, x0, d1, x1, b0)
	e.check("MulCoeffsPair/0", d0, m, zip(m, refProd, ra0, rb0), true)
	e.check("MulCoeffsPair/1", d1, m, zip(m, refProd, ra1, rb0), true)

	// a0 + c for the constant polynomial c: the reference transforms c
	// (one coefficient, the rest zero) and adds it as any other operand.
	c := new(big.Int).Lsh(big.NewInt(-987654321), 70)
	rc := zip(m, func(q uint64, x []uint64) uint64 { return 0 }, ra0)
	for i, q := range m {
		rc[i][0] = refBig(c, q)
	}
	x0, x1 = cp()
	d0, d1 = e.dst(x0, alias), e.dst(x1, alias)
	AddScalarBigCopyPair(d0, x0, d1, x1, c)
	e.check("AddScalarBigCopyPair/0", d0, m, zip(m, refAdd, ra0, e.fwd(m, rc)), true)
	e.check("AddScalarBigCopyPair/1", d1, m, ra1, true)

	// d0 = a0⊙b0, d1 = a0⊙b1 + a1⊙b0, d2 = a1⊙b1; the last output may
	// alias an input, the first two are written while inputs are live.
	x0, x1 = cp()
	y1 := b1.Copy()
	e0, e1, e2 := e.dst(x0, false), e.dst(x0, false), e.dst(y1, alias)
	MulRelinProducts(e0, e1, e2, x0, x1, b0, y1)
	e.check("MulRelinProducts/d0", e0, m, zip(m, refProd, ra0, rb0), true)
	e.check("MulRelinProducts/d1", e1, m, zip(m, refCross, ra0, rb1, ra1, rb0), true)
	e.check("MulRelinProducts/d2", e2, m, zip(m, refProd, ra1, rb1), true)
}

func (e *refEnv) transforms() {
	m := e.moduli
	a, b := e.poly(m, false), e.poly(m, false)
	ra, rb := rows(a), rows(b)
	fa, fb := e.fwd(m, ra), e.fwd(m, rb)

	p := a.Copy()
	p.NTT()
	e.check("NTT", p, m, fa, true)
	p.NTT()
	e.check("NTT (already there)", p, m, fa, true)
	p.INTT()
	e.check("INTT∘NTT", p, m, ra, false)
	p.INTT()
	e.check("INTT (already there)", p, m, ra, false)

	// INTT on rows that are not an image of this package's forward
	// transform: the reference interpolates them directly.
	h := e.poly(m, true)
	rh := rows(h)
	ih := e.inv(m, rh)
	e.check("ScratchCopyINTT", h.ScratchCopyINTT(), m, ih, false)
	e.check("ScratchCopyINTT left its source", h, m, rh, true)
	h.INTT()
	e.check("INTT", h, m, ih, false)
	e.check("ScratchCopyINTT (already there)", h.ScratchCopyINTT(), m, ih, false)

	e.check("ScratchCopyNTT", a.ScratchCopyNTT(), m, fa, true)
	e.check("ScratchCopyNTT left its source", a, m, ra, false)
	x, y, z := a.Copy(), b.Copy(), p.Copy()
	z.NTT()
	NTTBatch(x, z, y)
	e.check("NTTBatch/0", x, m, fa, true)
	e.check("NTTBatch/1 (already there)", z, m, fa, true)
	e.check("NTTBatch/2", y, m, fb, true)
	e.check("ScratchCopyNTT (already there)", y.ScratchCopyNTT(), m, fb, true)
}

func (e *refEnv) permutations() {
	m := e.moduli
	for _, k := range []uint64{GaloisElementForRotation(1, refN), GaloisElementForRotation(5, refN), GaloisElementForConjugation(refN), 3} {
		a, b, c := e.poly(m, false), e.poly(m, true), e.poly(m, true)
		ra, rb, rc := rows(a), rows(b), rows(c)
		auto := func(j uint64) uint64 { return j * k }
		pa := shift(m, ra, auto)
		e.check("Automorphism", a.Automorphism(k), m, pa, false)
		e.check("Automorphism left its source", a, m, ra, false)

		pb := shift(m, e.inv(m, rb), auto)
		e.check("PermuteNTT", b.PermuteNTT(k), m, e.fwd(m, pb), true)
		e.check("PermuteNTTAdd", b.PermuteNTTAdd(k, c), m, zip(m, refAdd, e.fwd(m, pb), rc), true)
		e.check("PermuteNTT left its source", b, m, rb, true)
	}
	a := e.poly(m, false)
	for _, k := range []int{0, 1, refN / 2, refN, 2*refN - 1, -3} {
		by := func(j uint64) uint64 { return j + uint64((k+4*refN)%(2*refN)) }
		e.check(fmt.Sprintf("MulByMonomial(%d)", k), a.MulByMonomial(k), m, shift(m, rows(a), by), false)
	}
}

func (e *refEnv) levels() {
	m, up := e.moduli, e.all[3:]
	kUp := new(big.Int).Mul(new(big.Int).SetUint64(up[0]), new(big.Int).SetUint64(up[1]))
	mul := new(big.Int).Mul(kUp, big.NewInt(-12345))
	zeros := [][]uint64{make([]uint64, refN), make([]uint64, refN)}
	for _, ntt := range []bool{false, true} { // scaleUp keeps its input's domain
		a, b := e.poly(m, ntt), e.poly(m, ntt)
		ra, rb := rows(a), rows(b)
		e.check("ScaleUp", a.ScaleUp(up), e.all, append(zip(m, refScale(kUp), ra), zeros...), ntt)
		outs := e.ctx.ScaleUpBatch([]*Poly{a, b}, up, reduceBig(mul, m))
		e.check("ScaleUpBatch/0", outs[0], e.all, append(zip(m, refScale(mul), ra), zeros...), ntt)
		e.check("ScaleUpBatch/1", outs[1], e.all, append(zip(m, refScale(mul), rb), zeros...), ntt)
		e.check("ScaleUp left its source", a, m, ra, ntt)
	}

	// scaleDown, shedding an interior row and the last, the positions
	// listed in basis order and reversed: per coefficient
	// rns.ExactDiv.ApplyScalar over the shed residues in basis order — the
	// scalar reference of the basis conversion, which belongs to
	// internal/rns and shares nothing with the copy/transform kernels
	// exercised here — held first to the division's rule against
	// math/big: within ±1 (⌈k/2⌉, k = 2) of round(x/P).
	allQ, keptQ, p := big.NewInt(1), big.NewInt(1), new(big.Int).Mul(new(big.Int).SetUint64(e.all[1]), new(big.Int).SetUint64(e.all[4]))
	for i, q := range e.all {
		allQ.Mul(allQ, new(big.Int).SetUint64(q))
		if i != 1 && i != 4 {
			keptQ.Mul(keptQ, new(big.Int).SetUint64(q))
		}
	}
	crt := func(moduli []uint64, res []uint64, prod *big.Int) *big.Int {
		x := new(big.Int)
		for i, q := range moduli {
			bq := new(big.Int).SetUint64(q)
			m := new(big.Int).Div(prod, bq)
			inv := new(big.Int).ModInverse(new(big.Int).Mod(m, bq), bq)
			x.Add(x, m.Mul(m, inv.Mul(inv, new(big.Int).SetUint64(res[i]))))
		}
		return x.Mod(x, prod)
	}
	for _, shedPos := range [][]int{{1, 4}, {4, 1}} {
		tag := fmt.Sprintf("shed %v", shedPos)
		params := NewScaleDownParams(e.all, shedPos)
		kept := []uint64{e.all[0], e.all[2], e.all[3]}
		down := func(r [][]uint64) [][]uint64 {
			out := [][]uint64{make([]uint64, refN), make([]uint64, refN), make([]uint64, refN)}
			for k := 0; k < refN; k++ {
				res := params.div.ApplyScalar([]uint64{r[0][k], r[2][k], r[3][k]}, []uint64{r[1][k], r[4][k]})
				x := crt(e.all, []uint64{r[0][k], r[1][k], r[2][k], r[3][k], r[4][k]}, allQ)
				diff := x.Div(x.Add(x, new(big.Int).Rsh(p, 1)), p) // round(x/P)
				diff.Sub(crt(kept, res, keptQ), diff).Mod(diff, keptQ)
				if diff.Cmp(big.NewInt(1)) > 0 && diff.Cmp(new(big.Int).Sub(keptQ, big.NewInt(1))) < 0 {
					e.t.Fatalf("%s %s coefficient %d: ApplyScalar − round(x/P) = %v mod Q, outside ±1", e.tag, tag, k, diff)
				}
				for j := range out {
					out[j][k] = res[j]
				}
			}
			return out
		}
		a, b := e.poly(e.all, false), e.poly(e.all, false)
		ra, rb := rows(a), rows(b)
		da, db := down(ra), down(rb)
		e.check("ScaleDown "+tag, a.ScaleDown(params), kept, da, false)
		outs := params.ScaleDownBatch([]*Poly{a, b})
		e.check("ScaleDownBatch/0 "+tag, outs[0], kept, da, false)
		e.check("ScaleDownBatch/1 "+tag, outs[1], kept, db, false)
		e.check("ScaleDown left its source "+tag, a, e.all, ra, false)

		fa, fb := a.Copy(), b.Copy()
		fa.Coeffs, fb.Coeffs = e.fwd(e.all, ra), e.fwd(e.all, rb)
		fa.IsNTT, fb.IsNTT = true, true
		rfa := rows(fa)
		outs = params.ScaleDownNTTBatch([]*Poly{fa, fb})
		e.check("ScaleDownNTTBatch/0 "+tag, outs[0], kept, e.fwd(kept, da), true)
		e.check("ScaleDownNTTBatch/1 "+tag, outs[1], kept, e.fwd(kept, db), true)
		e.check("ScaleDownNTTBatch left its source "+tag, fa, e.all, rfa, true)
	}
}

func (e *refEnv) seeded(alias bool) {
	m := e.moduli
	seed := Seed{0x5eed, uint64(len(e.tag))}
	// The generator is the operand's definition, not a kernel under
	// test: row i of U is UniformRowFromSeed(seed, q_i), whatever rows
	// surround it.
	u := make([][]uint64, len(m))
	for i, q := range m {
		u[i] = make([]uint64, refN)
		UniformRowFromSeed(u[i], q, seed)
		for _, v := range u[i] {
			if v >= q {
				e.t.Fatalf("%s: UniformRowFromSeed emitted %d >= q=%d", e.tag, v, q)
			}
		}
	}
	e.check("UniformPolyFromSeed", UniformPolyFromSeed(e.ctx, m, seed), m, u, true)
	e.check("GetUniformPolyFromSeed", GetUniformPolyFromSeed(e.ctx, m, seed), m, u, true)
	e.check("UniformPolyFromSeed (sub-basis)", UniformPolyFromSeed(e.ctx, m[1:], seed), m[1:], u[1:], true)
}

// inner checks InnerProduct on ten terms — more than a 61-bit modulus's
// group of eight, so the wide sum folds — with dense and seed-compressed
// Y1 rows and one term over a prefix of the outputs' moduli, under the
// identity and two Galois maps. The reference gathers each X by the
// definition's index map (the evaluation-domain image of shift's
// automorphism) and sums products mod q one at a time.
func (e *refEnv) inner(alias bool) {
	m := e.moduli
	const terms = 10
	seed := Seed{0x1eed, uint64(len(e.tag))}
	for _, k := range []uint64{1, GaloisElementForRotation(5, refN), GaloisElementForConjugation(refN)} {
		ts := make([]Term, terms)
		for t := range ts {
			mt := m
			if t == 3 {
				mt = m[:2]
			}
			ts[t] = Term{X: e.poly(mt, true), Y0: e.poly(mt, true), Y1: e.poly(mt, true)}
			if t%4 == 1 {
				ts[t].Y1, ts[t].Seed = nil, seed.Derive(uint64(t))
			}
		}
		want0, want1 := make([][]uint64, len(m)), make([][]uint64, len(m))
		for i, q := range m {
			want0[i], want1[i] = make([]uint64, refN), make([]uint64, refN)
			for _, tm := range ts {
				if i >= len(tm.X.Moduli) {
					continue
				}
				x := e.fwd(m[i:i+1], shift(m[i:i+1], e.inv(m[i:i+1], [][]uint64{tm.X.Coeffs[i]}), func(j uint64) uint64 { return j * k }))[0]
				y1 := make([]uint64, refN)
				if tm.Y1 != nil {
					copy(y1, tm.Y1.Coeffs[i])
				} else {
					UniformRowFromSeed(y1, q, tm.Seed)
				}
				for c := range x {
					want0[i][c] = (want0[i][c] + refMul(x[c], tm.Y0.Coeffs[i][c], q)) % q
					want1[i][c] = (want1[i][c] + refMul(x[c], y1[c], q)) % q
				}
			}
		}
		o0, o1 := e.poly(m, true), e.poly(m, true)
		if alias {
			// An output may alias a Y operand; under the identity, an X.
			o0 = ts[terms-2].Y1
			if k == 1 {
				o1 = ts[0].X
			}
		}
		InnerProduct(o0, o1, k, ts)
		e.check(fmt.Sprintf("InnerProduct(k=%d)/0", k), o0, m, want0, true)
		e.check(fmt.Sprintf("InnerProduct(k=%d)/1", k), o1, m, want1, true)
	}
}
