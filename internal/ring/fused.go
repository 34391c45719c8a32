package ring

import "math/big"

// Entry points of the fused evaluator. Each instantiates the row kernels
// of kernels.go under perRow (several polynomials' rows flattened into a
// single fork/join, which matters when the per-poly residue count is
// small compared to the worker count) or under fused (a hot path's
// stages chained into one work item per residue row, so a row stays in
// L1/L2 instead of being evicted between full-vector passes). The
// kernels are the staged entry points' own, so the results are
// bit-identical to the staged compositions at every worker count.

// ScratchCopyBatch returns pooled deep copies of ps, copying every row of
// every polynomial in a single fork/join.
func ScratchCopyBatch(ps ...*Poly) []*Poly {
	outs := make([]*Poly, len(ps))
	ops := make([]rowOp, len(ps))
	for i, p := range ps {
		outs[i] = p.scratchLike()
		ops[i] = copyOp(outs[i], p)
	}
	perRow(ops...)
	return outs
}

// ScratchCopyINTT returns a pooled coefficient-domain copy of p, fusing
// the copy with the inverse transform per row (one pass instead of two).
// If p is already in the coefficient domain this is a plain batched copy.
func (p *Poly) ScratchCopyINTT() *Poly {
	out := p.scratchLike()
	fused(copyOp(out, p), inverseOp(out))
	return out
}

// ScratchCopyNTT is the forward-domain twin of ScratchCopyINTT.
func (p *Poly) ScratchCopyNTT() *Poly {
	out := p.scratchLike()
	fused(copyOp(out, p), forwardOp(out))
	return out
}

// NTTBatch moves every polynomial into the NTT domain with a single
// fork/join over all rows (no-op rows for polys already transformed).
func NTTBatch(ps ...*Poly) {
	ops := make([]rowOp, len(ps))
	for i, p := range ps {
		ops[i] = forwardOp(p)
	}
	perRow(ops...)
}

// MulRelinProducts computes the three degree-1 product components in one
// fused pass per residue row:
//
//	d0 = a0⊙b0, d1 = a0⊙b1 + a1⊙b0, d2 = a1⊙b1
//
// All inputs are NTT domain over identical moduli; the outputs must be
// distinct, pre-shaped polynomials (pooled, uninitialized is fine — every
// word is written). The four input rows of residue i are read while hot
// instead of being re-fetched for each of the three products.
func MulRelinProducts(d0, d1, d2, a0, a1, b0, b1 *Poly) {
	const who = "MulRelinProducts"
	fused(mulOp(who, d0, a0, b0), crossOp(who, d1, a0, b1, a1, b0), mulOp(who, d2, a1, b1))
}

// AddPair sets o0 = a0 + b0 and o1 = a1 + b1, batching both component
// sums (2R rows) into one fork/join. Aliasing within a component is fine.
func AddPair(o0, a0, b0, o1, a1, b1 *Poly) { perRow(addOp(o0, a0, b0), addOp(o1, a1, b1)) }

// SubPair sets o0 = a0 - b0 and o1 = a1 - b1 in one fork/join.
func SubPair(o0, a0, b0, o1, a1, b1 *Poly) { perRow(subOp(o0, a0, b0), subOp(o1, a1, b1)) }

// NegPair sets o0 = -a0 and o1 = -a1 in one fork/join.
func NegPair(o0, a0, o1, a1 *Poly) { perRow(negOp(o0, a0), negOp(o1, a1)) }

// AddCopyPair sets o0 = a0 + m and o1 = copy(a1) in one fork/join — the
// plaintext-addition shape, where only the degree-0 component changes.
func AddCopyPair(o0, a0, m, o1, a1 *Poly) { perRow(addOp(o0, a0, m), copyOp(o1, a1)) }

// AddScalarBigCopyPair is AddCopyPair for a plaintext that is the
// constant polynomial c: o0 = a0 + c and o1 = copy(a1) in one fork/join
// (NTT domain), c reduced per modulus once.
func AddScalarBigCopyPair(o0, a0, o1, a1 *Poly, c *big.Int) {
	perRow(addScalarOp("AddScalarBigCopyPair", o0, a0, reduceBig(c, a0.Moduli)), copyOp(o1, a1))
}

// MulCoeffsPair sets o0 = a0⊙m and o1 = a1⊙m in one fork/join (NTT
// domain) — the plaintext-multiplication shape.
func MulCoeffsPair(o0, a0, o1, a1, m *Poly) {
	const who = "MulCoeffsPair"
	perRow(mulOp(who, o0, a0, m), mulOp(who, o1, a1, m))
}

// MulScalarBigPair sets o0 = a0·c and o1 = a1·c (same moduli) in one
// fork/join, reducing c per modulus once instead of twice.
func MulScalarBigPair(o0, a0, o1, a1 *Poly, c *big.Int) {
	sameShape(a0, a1)
	ws := reduceBig(c, a0.Moduli)
	perRow(scalarOp(o0, a0, ws), scalarOp(o1, a1, ws))
}

// Term is one summand of InnerProduct: X⊙Y0 into the first output, X⊙Y1
// into the second. X's rows hold one word per aligned run of evaluation
// points (Poly.Runs): a row of N>>s words stands for the dense row whose
// word k is its word k>>s, and N words is a dense X. A nil Y1 stands for
// the seed-compressed uniform polynomial of Seed (UniformPolyFromSeed
// over X's moduli), regenerated row by row inside the kernel: it never
// materializes.
type Term struct {
	X, Y0, Y1 *Poly
	Seed      Seed
}

// InnerProduct sets o0 = Σ_t φ_k(X_t)⊙Y0_t and o1 = Σ_t φ_k(X_t)⊙Y1_t in
// one fork/join over the outputs' rows (NTT domain; k = 1 is the
// identity): the keyswitch's digit sum, a BSGS giant's diagonal sum.
// Products accumulate unreduced and each coefficient is reduced once per
// group of terms (ntt.Table.InnerProduct), and φ_k is read in place, so
// no permuted copy of an X is made. A term may cover a prefix of the
// outputs' moduli; the rows past it get nothing from that term. The
// outputs are pre-shaped (pooled, uninitialized is fine: every word is
// written), bit-identical to a MulCoeffs plus one MulCoeffsAdd per
// further term on φ_k(X_t), and must not alias an X when k != 1.
func InnerProduct(o0, o1 *Poly, k uint64, terms []Term) {
	each(innerOp("InnerProduct", o0, o1, k, terms))
}
