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

// MulCoeffsPairInto sets o0 = x⊙y0 and o1 = x⊙y1 in one fused pass per
// row, reading the shared operand x once per residue (NTT domain).
func MulCoeffsPairInto(o0, o1, x, y0, y1 *Poly) {
	const who = "MulCoeffsPairInto"
	fused(mulOp(who, o0, x, y0), mulOp(who, o1, x, y1))
}

// MulCoeffsPairAdd accumulates o0 += x⊙y0 and o1 += x⊙y1 in one fused
// pass per row (NTT domain).
func MulCoeffsPairAdd(o0, o1, x, y0, y1 *Poly) {
	const who = "MulCoeffsPairAdd"
	fused(mulAddOp(who, o0, x, y0), mulAddOp(who, o1, x, y1))
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

// AutomorphismNTT returns NTT(φ_k(p)) for coefficient-domain p, fusing
// the permutation with the forward transform per row — the permuted row
// is transformed while still cache-resident instead of after a full
// second pass. Bit-identical to p.Automorphism(k) followed by NTT().
func (p *Poly) AutomorphismNTT(k uint64) *Poly {
	out := p.scratchLike()
	fused(permuteOp("AutomorphismNTT", out, p, k), forwardOp(out))
	return out
}

// AutomorphismFromNTTBatch returns φ_k applied to each NTT-domain input,
// as pooled coefficient-domain polynomials. Per row the chain
// copy→inverse-NTT→permute runs as one work item, and all polynomials'
// rows share a single fork/join. Bit-identical to
// ScratchCopy+INTT+Automorphism per polynomial.
func AutomorphismFromNTTBatch(k uint64, ps ...*Poly) []*Poly {
	const who = "AutomorphismFromNTTBatch"
	outs := make([]*Poly, len(ps))
	for i, p := range ps {
		needNTT(who, p, true)
		outs[i] = p.ctx.GetPoly(p.Moduli)
	}
	if len(ps) == 0 {
		return outs
	}
	in, out := concat(ps...), concat(outs...)
	tmp := in.lent()
	fused(borrow(tmp), copyOp(tmp, in), inverseOp(tmp), permuteOp(who, out, tmp, k), release(tmp))
	return outs
}
