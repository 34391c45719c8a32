package ckks

import (
	"bitpacker/internal/ring"
)

// This file holds the staged (unfused) twins of the fused hot paths.
// They run each kernel as its own full pass over every residue —
// copy, transform, pointwise, divide, transform — exactly as the
// pipeline looked before the fused execution layer. The evaluator keeps
// them behind SetFused(false) as the baseline for the differential tests
// and the fused/unfused benchmark: both paths divide at the same points,
// through the one settle (which takes the coefficient-domain route
// staged), and must produce bit-identical ciphertexts at every worker
// count.

// keySwitchExtUnfused is the staged inner-product half: it stops before
// the ModDown, returning the accumulated pair in the extended basis (NTT
// domain). The staged twin of keySwitchExtFused — same values, one full
// pass per kernel: each coefficient-domain group is permuted (galEl 1 is
// the identity) and transformed into a copy before its member digits'
// products, and each extra term is its own product pass over its rows.
func (ev *Evaluator) keySwitchExtUnfused(hd *HoistedDecomp, swk *SwitchingKey, galEl uint64, extra []ring.Term) (*ring.Poly, *ring.Poly) {
	p := ev.params
	ext := hd.plan.ext

	acc0 := p.Ctx.GetPolyZero(ext)
	acc0.IsNTT = true
	acc1 := p.Ctx.GetPolyZero(ext)
	acc1.IsNTT = true

	for g, src := range hd.digits {
		x := src.Automorphism(galEl)
		x.NTT()
		for _, d := range hd.plan.groups[g].digits {
			// The key rows are only read: alias them instead of copying
			// the whole switching key per digit.
			acc0.MulCoeffsAdd(x, swk.B[d].RestrictView(ext))
			if swk.A[d] == nil {
				// Seed-compressed key: materialize the needed A rows from
				// the digit's seed into pooled scratch for this one pass.
				// Row content depends only on (seed, modulus), so the
				// values match the dense key's restricted rows bit for bit.
				ka := ring.GetUniformPolyFromSeed(p.Ctx, ext, swk.ASeeds[d])
				acc1.MulCoeffsAdd(x, ka)
				p.Ctx.PutPoly(ka)
			} else {
				acc1.MulCoeffsAdd(x, swk.A[d].RestrictView(ext))
			}
		}
		p.Ctx.PutPoly(x)
	}
	for _, t := range extra {
		acc0.RestrictView(t.X.Moduli).MulCoeffsAdd(t.X, t.Y0)
		acc1.RestrictView(t.X.Moduli).MulCoeffsAdd(t.X, t.Y1)
	}
	return acc0, acc1
}

// permuteAddUnfused returns φ(a) + b (both NTT domain) with staged
// kernels: a is inverse-transformed into a copy, permuted and transformed
// back in separate passes, then b is added.
func (ev *Evaluator) permuteAddUnfused(a *ring.Poly, galEl uint64, b *ring.Poly) *ring.Poly {
	base := a.ScratchCopy()
	base.INTT()
	out := base.Automorphism(galEl)
	ev.params.Ctx.PutPoly(base)
	out.NTT()
	out.Add(out, b)
	return out
}
