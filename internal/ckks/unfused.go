package ckks

import (
	"math/big"

	"bitpacker/internal/ring"
)

// This file holds the staged (unfused) twins of the fused hot paths.
// They run each kernel as its own full pass over every residue —
// copy, transform, pointwise, divide, transform — exactly as the
// pipeline looked before the fused execution layer. The evaluator keeps
// them behind SetFused(false) as the baseline for the differential tests
// and the fused/unfused benchmark: both paths divide at the same points
// and must produce bit-identical ciphertexts at every worker count.

// keySwitchExtUnfused is the staged inner-product half: it stops before
// the ModDown, returning the accumulated pair in the extended basis (NTT
// domain). The staged twin of keySwitchExtFused — same values, one full
// pass per kernel: each coefficient-domain digit is permuted (galEl 1 is
// the identity) and transformed into a copy before its products.
func (ev *Evaluator) keySwitchExtUnfused(hd *HoistedDecomp, swk *SwitchingKey, galEl uint64) (*ring.Poly, *ring.Poly) {
	p := ev.params
	ext := hd.ext

	acc0 := p.Ctx.GetPolyZero(ext)
	acc0.IsNTT = true
	acc1 := p.Ctx.GetPolyZero(ext)
	acc1.IsNTT = true

	for d, src := range hd.digits {
		if src == nil {
			continue
		}
		digit := src.Automorphism(galEl)
		digit.NTT()

		// The key rows are only read: alias them instead of copying the
		// whole switching key per digit.
		kb := swk.B[d].RestrictView(ext)
		acc0.MulCoeffsAdd(digit, kb)
		if swk.A[d] == nil {
			// Seed-compressed key: materialize the needed A rows from the
			// digit's seed into pooled scratch for this one pass. Row
			// content depends only on (seed, modulus), so the values match
			// the dense key's restricted rows bit for bit.
			ka := ring.GetUniformPolyFromSeed(p.Ctx, ext, swk.ASeeds[d])
			acc1.MulCoeffsAdd(digit, ka)
			p.Ctx.PutPoly(ka)
		} else {
			acc1.MulCoeffsAdd(digit, swk.A[d].RestrictView(ext))
		}
		p.Ctx.PutPoly(digit)
	}
	return acc0, acc1
}

// modDownUnfused is the staged keyswitch ModDown: each polynomial is
// inverse-transformed in place, divided by P and forward-transformed,
// every kernel a full pass. Consumes its inputs.
func (ev *Evaluator) modDownUnfused(live []uint64, ps []*ring.Poly) []*ring.Poly {
	sd := ev.ksPlan(live).modDown
	outs := make([]*ring.Poly, len(ps))
	for i, p := range ps {
		p.INTT()
		outs[i] = p.ScaleDown(sd)
		ev.params.Ctx.PutPoly(p)
		outs[i].NTT()
	}
	return outs
}

// divideUnfused is divide's staged twin: copy, inverse transform, spare
// check, premultiply, scale up, divide, reorder, reseed and forward
// transform each run as their own full pass.
func (ev *Evaluator) divideUnfused(pl *levelPlan, c0, c1 *ring.Poly, owned bool, pre *big.Int, checked *Ciphertext) ([]*ring.Poly, [][]uint64, error) {
	ctx := ev.params.Ctx
	x0, x1 := c0.ScratchCopy(), c1.ScratchCopy()
	if owned {
		ctx.PutPoly(c0)
		ctx.PutPoly(c1)
	}
	x0.INTT()
	x1.INTT()
	// RRNS cross-check at the point where the live residues are in the
	// coefficient domain anyway: a fresh spare channel must agree with
	// the exact CRT projection of the live residues up to bounded mod-Q
	// wraparound.
	if ev.rrnsEnabled() && checked != nil && checked.SpareDepth > 0 {
		if err := ev.checkSpare("Rescale", checked, x0, x1); err != nil {
			ctx.PutPoly(x0)
			ctx.PutPoly(x1)
			return nil, nil, err
		}
	}
	if pre != nil {
		x0.MulScalarBig(x0, pre)
		x1.MulScalarBig(x1, pre)
	}
	if len(pl.up) > 0 { // BitPacker: introduce the destination's new moduli
		u0, u1 := x0.ScaleUp(pl.up), x1.ScaleUp(pl.up)
		ctx.PutPoly(x0)
		ctx.PutPoly(x1)
		x0, x1 = u0, u1
	}
	s0, s1 := x0.ScaleDown(pl.sd), x1.ScaleDown(pl.sd)
	ctx.PutPoly(x0)
	ctx.PutPoly(x1)
	pl.canonical(s0, s1)
	var spares [][]uint64
	if ev.rrnsEnabled() {
		spares = [][]uint64{ev.projectSpare(s0), ev.projectSpare(s1)}
	}
	s0.NTT()
	s1.NTT()
	return []*ring.Poly{s0, s1}, spares, nil
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
