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
// pass per kernel.
func (ev *Evaluator) keySwitchExtUnfused(hd *HoistedDecomp, swk *SwitchingKey, galEl uint64) (*ring.Poly, *ring.Poly) {
	p := ev.params
	ext := hd.ext

	acc0 := p.Ctx.GetPolyZero(ext)
	acc0.IsNTT = true
	acc1 := p.Ctx.GetPolyZero(ext)
	acc1.IsNTT = true

	for d := 0; d < p.Dnum; d++ {
		if hd.digits[d] == nil {
			continue
		}
		// A fused-produced decomposition carries evaluation-domain digits;
		// bring them back to the coefficient domain before the staged
		// permute+transform sequence so either producer works here.
		var digit *ring.Poly
		switch src := hd.digits[d]; {
		case src.IsNTT && galEl == 1:
			digit = src.ScratchCopy()
		case src.IsNTT:
			tmp := src.ScratchCopyINTT()
			digit = tmp.Automorphism(galEl)
			p.Ctx.PutPoly(tmp)
			digit.NTT()
		case galEl == 1:
			digit = src.ScratchCopy()
			digit.NTT()
		default:
			digit = src.Automorphism(galEl)
			digit.NTT()
		}

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

// applyGaloisUnfused runs the Galois map with staged kernels: each
// component is copied, inverse-transformed, permuted and re-transformed
// in separate passes, and the keyswitch correction is added in the NTT
// domain.
func (ev *Evaluator) applyGaloisUnfused(ct *Ciphertext, swk *SwitchingKey, galEl uint64) (*Ciphertext, error) {
	ctx := ev.params.Ctx
	t0 := ct.C0.ScratchCopy()
	t0.INTT()
	c0 := t0.Automorphism(galEl)
	ctx.PutPoly(t0)
	c0.NTT()
	t1 := ct.C1.ScratchCopy()
	t1.INTT()
	c1 := t1.Automorphism(galEl)
	ctx.PutPoly(t1)
	c1.NTT()

	ks0, ks1 := ev.keySwitch(c1, swk)
	ctx.PutPoly(c1)
	ks0.Add(ks0, c0)
	ctx.PutPoly(c0)
	noise := addNoiseBits(ct.NoiseBits, ev.nm.KeySwitchBits())
	return newCiphertext(ks0, ks1, ct.Level, new(big.Rat).Set(ct.Scale), noise), nil
}

// permuteAddUnfused returns φ(a) + b with staged kernels: a (either
// domain) is brought to the coefficient domain, permuted and transformed
// back in separate passes, then b (NTT domain) is added.
func (ev *Evaluator) permuteAddUnfused(a *ring.Poly, galEl uint64, b *ring.Poly) *ring.Poly {
	base := a
	if base.IsNTT {
		base = a.ScratchCopyINTT()
		defer ev.params.Ctx.PutPoly(base)
	}
	out := base.Automorphism(galEl)
	out.NTT()
	out.Add(out, b)
	return out
}
