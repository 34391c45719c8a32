package ckks

import (
	"math"
	"math/big"

	"bitpacker/internal/ring"
)

// This file holds the staged (unfused) twins of the fused hot paths.
// They run each kernel as its own full pass over every residue —
// copy, transform, pointwise, divide, transform — exactly as the
// pipeline looked before the fused execution layer. The evaluator keeps
// them behind SetFused(false) as the baseline for the differential tests
// and the fused/unfused benchmark: both paths must produce bit-identical
// ciphertexts at every worker count.

// keySwitchHoistedUnfused is the staged per-key half of a hybrid
// keyswitch: one pass per kernel, accumulators zero-initialized.
func (ev *Evaluator) keySwitchHoistedUnfused(hd *HoistedDecomp, swk *SwitchingKey, galEl uint64) (*ring.Poly, *ring.Poly) {
	acc0, acc1 := ev.keySwitchExtUnfused(hd, swk, galEl)
	return ev.extModDownUnfused(acc0, acc1, hd.live)
}

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

// extModDownUnfused is the staged ModDown half: divide the extended pair
// by P and shed the special moduli, each kernel a full pass. Consumes
// acc0/acc1.
func (ev *Evaluator) extModDownUnfused(acc0, acc1 *ring.Poly, live []uint64) (*ring.Poly, *ring.Poly) {
	p := ev.params
	sd := ev.ksPlan(live).modDown
	acc0.INTT()
	acc1.INTT()
	out0 := acc0.ScaleDown(sd)
	out1 := acc1.ScaleDown(sd)
	p.Ctx.PutPoly(acc0)
	p.Ctx.PutPoly(acc1)
	out0.NTT()
	out1.NTT()
	return out0, out1
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

// rescaleUnfused is the staged one-level transition: copy, inverse
// transform, spare check, scale up, divide, reseed and forward transform
// each run as their own full pass. The prologue (begin + level check)
// has already run in Rescale.
func (ev *Evaluator) rescaleUnfused(ct *Ciphertext) (*Ciphertext, error) {
	chain := ev.params.Chain
	tr := chain.TransitionDown(ct.Level)
	ctx := ev.params.Ctx

	c0 := ct.C0.ScratchCopy()
	c1 := ct.C1.ScratchCopy()
	c0.INTT()
	c1.INTT()
	// RRNS cross-check at the point where the live residues are in the
	// coefficient domain anyway: a fresh spare channel must agree with
	// the exact CRT projection of the live residues up to bounded mod-Q
	// wraparound.
	if ev.rrnsEnabled() && ct.SpareDepth > 0 {
		if err := ev.checkSpare("Rescale", ct, c0, c1); err != nil {
			ctx.PutPoly(c0)
			ctx.PutPoly(c1)
			return nil, err
		}
	}
	if len(tr.Up) > 0 { // BitPacker: introduce the destination's new moduli
		u0, u1 := c0.ScaleUp(tr.Up), c1.ScaleUp(tr.Up)
		ctx.PutPoly(c0)
		ctx.PutPoly(c1)
		c0, c1 = u0, u1
	}
	sd, err := ev.scaleDownParams(c0.Moduli, tr.Down)
	if err != nil {
		ctx.PutPoly(c0)
		ctx.PutPoly(c1)
		return nil, err
	}
	s0, s1 := c0.ScaleDown(sd), c1.ScaleDown(sd)
	ctx.PutPoly(c0)
	ctx.PutPoly(c1)
	c0, c1 = s0, s1
	// Reseed the spare channel from the rescaled output while it is
	// still in the coefficient domain — the trusted production point for
	// the next stretch of the computation.
	var sp0, sp1 []uint64
	if ev.rrnsEnabled() {
		sp0 = ev.projectSpare(c0)
		sp1 = ev.projectSpare(c1)
	}
	c0.NTT()
	c1.NTT()

	scale, noise := ev.rescaleBookkeeping(tr.Up, tr.Down, ct.Scale, ct.NoiseBits)
	out := newCiphertext(c0, c1, ct.Level-1, scale, noise)
	if sp0 != nil {
		out.Spare0, out.Spare1, out.SpareDepth = sp0, sp1, 1
	}
	if err := ev.assertLevelModuli(out); err != nil {
		return nil, err
	}
	if err := ev.guardNoise("Rescale", out); err != nil {
		return nil, err
	}
	return out, nil
}

// adjustUnfused is the staged Adjust body: a full ciphertext copy is
// premultiplied by kInt and fed through the staged rescale.
func (ev *Evaluator) adjustUnfused(ct *Ciphertext, k *big.Rat, kInt *big.Int) (*Ciphertext, error) {
	tmp := ct.CopyNew()
	tmp.clearSpare() // K is generally too large for tracked spare algebra
	tmp.C0.MulScalarBig(tmp.C0, kInt)
	tmp.C1.MulScalarBig(tmp.C1, kInt)
	// Exact bookkeeping would multiply the scale by kInt; the canonical
	// convention instead targets the destination scale and absorbs the
	// sub-ULP rounding of K into the noise.
	tmp.Scale.Mul(ct.Scale, k)
	if kf, _ := new(big.Float).SetInt(kInt).Float64(); kf > 1 {
		tmp.NoiseBits = ct.NoiseBits + math.Log2(kf)
	}
	tmp.seal()
	return ev.Rescale(tmp)
}

// mulRescaleUnfused is the staged macro op: a full MulRelin (with its
// intermediate degree-one ciphertext) followed by a full Rescale.
func (ev *Evaluator) mulRescaleUnfused(a, b *Ciphertext) (*Ciphertext, error) {
	m, err := ev.MulRelin(a, b)
	if err != nil {
		return nil, err
	}
	return ev.Rescale(m)
}

// rotateHoistedUnfused applies one hoisted rotation with staged kernels.
func (ev *Evaluator) rotateHoistedUnfused(hd *HoistedDecomp, swk *SwitchingKey, galEl uint64) (*Ciphertext, error) {
	base := hd.c0
	if base.IsNTT { // fused-produced decomposition: return to coeff domain
		base = hd.c0.ScratchCopyINTT()
		defer ev.params.Ctx.PutPoly(base)
	}
	c0 := base.Automorphism(galEl)
	c0.NTT()
	ks0, ks1 := ev.keySwitchHoistedUnfused(hd, swk, galEl)
	ks0.Add(ks0, c0)
	ev.params.Ctx.PutPoly(c0)
	noise := addNoiseBits(hd.noise, ev.nm.KeySwitchBits())
	return newCiphertext(ks0, ks1, hd.level, new(big.Rat).Set(hd.scale), noise), nil
}
