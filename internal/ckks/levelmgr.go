package ckks

import (
	"math"
	"math/big"

	"bitpacker/internal/core"
	"bitpacker/internal/fherr"
	"bitpacker/internal/ring"
)

// Level management: rescale and adjust (paper Sec. 2.3 and 3.2).
//
// Both schemes share one implementation path built on the scaleUp /
// scaleDown primitives:
//
//   - RNS-CKKS transitions never introduce moduli (Up is empty), so the
//     path degenerates to Listing 1/2: shed the level's own primes.
//   - BitPacker transitions first scale up by the destination level's new
//     terminal moduli, then scale down by the source level's retired
//     moduli (Listings 4 and 6 via Listings 3 and 5).

// Rescale moves ct from its level L to L-1, dividing the encrypted value
// (and the scale) by Q_L·/Q_{L-1} — i.e. by P/K where P is the product of
// the shed moduli and K of the introduced ones. It is normally called
// right after a multiplication. Rescaling at level 0 fails with
// fherr.ErrChainExhausted (bootstrap or re-plan the circuit).
func (ev *Evaluator) Rescale(ct *Ciphertext) (*Ciphertext, error) {
	if err := ev.begin("Rescale", ct); err != nil {
		return nil, err
	}
	if ct.Level <= 0 {
		return nil, fherr.Wrap(fherr.ErrChainExhausted, "ckks: Rescale at level 0")
	}
	if !ev.fused {
		return ev.rescaleUnfused(ct)
	}
	return ev.rescaleFused(ct.C0, ct.C1, ct.Level, nil, ct.Scale, ct.NoiseBits, ct)
}

// upFactor returns the product of the transition's introduced moduli
// (nil when there are none — the classic RNS-CKKS case).
func upFactor(up []uint64) *big.Int {
	if len(up) == 0 {
		return nil
	}
	k := big.NewInt(1)
	for _, q := range up {
		k.Mul(k, new(big.Int).SetUint64(q))
	}
	return k
}

// rescaleBookkeeping computes the output scale and noise of a one-level
// transition applied to a ciphertext with the given input scale and
// noise: scale × K/P exactly, noise divided by P/K with the floor
// rounding clamped at the rescale-floor bound.
func (ev *Evaluator) rescaleBookkeeping(up, down []uint64, inScale *big.Rat, inNoise float64) (*big.Rat, float64) {
	factor := new(big.Rat).SetInt64(1)
	shedBits := 0.0
	for _, q := range up {
		factor.Mul(factor, new(big.Rat).SetFrac(new(big.Int).SetUint64(q), big.NewInt(1)))
		shedBits -= math.Log2(float64(q))
	}
	for _, q := range down {
		factor.Mul(factor, new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).SetUint64(q)))
		shedBits += math.Log2(float64(q))
	}
	scale := core.LimitRat(new(big.Rat).Mul(inScale, factor))
	noise := math.Max(inNoise-shedBits, ev.nm.RescaleFloorBits())
	return scale, noise
}

// rescaleFused runs the one-level transition on the evaluation-domain
// pair (c0, c1) at the given level; the pair is only read. pre is
// Adjust's rounded constant (nil for plain Rescale), folded with the
// scale-up constant K into one Shoup multiply per row — canonical scalar
// multiplies compose exactly, so this is bit-identical to the staged
// multiplies; inScale/inNoise describe the (virtual) input after
// premultiplication.
//
// Without a spare channel nothing leaves the evaluation domain but the
// retired rows: scale-up is a scalar multiply plus zero rows in either
// domain, and the division inverse-transforms the D shed rows and
// forward-transforms the K conversion rows (ScaleDownNTTBatch) — D+K
// transforms per polynomial where the coefficient-domain route pays R+K.
// A redundant-residue chain needs coefficient residues at both ends —
// the input for the cross-check of checked's spare (nil: no check), the
// output to seed the next spare — and takes that route.
func (ev *Evaluator) rescaleFused(c0, c1 *ring.Poly, level int, pre *big.Int, inScale *big.Rat, inNoise float64, checked *Ciphertext) (*Ciphertext, error) {
	tr := ev.params.Chain.TransitionDown(level)
	ctx := ev.params.Ctx
	rrns := ev.rrnsEnabled()

	mul := upFactor(tr.Up)
	if pre != nil {
		if mul == nil {
			mul = pre
		} else {
			mul.Mul(mul, pre)
		}
	}

	cs, owned := []*ring.Poly{c0, c1}, false
	free := func() {
		if owned {
			ctx.PutPoly(cs[0])
			ctx.PutPoly(cs[1])
		}
	}
	if rrns {
		cs, owned = []*ring.Poly{c0.ScratchCopyINTT(), c1.ScratchCopyINTT()}, true
		if checked != nil && checked.SpareDepth > 0 {
			if err := ev.checkSpare("Rescale", checked, cs[0], cs[1]); err != nil {
				free()
				return nil, err
			}
		}
	}
	if mul != nil {
		up := ctx.ScaleUpBatch(cs, tr.Up, mul)
		free()
		cs, owned = up, true
	}
	sd, err := ev.scaleDownParams(cs[0].Moduli, tr.Down)
	if err != nil {
		free()
		return nil, err
	}
	var outs []*ring.Poly
	var sp0, sp1 []uint64
	if rrns {
		// Reseed the spare channel from the rescaled output while it is
		// still in the coefficient domain — the trusted production point
		// for the next stretch of the computation.
		outs = sd.ScaleDownBatch(cs)
		sp0, sp1 = ev.projectSpare(outs[0]), ev.projectSpare(outs[1])
		ring.NTTBatch(outs...)
	} else {
		outs = sd.ScaleDownNTTBatch(cs)
	}
	free()

	scale, noise := ev.rescaleBookkeeping(tr.Up, tr.Down, inScale, inNoise)
	out := newCiphertext(outs[0], outs[1], level-1, scale, noise)
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

// Adjust moves ct one level down without changing the encrypted value:
// multiply by the rounded constant K = (Q_L/Q_{L-1}) * (S_{L-1}/S_ct) and
// rescale (Listings 2 and 6). The resulting scale is the destination
// level's canonical scale, following Kim et al.'s reduced-error
// convention adopted by the paper.
func (ev *Evaluator) Adjust(ct *Ciphertext) (*Ciphertext, error) {
	if err := ev.begin("Adjust", ct); err != nil {
		return nil, err
	}
	if ct.Level <= 0 {
		return nil, fherr.Wrap(fherr.ErrChainExhausted, "ckks: Adjust at level 0")
	}
	chain := ev.params.Chain
	l := ct.Level
	qRatio := new(big.Rat).SetFrac(chain.Levels[l].Q(), chain.Levels[l-1].Q())
	k := new(big.Rat).Quo(chain.Levels[l-1].Scale, ct.Scale)
	k.Mul(k, qRatio)
	kInt := roundRat(k)
	if kInt.Sign() <= 0 {
		return nil, fherr.Wrap(fherr.ErrScaleMismatch,
			"ckks: Adjust constant K=%v not positive; scale too large to adjust", k)
	}

	var out *Ciphertext
	var err error
	if ev.fused {
		// No intermediate copy: kInt premultiplies inside the fused
		// rescale prep (folded with the scale-up constant into one
		// per-row multiply), and the scale/noise the staged path would
		// have stamped on its temporary feed the bookkeeping directly.
		// The spare channel is not checked — K is generally too large
		// for the tracked spare algebra, so the staged path cleared it.
		inScale := new(big.Rat).Mul(ct.Scale, k)
		inNoise := ct.NoiseBits
		if kf, _ := new(big.Float).SetInt(kInt).Float64(); kf > 1 {
			inNoise = ct.NoiseBits + math.Log2(kf)
		}
		out, err = ev.rescaleFused(ct.C0, ct.C1, ct.Level, kInt, inScale, inNoise, nil)
	} else {
		out, err = ev.adjustUnfused(ct, k, kInt)
	}
	if err != nil {
		return nil, err
	}
	out.Scale = ev.params.DefaultScale(out.Level)
	out.seal()
	return out, nil
}

// MulRescale computes Rescale(MulRelin(a, b)) as one fused macro op: the
// tensor product, relinearization and level transition share their
// intermediate polynomials, so the product pair never round-trips
// through a full-size ciphertext copy — the keyswitch corrections are
// added in the evaluation domain and the rescale consumes the pair where
// it lies. Bit-identical to the two-call sequence.
func (ev *Evaluator) MulRescale(a, b *Ciphertext) (*Ciphertext, error) {
	if !ev.fused {
		return ev.mulRescaleUnfused(a, b)
	}
	if err := ev.begin("MulRelin", a, b); err != nil {
		return nil, err
	}
	if err := checkCompatible("MulRelin", a, b); err != nil {
		return nil, err
	}
	rlk, releaseKey, err := ev.relinKey("MulRelin")
	if err != nil {
		return nil, err
	}
	defer releaseKey()
	p := ev.params
	ctx := p.Ctx
	moduli := a.C0.Moduli

	d0 := ctx.GetPoly(moduli)
	d0.IsNTT = true
	d1 := ctx.GetPoly(moduli)
	d1.IsNTT = true
	d2 := ctx.GetPoly(moduli)
	d2.IsNTT = true
	ring.MulRelinProducts(d0, d1, d2, a.C0, a.C1, b.C0, b.C1)

	hd := ev.decomposePoly(d2)
	ctx.PutPoly(d2)
	ks0, ks1 := ev.keySwitchFused(hd, rlk, 1)
	hd.Free(ctx)
	ring.AddPair(d0, d0, ks0, d1, d1, ks1)
	ctx.PutPoly(ks0)
	ctx.PutPoly(ks1)
	defer func() {
		ctx.PutPoly(d0)
		ctx.PutPoly(d1)
	}()

	scale := new(big.Rat).Mul(a.Scale, b.Scale)
	noise := ev.nm.MulBits(core.RatLog2(a.Scale), a.NoiseBits, core.RatLog2(b.Scale), b.NoiseBits)
	// Guard the (never materialized) product ciphertext exactly as
	// MulRelin would have before rescaling.
	if err := ev.guardNoise("MulRelin", &Ciphertext{Level: a.Level, Scale: scale, NoiseBits: noise}); err != nil {
		return nil, err
	}
	if a.Level <= 0 {
		return nil, fherr.Wrap(fherr.ErrChainExhausted, "ckks: Rescale at level 0")
	}
	// A fresh product carries no spare channel, so there is nothing to
	// cross-check before the transition.
	return ev.rescaleFused(d0, d1, a.Level, nil, scale, noise, nil)
}

// AdjustTo lowers ct to the given level by repeated one-level adjusts.
// Raising levels is not possible without bootstrapping and fails with
// fherr.ErrLevelMismatch.
func (ev *Evaluator) AdjustTo(ct *Ciphertext, level int) (*Ciphertext, error) {
	if level > ct.Level {
		return nil, fherr.Wrap(fherr.ErrLevelMismatch,
			"ckks: AdjustTo cannot raise level %d to %d (bootstrap instead)", ct.Level, level)
	}
	if level < 0 {
		return nil, fherr.Wrap(fherr.ErrChainExhausted, "ckks: AdjustTo target level %d below 0", level)
	}
	out := ct
	for out.Level > level {
		next, err := ev.Adjust(out)
		if err != nil {
			return nil, err
		}
		out = next
	}
	return out, nil
}

// roundRat rounds a rational to the nearest integer.
func roundRat(r *big.Rat) *big.Int {
	num := new(big.Int).Set(r.Num())
	den := r.Denom()
	two := big.NewInt(2)
	half := new(big.Int).Div(den, two)
	if num.Sign() >= 0 {
		num.Add(num, half)
	} else {
		num.Sub(num, half)
	}
	return num.Quo(num, den)
}

// assertLevelModuli reports an invariant error if the ciphertext's moduli
// do not match its level's canonical list.
func (ev *Evaluator) assertLevelModuli(ct *Ciphertext) error {
	want := ev.params.LevelModuli(ct.Level)
	got := ct.C0.Moduli
	if len(got) != len(want) {
		return fherr.Wrap(fherr.ErrInvariant, "ckks: level %d expects %d residues, ciphertext has %d",
			ct.Level, len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			return fherr.Wrap(fherr.ErrInvariant, "ckks: level %d residue %d mismatch: %d vs %d",
				ct.Level, i, got[i], want[i])
		}
	}
	return nil
}
