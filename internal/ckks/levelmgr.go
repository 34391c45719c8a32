package ckks

import (
	"math"
	"math/big"
	"slices"

	"bitpacker/internal/core"
	"bitpacker/internal/fherr"
	"bitpacker/internal/ring"
)

// Level management: rescale and adjust (paper Sec. 2.3 and 3.2).
//
// Every level change — Rescale, Adjust, AdjustTo over any span, and the
// rescale that ends MulRescale — is one call of transition, built on the
// scaleUp / scaleDown primitives:
//
//   - RNS-CKKS changes never introduce moduli (nothing to scale up by),
//     so the path degenerates to Listing 1/2: shed the level's own primes.
//   - BitPacker changes first scale up by the destination level's new
//     moduli, then scale down by the source level's retired moduli
//     (Listings 4 and 6 via Listings 3 and 5).
//
// A change divides once, however many levels it spans: a modulus that
// leaves and comes back in between is neither shed nor introduced.

// levelPlan is the part of a level change that depends only on moduli:
// what the target level introduces, the one division, the row order and
// the bookkeeping. It is built once per (basis, target) and cached.
type levelPlan struct {
	to       int
	up       []uint64              // the target's moduli the basis lacks
	upK      *big.Int              // their product; nil when there are none
	sd       *ring.ScaleDownParams // over basis++up, shedding all the target does not use
	order    []int                 // output row i is division row order[i]; nil when in order already
	factor   *big.Rat              // scale factor: Π introduced / Π retired level moduli
	shedBits float64               // log2 of 1/factor
}

// levelPlan returns the plan carrying a pair over a level's moduli,
// basis, to level `to`.
func (ev *Evaluator) levelPlan(basis []uint64, to int) (*levelPlan, error) {
	var buf [512]byte
	target := ev.params.LevelModuli(to)
	return cached(ev.caches, ev.caches.lvCache, moduliKey(buf[:0], basis, target), func() (*levelPlan, error) {
		pl := &levelPlan{to: to, factor: big.NewRat(1, 1)}
		for _, q := range target {
			if !slices.Contains(basis, q) {
				pl.up = append(pl.up, q)
				pl.factor.Mul(pl.factor, new(big.Rat).SetInt(new(big.Int).SetUint64(q)))
				pl.shedBits -= math.Log2(float64(q))
			}
		}
		if len(pl.up) > 0 {
			pl.upK = big.NewInt(1)
			for _, q := range pl.up {
				pl.upK.Mul(pl.upK, new(big.Int).SetUint64(q))
			}
		}
		ext := append(slices.Clone(basis), pl.up...)
		var shedPos []int
		var kept []uint64
		for i, q := range ext {
			if slices.Contains(target, q) {
				kept = append(kept, q)
				continue
			}
			shedPos = append(shedPos, i)
			pl.factor.Quo(pl.factor, new(big.Rat).SetInt(new(big.Int).SetUint64(q)))
			pl.shedBits += math.Log2(float64(q))
		}
		if len(shedPos) == 0 {
			return nil, fherr.Wrap(fherr.ErrInvariant, "ckks: change to level %d sheds no modulus", to)
		}
		pl.sd = ring.NewScaleDownParams(ext, shedPos)
		order := make([]int, len(target))
		for i, q := range target {
			if order[i] = slices.Index(kept, q); order[i] != i {
				pl.order = order
			}
		}
		return pl, nil
	})
}

// canonical puts division outputs in the target level's row order: a
// change across levels keeps the rows it does not shed where they were
// and appends the introduced ones, which the level may order otherwise.
// Only row headers move.
func (pl *levelPlan) canonical(ps ...*ring.Poly) {
	if pl.order == nil {
		return
	}
	for _, p := range ps {
		moduli, rows := make([]uint64, len(pl.order)), make([][]uint64, len(pl.order))
		for i, j := range pl.order {
			moduli[i], rows[i] = p.Moduli[j], p.Coeffs[j]
		}
		p.Moduli, p.Coeffs = moduli, rows
	}
}

// transition carries the evaluation-domain pair (c0, c1) to level pl.to
// in one step: premultiply by pre (Adjust's rounded constant; nil for
// none) folded with the scale-up constant into one Shoup multiply per
// row, scale up by every modulus the level introduces, then one division
// by every modulus of the pair's basis the level does not use. The pair
// is only read; inScale/inNoise describe the (virtual) input after
// premultiplication.
//
// Without a spare channel nothing leaves the evaluation domain but the
// shed rows: scale-up is a scalar multiply plus zero rows in either
// domain, and the division inverse-transforms the D shed rows and
// forward-transforms the K conversion rows (ScaleDownNTTBatch) — D+K
// transforms per polynomial where the coefficient-domain route pays R+K.
// A redundant-residue chain needs coefficient residues at both ends —
// the input for the cross-check of checked's spare (nil: no check), the
// output to seed the next spare — and takes that route.
func (ev *Evaluator) transition(pl *levelPlan, c0, c1 *ring.Poly, pre *big.Int, inScale *big.Rat, inNoise float64, checked *Ciphertext) (*Ciphertext, error) {
	divide := ev.divide
	if !ev.fused {
		divide = ev.divideUnfused
	}
	outs, spares, err := divide(pl, c0, c1, pre, checked)
	if err != nil {
		return nil, err
	}
	scale := core.LimitRat(new(big.Rat).Mul(inScale, pl.factor))
	noise := math.Max(inNoise-pl.shedBits, ev.nm.RescaleFloorBits())
	out := newCiphertext(outs[0], outs[1], pl.to, scale, noise)
	if spares != nil {
		out.Spare0, out.Spare1, out.SpareDepth = spares[0], spares[1], 1
	}
	if err := ev.assertLevelModuli(out); err != nil {
		return nil, err
	}
	if err := ev.guardNoise("Rescale", out); err != nil {
		return nil, err
	}
	return out, nil
}

// divide is transition's polynomial work on the fused kernels: the
// pooled output pair in the target's row order and, on a
// redundant-residue chain, the spare channels seeded from it.
func (ev *Evaluator) divide(pl *levelPlan, c0, c1 *ring.Poly, pre *big.Int, checked *Ciphertext) ([]*ring.Poly, [][]uint64, error) {
	ctx := ev.params.Ctx
	rrns := ev.rrnsEnabled()
	mul := pl.upK
	if pre != nil {
		if mul == nil {
			mul = pre
		} else {
			mul = new(big.Int).Mul(mul, pre)
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
				return nil, nil, err
			}
		}
	}
	if mul != nil {
		up := ctx.ScaleUpBatch(cs, pl.up, mul)
		free()
		cs, owned = up, true
	}
	var outs []*ring.Poly
	var spares [][]uint64
	if rrns {
		// Reseed the spare channel from the output while it is still in
		// the coefficient domain — the trusted production point for the
		// next stretch of the computation.
		outs = pl.sd.ScaleDownBatch(cs)
		pl.canonical(outs...)
		spares = [][]uint64{ev.projectSpare(outs[0]), ev.projectSpare(outs[1])}
		ring.NTTBatch(outs...)
	} else {
		outs = pl.sd.ScaleDownNTTBatch(cs)
		pl.canonical(outs...)
	}
	free()
	return outs, spares, nil
}

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
	pl, err := ev.levelPlan(ct.C0.Moduli, ct.Level-1)
	if err != nil {
		return nil, err
	}
	return ev.transition(pl, ct.C0, ct.C1, nil, ct.Scale, ct.NoiseBits, ct)
}

// Adjust moves ct one level down without changing the encrypted value:
// AdjustTo(ct, ct.Level-1).
func (ev *Evaluator) Adjust(ct *Ciphertext) (*Ciphertext, error) {
	if err := ev.begin("Adjust", ct); err != nil {
		return nil, err
	}
	if ct.Level <= 0 {
		return nil, fherr.Wrap(fherr.ErrChainExhausted, "ckks: Adjust at level 0")
	}
	return ev.adjust(ct, ct.Level-1)
}

// AdjustTo lowers ct to the given level without changing the encrypted
// value, in one transition however many levels it spans. Raising levels
// is not possible without bootstrapping and fails with
// fherr.ErrLevelMismatch.
func (ev *Evaluator) AdjustTo(ct *Ciphertext, level int) (*Ciphertext, error) {
	if level > ct.Level {
		return nil, fherr.Wrap(fherr.ErrLevelMismatch,
			"ckks: AdjustTo cannot raise level %d to %d (bootstrap instead)", ct.Level, level)
	}
	if level < 0 {
		return nil, fherr.Wrap(fherr.ErrChainExhausted, "ckks: AdjustTo target level %d below 0", level)
	}
	if level == ct.Level {
		return ct, nil
	}
	if err := ev.begin("Adjust", ct); err != nil {
		return nil, err
	}
	return ev.adjust(ct, level)
}

// adjust multiplies ct by the rounded constant
// K = (Q_L/Q_l)·(S_l/S_ct) and divides by Q_L/Q_l in one transition
// (Listings 2 and 6). The result carries the destination level's
// canonical scale, following Kim et al.'s reduced-error convention
// adopted by the paper: exact bookkeeping would multiply by the rounded
// K, and the sub-ULP difference is absorbed into the noise. The spare
// channel is not checked — K is generally too large for the tracked
// spare algebra.
func (ev *Evaluator) adjust(ct *Ciphertext, level int) (*Ciphertext, error) {
	pl, err := ev.levelPlan(ct.C0.Moduli, level)
	if err != nil {
		return nil, err
	}
	scale := ev.params.DefaultScale(level)
	k := new(big.Rat).Quo(scale, ct.Scale)
	k.Quo(k, pl.factor)
	kInt := roundRat(k)
	if kInt.Sign() <= 0 {
		return nil, fherr.Wrap(fherr.ErrScaleMismatch,
			"ckks: Adjust constant K=%v not positive; scale too large to adjust", k)
	}
	noise := ct.NoiseBits
	if kInt.Cmp(big.NewInt(1)) > 0 {
		noise += core.RatLog2(new(big.Rat).SetInt(kInt))
	}
	out, err := ev.transition(pl, ct.C0, ct.C1, kInt, new(big.Rat).Mul(ct.Scale, k), noise, nil)
	if err != nil {
		return nil, err
	}
	out.Scale = scale
	out.seal()
	return out, nil
}

// MulRescale computes Rescale(MulRelin(a, b)) as one macro op: the
// tensor product, relinearization and level transition share their
// intermediate polynomials, so the product pair never round-trips
// through a full-size ciphertext copy — the keyswitch corrections are
// added in the evaluation domain and the transition consumes the pair
// where it lies. Bit-identical to the two-call sequence.
//
// The relinearization keeps its own ModDown: shedding the special primes
// in the rescale's division instead saves 2R transforms, but a division
// by k moduli falls short by k/2 per coefficient on average (the floor
// plus the fast conversion's overshoot), and at the result's scale that
// bias costs 0.5-1.5 bits per product (DESIGN.md, "Double hoisting").
func (ev *Evaluator) MulRescale(a, b *Ciphertext) (*Ciphertext, error) {
	if err := ev.begin("MulRelin", a, b); err != nil {
		return nil, err
	}
	if err := checkCompatible("MulRelin", a, b); err != nil {
		return nil, err
	}
	rlk, releaseKey, err := ev.km.Acquire(ev.ctx, "MulRelin", RelinKeyID)
	if err != nil {
		return nil, err
	}
	defer releaseKey()
	scale, noise := ev.productBookkeeping(a, b)
	// Guard the (never materialized) product ciphertext exactly as
	// MulRelin would have before rescaling.
	if err := ev.guardNoise("MulRelin", &Ciphertext{Level: a.Level, Scale: scale, NoiseBits: noise}); err != nil {
		return nil, err
	}
	if a.Level <= 0 {
		return nil, fherr.Wrap(fherr.ErrChainExhausted, "ckks: Rescale at level 0")
	}
	ctx := ev.params.Ctx

	d0, d1, d2 := ev.tensor(a, b)
	ks0, ks1 := ev.keySwitch(d2, rlk)
	ctx.PutPoly(d2)
	ev.addPair(d0, d1, ks0, ks1)
	ctx.PutPoly(ks0)
	ctx.PutPoly(ks1)
	defer func() {
		ctx.PutPoly(d0)
		ctx.PutPoly(d1)
	}()
	pl, err := ev.levelPlan(d0.Moduli, a.Level-1)
	if err != nil {
		return nil, err
	}
	// A fresh product carries no spare channel, so there is nothing to
	// cross-check before the transition.
	return ev.transition(pl, d0, d1, nil, scale, noise, nil)
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
