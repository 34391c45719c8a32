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
// Every level change — Rescale, Adjust, AdjustTo over any span — and
// every division of a pending component by a keyswitch's P is one call
// of settle, built on the scaleUp / scaleDown primitives:
//
//   - RNS-CKKS changes never introduce moduli (nothing to scale up by),
//     so the path degenerates to Listing 1/2: shed the level's own primes.
//   - BitPacker changes first scale up by the destination level's new
//     moduli, then scale down by the source level's retired moduli
//     (Listings 4 and 6 via Listings 3 and 5).
//
// A change divides once, however many levels it spans: a modulus that
// leaves and comes back in between is neither shed nor introduced, and a
// pending component's special primes are shed with the retired moduli.

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

// division is what settle does besides shedding moduli.
type division int

const (
	// divRescale divides value and scale by what the change retires;
	// kept at the same level, it divides the pending components by P.
	divRescale division = iota
	// divAdjust premultiplies by the rounded K that keeps the value and
	// lands on the target level's canonical scale.
	divAdjust
	// divC1 divides a pending C1 by P and carries C0 as it is: the input
	// a keyswitch decomposition needs.
	divC1
)

// Settle returns ct with its pending components divided by P (see
// Ciphertext) — what decryption, serialization and every reader outside
// the evaluator need — or ct itself when nothing pends. ct is only read.
func (ev *Evaluator) Settle(ct *Ciphertext) (*Ciphertext, error) {
	return ev.settle(ct, ct.Level, divRescale)
}

// settle is the package's one division: it carries ct to level `to` in
// one step, scaling up by every modulus the level introduces and then
// dividing once by every modulus ct's components hold that the level
// does not use — a pending component's special primes with the retired
// moduli. Kept at the same level it divides only the pending components
// (divC1: only C1) by P, and the bookkeeping, which describes the
// divided value already, stays. ct is only read; a component read by
// two dividing consumers is divided twice, deterministically.
//
// Without a spare channel nothing leaves the evaluation domain but the
// shed rows: the division inverse-transforms the D shed rows and
// forward-transforms the K conversion rows (ScaleDownNTTBatch) — D+K
// transforms per polynomial where the coefficient-domain route pays R+K.
// A level change on a redundant-residue chain needs coefficient residues
// at both ends — the input for the cross-check of the spare, the output
// to seed the next one — and takes that route, as the staged twin does
// everywhere.
func (ev *Evaluator) settle(ct *Ciphertext, to int, kind division) (*Ciphertext, error) {
	same := to == ct.Level && kind != divAdjust
	in := []*ring.Poly{ct.C0, ct.C1}
	var lifts []*ring.Poly
	switch {
	case same:
		in = in[:0]
		for i, p := range []*ring.Poly{ct.C0, ct.C1} {
			if ct.pend[i] > 0 && (i == 1 || kind != divC1) {
				in = append(in, p)
			}
		}
		if len(in) == 0 {
			return ct, nil
		}
	case ct.pend[0] != ct.pend[1]:
		// One plan divides both components: lift the divided one.
		s := len(ev.params.Chain.Special)
		var lc [2]*ring.Poly
		lc, lifts = ev.lifted(ct, [2]int{s, s})
		in = lc[:]
	}
	pl, err := ev.levelPlan(in[0].Moduli, to)
	if err != nil {
		ev.put(lifts...)
		return nil, err
	}
	scale, noise := ct.Scale, ct.NoiseBits
	var pre *big.Int
	checked := ct
	if !same {
		// The input the division sees: P times the value when it pends,
		// times K when adjusting.
		if ct.pending() {
			p := new(big.Rat).SetInt(ev.params.specialP)
			scale, noise, checked = new(big.Rat).Mul(scale, p), noise+core.RatLog2(p), nil
		}
		if kind == divAdjust {
			k := new(big.Rat).Quo(ev.params.DefaultScale(to), scale)
			k.Quo(k, pl.factor)
			if pre = roundRat(k); pre.Sign() <= 0 {
				ev.put(lifts...)
				return nil, fherr.Wrap(fherr.ErrScaleMismatch,
					"ckks: Adjust constant K=%v not positive; scale too large to adjust", k)
			}
			if pre.Cmp(big.NewInt(1)) > 0 {
				noise += core.RatLog2(new(big.Rat).SetInt(pre))
			}
			scale, checked = new(big.Rat).Mul(scale, k), nil
		}
		scale = core.LimitRat(new(big.Rat).Mul(scale, pl.factor))
		noise = math.Max(noise-pl.shedBits, ev.nm.RescaleFloorBits())
	}
	coeff := !ev.fused || ev.rrnsEnabled() && !same
	cs, owned, err := ev.transition(pl, in, pre, coeff, checked)
	ev.put(lifts...)
	if err != nil {
		return nil, err
	}
	var outs []*ring.Poly
	if coeff {
		outs = pl.sd.ScaleDownBatch(cs)
	} else {
		outs = pl.sd.ScaleDownNTTBatch(cs)
	}
	if owned {
		ev.put(cs...)
	}
	pl.canonical(outs...)
	var spares [][]uint64
	if coeff {
		if ev.rrnsEnabled() && !same {
			// Reseed the spare channel from the output while it is still in
			// the coefficient domain — the trusted production point for
			// the next stretch of the computation.
			spares = [][]uint64{ev.projectSpare(outs[0]), ev.projectSpare(outs[1])}
		}
		ring.NTTBatch(outs...)
	}
	if same {
		out := &Ciphertext{C0: ct.C0, C1: ct.C1, Level: ct.Level, Scale: new(big.Rat).Set(scale), NoiseBits: noise, pend: ct.pend}
		if in[0] == ct.C0 {
			out.C0, out.pend[0], outs = outs[0], 0, outs[1:]
		}
		if len(outs) > 0 {
			out.C1, out.pend[1] = outs[0], 0
		}
		out.seal()
		return out, nil
	}
	out := newCiphertext(outs[0], outs[1], to, scale, noise)
	if spares != nil {
		out.Spare0, out.Spare1, out.SpareDepth = spares[0], spares[1], 1
	}
	if err := ev.assertLevelModuli(out); err != nil {
		return nil, err
	}
	if err := ev.guardNoise("Rescale", out); err != nil {
		return nil, err
	}
	if kind == divAdjust {
		// Kim et al.'s reduced-error convention, adopted by the paper:
		// exact bookkeeping would multiply by the rounded K, and the
		// sub-ULP difference is absorbed into the noise.
		out.Scale = ev.params.DefaultScale(to)
		out.seal()
	}
	return out, nil
}

// transition prepares the components cs (only read) for a division by
// pl: in the coefficient domain when coeff — inverse-transformed pooled
// copies, where checked's spare channel (nil: none) is cross-checked —
// then premultiplied by pre (nil: 1) and scaled up by every modulus the
// target introduces, the two folded into one Shoup multiply per row
// (scale-up is a scalar multiply plus zero rows in either domain). It
// returns what the division reads and whether that is pooled scratch of
// the caller's (false: cs itself).
func (ev *Evaluator) transition(pl *levelPlan, cs []*ring.Poly, pre *big.Int, coeff bool, checked *Ciphertext) ([]*ring.Poly, bool, error) {
	owned := false
	if coeff {
		x := make([]*ring.Poly, len(cs))
		for i, c := range cs {
			if ev.fused {
				x[i] = c.ScratchCopyINTT()
			} else {
				x[i] = c.ScratchCopy()
				x[i].INTT()
			}
		}
		cs, owned = x, true
		if ev.rrnsEnabled() && checked != nil && checked.SpareDepth > 0 {
			if err := ev.checkSpare("Rescale", checked, cs[0], cs[1]); err != nil {
				ev.put(cs...)
				return nil, false, err
			}
		}
	}
	mul := pl.upK
	if pre != nil {
		if mul == nil {
			mul = pre
		} else {
			mul = new(big.Int).Mul(mul, pre)
		}
	}
	if mul != nil {
		up := ev.params.Ctx.ScaleUpBatch(cs, pl.up, residues(mul, cs[0].Moduli))
		if owned {
			ev.put(cs...)
		}
		cs, owned = up, true
	}
	return cs, owned, nil
}

// Rescale moves ct from its level L to L-1, dividing the encrypted value
// (and the scale) by Q_L·/Q_{L-1} — i.e. by P/K where P is the product of
// the shed moduli and K of the introduced ones. It is normally called
// right after a multiplication, whose pending output it divides by the
// keyswitch's P in the same division. Rescaling at level 0 fails with
// fherr.ErrChainExhausted (bootstrap or re-plan the circuit).
func (ev *Evaluator) Rescale(ct *Ciphertext) (*Ciphertext, error) {
	if err := ev.begin("Rescale", ct); err != nil {
		return nil, err
	}
	if ct.Level <= 0 {
		return nil, fherr.Wrap(fherr.ErrChainExhausted, "ckks: Rescale at level 0")
	}
	return ev.settle(ct, ct.Level-1, divRescale)
}

// Adjust moves ct one level down without changing the encrypted value:
// AdjustTo(ct, ct.Level-1).
func (ev *Evaluator) Adjust(ct *Ciphertext) (*Ciphertext, error) { return ev.AdjustTo(ct, ct.Level-1) }

// AdjustTo lowers ct to the given level without changing the encrypted
// value, in one division however many levels it spans: it multiplies ct
// by the rounded constant K = (Q_L/Q_l)·(S_l/S_ct) and divides by
// Q_L/Q_l (Listings 2 and 6), landing on the level's canonical scale.
// The spare channel is not checked — K is generally too large for the
// tracked spare algebra. Raising levels is not possible without
// bootstrapping and fails with fherr.ErrLevelMismatch.
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
	return ev.settle(ct, level, divAdjust)
}

// MulRescale is Rescale(MulRelin(a, b)): the product pends, so the
// rescale sheds P with the retired moduli in one division — 2R forward
// transforms fewer than dividing by P first.
func (ev *Evaluator) MulRescale(a, b *Ciphertext) (*Ciphertext, error) {
	prod, err := ev.MulRelin(a, b)
	if err != nil {
		return nil, err
	}
	defer ev.free(prod)
	return ev.Rescale(prod)
}

// residues returns c mod q for every q in moduli.
func residues(c *big.Int, moduli []uint64) []uint64 {
	ws := make([]uint64, len(moduli))
	r, q := new(big.Int), new(big.Int)
	for i, m := range moduli {
		ws[i] = r.Mod(c, q.SetUint64(m)).Uint64()
	}
	return ws
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
