package ring

import (
	"math/big"

	"bitpacker/internal/rns"
)

// This file implements the low-level RNS level-management primitives of
// the paper: scaleUp (Listing 3) and scaleDown (Listing 5). bpRescale and
// bpAdjust (Listings 4 and 6) are composed from these in the ckks package.

// ScaleUp returns p scaled up by K = Π newModuli: existing residues are
// multiplied by K and zero residues are appended for each new modulus
// (x·K ≡ 0 mod q for every new q | K). Works in either domain, since the
// appended residues are identically zero.
func (p *Poly) ScaleUp(newModuli []uint64) *Poly {
	k := big.NewInt(1)
	for _, q := range newModuli {
		k.Mul(k, new(big.Int).SetUint64(q))
	}
	out := NewPoly(p.ctx, append(append([]uint64(nil), p.Moduli...), newModuli...))
	out.IsNTT = p.IsNTT
	// Multiply the original residues by K, writing straight into out's
	// leading rows through a shared view; the appended rows stay zero.
	r := len(p.Moduli)
	each(scalarOp(p.ctx.view(out.Moduli[:r], out.Coeffs[:r], out.IsNTT), p, reduceBig(k, p.Moduli)))
	return out
}

// ScaleUpBatch is the fused scaleUp of bpRescale/bpAdjust: for each input
// polynomial it returns a pooled copy multiplied by mul and extended with
// zero rows for the up moduli, in the input's own domain — a scalar
// multiple and an all-zero row read the same on either side of the
// transform. Per original row copy→multiply is one pass, and all
// polynomials' rows share a single fork/join.
//
// Bit-identical to ScratchCopy+MulScalarBig+ScaleUp composed stepwise:
// Shoup scalar multiplication of canonical inputs is canonical, and when
// mul folds several legacy scalar multiplies into one (Adjust's k times
// ScaleUp's K) canonical multiplies compose exactly:
// (x·a mod q)·b mod q = x·(ab mod q).
func (c *Context) ScaleUpBatch(ps []*Poly, up []uint64, mul *big.Int) []*Poly {
	outs := make([]*Poly, len(ps))
	ops := make([]rowOp, 0, 2*len(ps))
	for pi, p := range ps {
		out := c.GetPoly(append(append([]uint64(nil), p.Moduli...), up...))
		out.IsNTT = p.IsNTT
		outs[pi] = out
		// The original residues times mul go into out's leading rows
		// through a shared view; the appended rows are cleared.
		r := len(p.Moduli)
		ops = append(ops,
			scalarOp(c.view(out.Moduli[:r], out.Coeffs[:r], out.IsNTT), p, reduceBig(mul, p.Moduli)),
			zeroOp(c.view(out.Moduli[r:], out.Coeffs[r:], out.IsNTT)))
	}
	perRow(ops...)
	return outs
}

// ScaleDownParams precomputes a scaleDown transition: shedding the moduli
// at positions shedPos of a polynomial whose moduli are exactly moduli,
// dividing the underlying integer by their product.
type ScaleDownParams struct {
	Moduli  []uint64
	ShedPos []int
	keptPos []int
	div     *rns.ExactDiv
	P       *big.Int
}

// NewScaleDownParams builds the precomputed constants for the transition.
func NewScaleDownParams(moduli []uint64, shedPos []int) *ScaleDownParams {
	shedSet := make(map[int]bool, len(shedPos))
	for _, i := range shedPos {
		shedSet[i] = true
	}
	sp := &ScaleDownParams{
		Moduli:  append([]uint64(nil), moduli...),
		ShedPos: append([]int(nil), shedPos...),
	}
	var shed, kept []uint64
	for i, q := range moduli {
		if shedSet[i] {
			shed = append(shed, q)
		} else {
			kept = append(kept, q)
			sp.keptPos = append(sp.keptPos, i)
		}
	}
	sp.div = rns.NewExactDiv(shed, kept)
	sp.P = sp.div.Conv.P
	return sp
}

// split checks p against the transition (domain and moduli) and returns
// its shed rows and its kept rows (over params.div.Kept).
func (params *ScaleDownParams) split(p *Poly, wantNTT bool) (shed, kept [][]uint64) {
	if p.IsNTT != wantNTT {
		panic("ring: ScaleDown domain mismatch")
	}
	if len(p.Moduli) != len(params.Moduli) {
		panic("ring: ScaleDown moduli mismatch")
	}
	for i := range p.Moduli {
		if p.Moduli[i] != params.Moduli[i] {
			panic("ring: ScaleDown moduli mismatch")
		}
	}
	shed = make([][]uint64, len(params.ShedPos))
	for i, pos := range params.ShedPos {
		shed[i] = p.Coeffs[pos]
	}
	kept = make([][]uint64, len(params.keptPos))
	for j, pos := range params.keptPos {
		kept[j] = p.Coeffs[pos]
	}
	return shed, kept
}

// ScaleDown divides p by the product of the shed moduli (flooring, with
// the < k additive error analyzed in rns.ExactDiv) and sheds them.
// p must be in the coefficient domain and its moduli must match params.
// The result keeps the surviving moduli in their original order.
func (p *Poly) ScaleDown(params *ScaleDownParams) *Poly {
	shed, kept := params.split(p, false)
	out := p.ctx.view(params.div.Kept, kept, false).ScratchCopy()
	params.div.Apply(out.Coeffs, shed)
	return out
}

// ScaleDownBatch runs ScaleDown over several coefficient-domain
// polynomials as one batched pair of fork/joins, reading each input's
// kept rows directly (no copy pass). Bit-identical to per-polynomial
// ScaleDown. It serves the RRNS configuration, whose spare channel is
// projected from coefficient-domain output; everything else stays in the
// evaluation domain (ScaleDownNTTBatch).
func (params *ScaleDownParams) ScaleDownBatch(ps []*Poly) []*Poly {
	outs := make([]*Poly, len(ps))
	targets := make([]rns.DivBatchTarget, len(ps))
	for pi, p := range ps {
		shed, kept := params.split(p, false)
		outs[pi] = p.ctx.GetPoly(params.div.Kept) // every row fully overwritten by ApplyBatch
		targets[pi] = rns.DivBatchTarget{Shed: shed, Kept: kept, Out: outs[pi].Coeffs}
	}
	params.div.ApplyBatch(targets)
	return outs
}

// ScaleDownNTTBatch is ScaleDownBatch for inputs that are already in the
// NTT evaluation domain, producing evaluation-domain outputs: only the
// shed rows are inverse-transformed (into pooled scratch) and only the
// basis-conversion rows forward-transformed, so the kept rows never
// round-trip through the coefficient domain. With S shed and K kept rows
// per polynomial this costs S inverse + K forward transforms instead of
// the (S+K) inverse + K forward of INTT → ScaleDownBatch → NTT.
// Bit-identical to that staged sandwich: the transforms are exactly
// linear and mutually inverse on canonical residues, so subtracting the
// forward-transformed conversion from the untouched evaluation-domain
// row yields the same canonical words as transforming the coefficient-
// domain difference. The inputs are only read.
func (params *ScaleDownParams) ScaleDownNTTBatch(ps []*Poly) []*Poly {
	if len(ps) == 0 {
		return nil
	}
	ctx, ns := ps[0].ctx, len(params.ShedPos)
	outs := make([]*Poly, len(ps))
	targets := make([]rns.DivBatchTarget, len(ps))
	// in views every polynomial's shed rows as one polynomial (concat's
	// job, done in place: the rows are not polynomials yet).
	in := ctx.view(make([]uint64, 0, ns*len(ps)), make([][]uint64, 0, ns*len(ps)), true)
	for pi, p := range ps {
		shed, kept := params.split(p, true)
		in.Moduli = append(in.Moduli, params.div.Conv.Src...)
		in.Coeffs = append(in.Coeffs, shed...)
		outs[pi] = ctx.GetPoly(params.div.Kept) // every row fully overwritten by ApplyBatchNTT
		outs[pi].IsNTT = true
		targets[pi] = rns.DivBatchTarget{Kept: kept, Out: outs[pi].Coeffs}
	}
	// One fused copy+inverse work item per shed row across all
	// polynomials; the kept rows are left untouched in the NTT domain.
	tmp := in.scratchLike()
	fused(copyOp(tmp, in), inverseOp(tmp))
	for pi := range targets {
		targets[pi].Shed = tmp.Coeffs[pi*ns : (pi+1)*ns]
	}
	params.div.ApplyBatchNTT(targets, func(j int, row []uint64) { outs[0].table(j).Forward(row) })
	ctx.PutPoly(tmp)
	return outs
}
