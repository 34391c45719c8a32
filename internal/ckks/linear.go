package ckks

import (
	"math"
	"math/big"
	"slices"
	"sort"

	"bitpacker/internal/core"
	"bitpacker/internal/engine"
	"bitpacker/internal/fherr"
	"bitpacker/internal/ring"
)

// Homomorphic linear algebra: plaintext-matrix × ciphertext-vector
// products via the diagonal method, the primitive underlying CKKS
// bootstrapping's CoeffToSlot/SlotToCoeff and FHE convolutions:
//
//	M·v = Σ_d diag_d(M) ⊙ rot(v, d)
//
// where diag_d(M)[i] = M[i][(i+d) mod n] and rot rotates slots left.
//
// Dense transforms are evaluated baby-step/giant-step: factoring each
// diagonal d = g·n1 + b lets the inner sums share the n1 baby rotations
// of the input (hoisted: one ModUp) while only the n2 giant rotations of
// the accumulators pay a full keyswitch —
//
//	M·v = Σ_g rot(Σ_b rot(diag_{g·n1+b}, -g) ⊙ rot(v, b), g·n1)
//
// O(n1+n2) ≈ O(2√D) keyswitches instead of O(D).

// LinearTransform is a plaintext matrix encoded diagonal-by-diagonal at a
// fixed level and scale, ready to be applied to ciphertexts at that level.
// Each diagonal is stored once, in the form the evaluation reads: grouped
// giant step -> baby step, pre-rotated by minus its giant step and in the
// NTT domain. The evaluation plan (ordered steps, key demand) is fixed
// when the transform is built.
type LinearTransform struct {
	Level int
	Scale *big.Rat
	Slots int

	// N1 is the baby-step modulus of the BSGS factorization: diagonal d
	// is evaluated as giant step d - d%N1 plus baby step d%N1. N1 == Slots
	// is the unfactored case (sparse/banded transforms no power-of-two
	// split improves): one giant step, 0, every diagonal a baby step.
	N1 int

	giants    []giantStep // ascending g
	babies    []int       // distinct baby steps, ascending (zero included)
	rotations []int       // nonzero baby and giant steps, ascending
	galEls    []uint64    // the Galois elements of rotations, same order
	diags     int         // diagonals stored
	naive     int         // diagonals with a nonzero rotation
}

// giantStep is one inner sum of the factorization: the diagonals g+b for
// every stored b, each pre-rotated by -g.
type giantStep struct {
	g     int
	terms []babyTerm // ascending baby step
}

type babyTerm struct {
	baby int // index into LinearTransform.babies
	pt   *Plaintext
}

// Rotations returns the rotation amounts the transform's evaluation
// needs Galois keys for, in ascending order (zero is excluded): its baby
// and giant steps. The order is deterministic so that key generation
// consumes its PRNG stream reproducibly.
func (lt *LinearTransform) Rotations() []int { return slices.Clone(lt.rotations) }

// KeySwitchCounts reports the number of keyswitches one application costs
// on the naive per-diagonal path (one per diagonal with a nonzero
// rotation) and on the factored path — the complexity BSGS optimizes.
func (lt *LinearTransform) KeySwitchCounts() (naive, active int) {
	return lt.naive, len(lt.rotations)
}

// bsgsPlan picks the baby-step modulus (a power of two) minimizing the
// keyswitch count |B\0| + |G\0| over the given normalized diagonal
// indices. It returns slots — one giant step, every diagonal a baby —
// when no factorization beats the per-diagonal count, e.g. banded
// transforms with a handful of spread-out diagonals.
func bsgsPlan(diags []int, slots int) int {
	naive := 0
	for _, d := range diags {
		if d != 0 {
			naive++
		}
	}
	best, bestCost := slots, naive
	for n1 := 2; n1 < slots; n1 <<= 1 {
		babies := map[int]bool{}
		giants := map[int]bool{}
		for _, d := range diags {
			if b := d % n1; b != 0 {
				babies[b] = true
			}
			if g := d - d%n1; g != 0 {
				giants[g] = true
			}
		}
		if cost := len(babies) + len(giants); cost < bestCost {
			best, bestCost = n1, cost
		}
	}
	return best
}

// NewLinearTransformFromDiags encodes the given nonzero diagonals
// (diags[d][i] multiplies slot (i+d) mod slots of the input) at the given
// level with the level's canonical scale, in the BSGS factorization that
// costs the fewest keyswitches. Indices are taken modulo the slot count;
// two that name the same rotation are refused.
func NewLinearTransformFromDiags(params *Parameters, enc *Encoder, diags map[int][]complex128, level int) (*LinearTransform, error) {
	if level < 0 || level > params.MaxLevel() {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "ckks: level %d out of range", level)
	}
	slots := params.Slots()
	keys := make([]int, 0, len(diags))
	for d := range diags {
		keys = append(keys, d)
	}
	sort.Ints(keys)
	source := make(map[int]int, len(keys)) // normalized index -> caller's
	ds := make([]int, 0, len(keys))
	for _, d := range keys {
		if len(diags[d]) > slots {
			return nil, fherr.Wrap(fherr.ErrInvalidParams, "ckks: diagonal %d has %d entries for %d slots", d, len(diags[d]), slots)
		}
		dd := normalizeSteps(d, slots)
		if prev, dup := source[dd]; dup {
			return nil, fherr.Wrap(fherr.ErrInvalidParams, "ckks: diagonals %d and %d both name rotation %d of %d slots", prev, d, dd, slots)
		}
		source[dd] = d
		ds = append(ds, dd)
	}
	sort.Ints(ds)

	scale := params.DefaultScale(level)
	n1 := bsgsPlan(ds, slots)
	lt := &LinearTransform{Level: level, Scale: scale, Slots: slots, N1: n1, diags: len(ds)}
	for _, d := range ds {
		lt.babies = append(lt.babies, d%n1)
	}
	sort.Ints(lt.babies)
	lt.babies = slices.Compact(lt.babies)

	// ds ascends, so giants arrive in order and babies ascend within one.
	for _, d := range ds {
		g, b := d-d%n1, d%n1
		if len(lt.giants) == 0 || lt.giants[len(lt.giants)-1].g != g {
			lt.giants = append(lt.giants, giantStep{g: g})
		}
		// Pre-rotate by -g so the giant rotation can be applied after
		// the baby-step accumulation, and pre-transform: the values are
		// identical to NTT-ing at use, every apply saves the transform.
		rotated := make([]complex128, slots)
		for j, v := range diags[source[d]] {
			rotated[(j+g)%slots] = v
		}
		pt := &Plaintext{Value: enc.MustEncode(rotated, scale, params.LevelModuli(level)), Level: level, Scale: scale}
		pt.Value.NTT()
		bi, _ := slices.BinarySearch(lt.babies, b)
		last := &lt.giants[len(lt.giants)-1]
		last.terms = append(last.terms, babyTerm{baby: bi, pt: pt})
		if d != 0 {
			lt.naive++
		}
	}

	// Nonzero babies are below n1 and nonzero giants are its multiples:
	// babies then giants is already ascending.
	for _, b := range lt.babies {
		if b != 0 {
			lt.rotations = append(lt.rotations, b)
		}
	}
	for _, gs := range lt.giants {
		if gs.g != 0 {
			lt.rotations = append(lt.rotations, gs.g)
		}
	}
	for _, r := range lt.rotations {
		lt.galEls = append(lt.galEls, ring.GaloisElementForRotation(r, params.N()))
	}
	return lt, nil
}

// matrixDiagonals extracts the nonzero diagonals of a dense dim x dim
// matrix (dim divides slots), each replicated across the slot blocks: the
// vector lives replicated in blocks of dim slots, so rotation by d works
// across block boundaries.
func matrixDiagonals(mat [][]complex128, slots int) map[int][]complex128 {
	dim := len(mat)
	diags := map[int][]complex128{}
	for d := 0; d < dim; d++ {
		diag := make([]complex128, slots)
		nonzero := false
		for i := range diag {
			row := i % dim
			diag[i] = mat[row][(row+d)%dim]
			nonzero = nonzero || diag[i] != 0
		}
		if nonzero {
			diags[d] = diag
		}
	}
	return diags
}

// NewLinearTransform encodes a dense square matrix (dim x dim,
// dim <= slots, applied to the first dim slots) by extracting its nonzero
// diagonals.
func NewLinearTransform(params *Parameters, enc *Encoder, mat [][]complex128, level int) (*LinearTransform, error) {
	dim := len(mat)
	if dim == 0 {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "ckks: empty matrix")
	}
	slots := params.Slots()
	if dim > slots {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "ckks: matrix dim %d exceeds %d slots", dim, slots)
	}
	if slots%dim != 0 {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "ckks: matrix dim %d must divide slot count %d", dim, slots)
	}
	return NewLinearTransformFromDiags(params, enc, matrixDiagonals(mat, slots), level)
}

// zeroTransformResult is the all-zero-transform fallback: an encryption
// of zero at the right level and scale.
func (ev *Evaluator) zeroTransformResult(ct *Ciphertext, scale *big.Rat) *Ciphertext {
	out := ct.CopyNew()
	out.C0 = ring.NewPoly(ev.params.Ctx, ct.C0.Moduli)
	out.C0.IsNTT = true
	out.C1 = ring.NewPoly(ev.params.Ctx, ct.C1.Moduli)
	out.C1.IsNTT = true
	out.Scale = new(big.Rat).Mul(ct.Scale, scale)
	out.seal()
	return out
}

// transformNoise is the post-transform noise estimate: each of the
// diagonal terms (encoded at scale) contributes MulPlain noise plus (for
// the rotated ones) keyswitch noise, summed coherently.
func (ev *Evaluator) transformNoise(ct *Ciphertext, scale *big.Rat, terms int) float64 {
	perTerm := addNoiseBits(
		addNoiseBits(ct.NoiseBits, ev.nm.KeySwitchBits())+core.RatLog2(scale),
		core.RatLog2(ct.Scale)+ev.nm.EncodingBits(),
	)
	return perTerm + math.Log2(float64(max(terms, 1)))/2 // sqrt accumulation of independent terms
}

// checkTransformLevel validates the input against the transform's level.
func checkTransformLevel(op string, ct *Ciphertext, level int) error {
	if ct.Level != level {
		return fherr.Wrap(fherr.ErrLevelMismatch,
			"ckks: %s: transform at level %d, ciphertext at %d (adjust first)", op, level, ct.Level)
	}
	return nil
}

// ApplyLinearTransformNaive is the reference per-diagonal evaluation,
// kept for differential testing: Σ_d MulPlain(Rotate(ct, d), encode(diag_d))
// straight from raw diagonals (as NewLinearTransformFromDiags takes them)
// at the level's canonical scale — one full keyswitch per nonzero d, and
// nothing shared with the LinearTransform it is compared against.
func (ev *Evaluator) ApplyLinearTransformNaive(enc *Encoder, ct *Ciphertext, diags map[int][]complex128, level int) (*Ciphertext, error) {
	if err := ev.begin("ApplyLinearTransformNaive", ct); err != nil {
		return nil, err
	}
	if err := checkTransformLevel("ApplyLinearTransformNaive", ct, level); err != nil {
		return nil, err
	}
	scale := ev.params.DefaultScale(level)
	ds := make([]int, 0, len(diags))
	for d := range diags {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	var acc *Ciphertext
	for _, d := range ds {
		val, err := enc.Encode(diags[d], scale, ev.params.LevelModuli(level))
		if err != nil {
			return nil, err
		}
		term, err := ev.Rotate(ct, d)
		if err != nil {
			return nil, err
		}
		term, err = ev.MulPlain(term, &Plaintext{Value: val, Level: level, Scale: scale})
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = term
		} else {
			acc.C0.Add(acc.C0, term.C0)
			acc.C1.Add(acc.C1, term.C1)
		}
	}
	if acc == nil {
		return ev.zeroTransformResult(ct, scale), nil
	}
	acc.NoiseBits = ev.transformNoise(ct, scale, len(ds))
	acc.seal()
	return acc, nil
}

// ApplyLinearTransform computes M·v for the encrypted vector v. The input
// must be at lt.Level with the canonical scale; the output carries scale
// ct.Scale * lt.Scale and should be rescaled by the caller.
//
// The evaluation is baby-step/giant-step: hoist the baby rotations of the
// input (one ModUp), multiply-accumulate each giant step's pre-rotated
// diagonals against them, then rotate only the accumulators. An
// unfactored transform is the same with a single giant step, 0: D hoisted
// rotations and nothing else. The result is value-equivalent to
// ApplyLinearTransformNaive — same level, scale and noise bound — but not
// bit-identical, because hoisting reorders the approximate-ModUp rounding
// (see DESIGN.md).
//
// The per-giant accumulations are independent and fan out across the
// execution engine (honoring the evaluator's context); the final
// reduction is ordered, so results are bit-identical for any worker
// count. A canceled context or dropped engine task surfaces as an error
// (fherr.ErrCanceled / fherr.ErrEngineFault) with all pooled scratch
// returned.
//
// When the transform was built by NewLinearTransform for dim < slots, the
// input vector must be replicated across the slot blocks (ReplicateBlocks
// does this for freshly encoded vectors).
func (ev *Evaluator) ApplyLinearTransform(ct *Ciphertext, lt *LinearTransform) (*Ciphertext, error) {
	if err := ev.begin("ApplyLinearTransform", ct); err != nil {
		return nil, err
	}
	if err := checkTransformLevel("ApplyLinearTransform", ct, lt.Level); err != nil {
		return nil, err
	}
	if lt.diags == 0 {
		return ev.zeroTransformResult(ct, lt.Scale), nil
	}
	// Declare the plan's whole key demand up front: with a key manager
	// the transform's rotation keys are pinned resident for the duration
	// of the evaluation, so the per-giant keyswitches hit a stable
	// working set instead of re-streaming keys mid-plan.
	releaseKeys, err := ev.PinGaloisKeys("ApplyLinearTransform", lt.galEls)
	if err != nil {
		return nil, err
	}
	defer releaseKeys()
	p := ev.params

	// Hoisted baby rotations, indexed like lt.babies: one ModUp shared by
	// every nonzero step, baby 0 is the input itself.
	rot := make([]*Ciphertext, len(lt.babies))
	steps := lt.babies
	if steps[0] == 0 {
		rot[0], steps = ct, steps[1:]
	}
	if len(steps) > 0 {
		hd, err := ev.DecomposeModUp(ct)
		if err != nil {
			return nil, err
		}
		defer hd.Free(p.Ctx)
		rs, err := ev.rotateHoistedSteps(hd, steps)
		if err != nil {
			return nil, err
		}
		copy(rot[len(rot)-len(rs):], rs)
	}

	// Per-giant-step accumulation, fanned out over the engine. Each task
	// writes only its own slot and the inner ops are deterministic, so
	// the fan-out does not change results. A nonzero giant does NOT pay a
	// full keyswitch: it decomposes its accumulator, runs the inner
	// product, and permutes the result while it is still in the extended
	// (live+special) basis — the expensive ModDown is hoisted out of the
	// loop, because the giants' keyswitch outputs are about to be summed
	// anyway and mod-q addition is exact, so adding the raw pairs first
	// and dividing by P once is value-safe and strictly cheaper.
	type giantPart struct {
		acc0, acc1 *ring.Poly // giant 0 only: live-basis accumulator pair
		e0, e1     *ring.Poly // nonzero giants: permuted ext-basis inner product
		c0         *ring.Poly // nonzero giants: permuted C0 half (live basis)
	}
	parts := make([]giantPart, len(lt.giants))
	errs := make([]error, len(lt.giants))
	cost := p.N() * ct.C0.R() * 8 // keyswitch-dominated: always worth fanning out
	dispatchErr := engine.DispatchCtx(ev.ctx, len(lt.giants), cost, func(gi int) {
		giant := &lt.giants[gi]
		acc0 := p.Ctx.GetPoly(ct.C0.Moduli)
		acc0.IsNTT = true
		acc1 := p.Ctx.GetPoly(ct.C1.Moduli)
		acc1.IsNTT = true
		for i, term := range giant.terms {
			in := rot[term.baby]
			pt := term.pt.Value
			switch {
			case ev.fused && i == 0:
				// Both accumulator halves share the diagonal operand in
				// one fork/join per baby instead of two.
				ring.MulCoeffsPairInto(acc0, acc1, pt, in.C0, in.C1)
			case ev.fused:
				ring.MulCoeffsPairAdd(acc0, acc1, pt, in.C0, in.C1)
			case i == 0:
				acc0.MulCoeffs(in.C0, pt)
				acc1.MulCoeffs(in.C1, pt)
			default:
				acc0.MulCoeffsAdd(in.C0, pt)
				acc1.MulCoeffsAdd(in.C1, pt)
			}
		}
		if giant.g == 0 {
			parts[gi] = giantPart{acc0: acc0, acc1: acc1}
			return
		}
		galEl := ring.GaloisElementForRotation(giant.g, p.N())
		swk, releaseKey, err := ev.galoisKey("ApplyLinearTransform", galEl)
		if err != nil {
			p.Ctx.PutPoly(acc0)
			p.Ctx.PutPoly(acc1)
			errs[gi] = err
			return
		}
		defer releaseKey()
		hd := ev.decomposePoly(acc1)
		var e0, e1, c0p *ring.Poly
		if ev.fused {
			e0, e1 = ev.keySwitchExtFused(hd, swk, galEl)
			c0p = acc0.PermuteNTT(galEl)
		} else {
			e0, e1 = ev.keySwitchExtUnfused(hd, swk, galEl)
			t := acc0.ScratchCopy()
			t.INTT()
			c0p = t.Automorphism(galEl)
			p.Ctx.PutPoly(t)
			c0p.NTT()
		}
		hd.Free(p.Ctx)
		p.Ctx.PutPoly(acc0)
		p.Ctx.PutPoly(acc1)
		parts[gi] = giantPart{e0: e0, e1: e1, c0: c0p}
	})

	// Error paths discard the partial result; pooled pieces of completed
	// tasks are reclaimed here.
	fail := func(err error) (*Ciphertext, error) {
		for _, part := range parts {
			for _, q := range []*ring.Poly{part.acc0, part.acc1, part.e0, part.e1, part.c0} {
				if q != nil {
					p.Ctx.PutPoly(q)
				}
			}
		}
		return nil, err
	}
	if dispatchErr != nil {
		return fail(dispatchErr)
	}
	for _, err := range errs {
		if err != nil {
			return fail(err)
		}
	}

	// Ordered reduction keeps the result independent of scheduling: sum
	// the extended-basis pairs and the permuted C0 halves in ascending
	// giant order (exact mod-q adds), divide by P once, then fold in
	// giant 0's unrotated accumulator.
	var ext0, ext1, c0sum *ring.Poly // ownership taken from the first nonzero giant
	var out0, out1 *ring.Poly        // giant 0's contribution (live basis)
	for _, part := range parts {
		if part.acc0 != nil {
			out0, out1 = part.acc0, part.acc1
			continue
		}
		if ext0 == nil {
			ext0, ext1, c0sum = part.e0, part.e1, part.c0
			continue
		}
		if ev.fused {
			ring.AddPair(ext0, ext0, part.e0, ext1, ext1, part.e1)
		} else {
			ext0.Add(ext0, part.e0)
			ext1.Add(ext1, part.e1)
		}
		c0sum.Add(c0sum, part.c0)
		p.Ctx.PutPoly(part.e0)
		p.Ctx.PutPoly(part.e1)
		p.Ctx.PutPoly(part.c0)
	}
	if ext0 != nil {
		var ks0, ks1 *ring.Poly
		if ev.fused {
			ks0, ks1 = ev.extModDownFused(ext0, ext1, ct.C0.Moduli)
		} else {
			ks0, ks1 = ev.extModDownUnfused(ext0, ext1, ct.C0.Moduli)
		}
		ks0.Add(ks0, c0sum)
		p.Ctx.PutPoly(c0sum)
		if out0 == nil {
			out0, out1 = ks0, ks1
		} else {
			if ev.fused {
				ring.AddPair(out0, out0, ks0, out1, out1, ks1)
			} else {
				out0.Add(out0, ks0)
				out1.Add(out1, ks1)
			}
			p.Ctx.PutPoly(ks0)
			p.Ctx.PutPoly(ks1)
		}
	}
	out := newCiphertext(out0, out1, ct.Level, new(big.Rat).Mul(ct.Scale, lt.Scale), ev.transformNoise(ct, lt.Scale, lt.diags))
	out.seal()
	return out, nil
}

// ReplicateBlocks repeats the first dim entries of values across the whole
// slot vector, the layout ApplyLinearTransform expects for dim < slots.
func ReplicateBlocks(values []complex128, dim, slots int) []complex128 {
	out := make([]complex128, slots)
	for i := range out {
		out[i] = values[i%dim]
	}
	return out
}
