package ckks

import (
	"math"
	"math/big"
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
type LinearTransform struct {
	// Diags maps rotation amount -> encoded diagonal (NTT domain), used
	// by the per-diagonal (naive/hoisted) path.
	Diags map[int]*Plaintext
	Level int
	Scale *big.Rat
	Slots int

	// N1 is the baby-step modulus of the BSGS factorization; 0 means the
	// factorization would not reduce the keyswitch count (sparse/banded
	// transforms) and the per-diagonal hoisted path is used instead.
	N1 int
	// bsgs maps giant step g (multiple of N1) -> baby step b -> the
	// diagonal g+b pre-rotated by -g and encoded in the NTT domain.
	bsgs map[int]map[int]*Plaintext
}

// Rotations returns the rotation amounts the transform's evaluation path
// needs Galois keys for, in ascending order (zero is excluded): the baby
// and giant steps when the BSGS factorization is active, the diagonal
// indices otherwise. The order is deterministic so that key generation
// consumes its PRNG stream reproducibly.
func (lt *LinearTransform) Rotations() []int {
	if lt.N1 == 0 {
		return lt.RotationsNaive()
	}
	seen := map[int]bool{}
	var out []int
	add := func(r int) {
		if r != 0 && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for g, group := range lt.bsgs {
		add(g)
		for b := range group {
			add(b)
		}
	}
	sort.Ints(out)
	return out
}

// GaloisElements returns the Galois elements the transform's evaluation
// path touches, in the same deterministic order as Rotations() — the
// plan-wide key demand a key manager pins before evaluation begins.
func (lt *LinearTransform) GaloisElements(n int) []uint64 {
	rots := lt.Rotations()
	els := make([]uint64, len(rots))
	for i, r := range rots {
		els[i] = ring.GaloisElementForRotation(r, n)
	}
	return els
}

// RotationsNaive returns the rotation amounts the per-diagonal reference
// path (ApplyLinearTransformNaive) needs, in ascending order.
func (lt *LinearTransform) RotationsNaive() []int {
	var out []int
	for d := range lt.Diags {
		if d != 0 {
			out = append(out, d)
		}
	}
	sort.Ints(out)
	return out
}

// KeySwitchCounts reports the number of keyswitches one application costs
// on the naive per-diagonal path and on the active (BSGS or hoisted) path
// — the complexity the factorization optimizes.
func (lt *LinearTransform) KeySwitchCounts() (naive, active int) {
	naive = len(lt.RotationsNaive())
	active = len(lt.Rotations())
	return naive, active
}

// sortedDiags returns the diagonal indices in ascending order, fixing the
// evaluation order of the per-diagonal paths independent of map iteration.
func (lt *LinearTransform) sortedDiags() []int {
	ds := make([]int, 0, len(lt.Diags))
	for d := range lt.Diags {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	return ds
}

// bsgsPlan picks the baby-step modulus (a power of two) minimizing the
// keyswitch count |B\0| + |G\0| over the given normalized diagonal
// indices. It returns 0 when no factorization beats the per-diagonal
// count — e.g. banded transforms with a handful of spread-out diagonals.
func bsgsPlan(diags []int, slots int) int {
	naive := 0
	for _, d := range diags {
		if d != 0 {
			naive++
		}
	}
	best, bestCost := 0, naive
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
// level with the level's canonical scale, precomputing the BSGS
// factorization when it reduces the keyswitch count.
func NewLinearTransformFromDiags(params *Parameters, enc *Encoder, diags map[int][]complex128, level int) (*LinearTransform, error) {
	if level < 0 || level > params.MaxLevel() {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "ckks: level %d out of range", level)
	}
	slots := params.Slots()
	scale := params.DefaultScale(level)
	lt := &LinearTransform{
		Diags: map[int]*Plaintext{},
		Level: level,
		Scale: scale,
		Slots: slots,
	}
	encode := func(v []complex128) *Plaintext {
		pt := &Plaintext{
			Value: enc.MustEncode(v, scale, params.LevelModuli(level)),
			Level: level,
			Scale: scale,
		}
		// Pre-transform to the NTT domain: the values are identical to
		// NTT-ing at use (the transform is deterministic), so the naive
		// path stays bit-compatible while every apply saves one NTT per
		// diagonal.
		pt.Value.NTT()
		return pt
	}
	normalized := map[int][]complex128{}
	for d, diag := range diags {
		if len(diag) > slots {
			return nil, fherr.Wrap(fherr.ErrInvalidParams, "ckks: diagonal %d has %d entries for %d slots", d, len(diag), slots)
		}
		dd := ((d % slots) + slots) % slots
		padded := make([]complex128, slots)
		copy(padded, diag)
		normalized[dd] = padded
		lt.Diags[dd] = encode(padded)
	}

	// BSGS factorization: pre-rotate diagonal g+b by -g so the giant
	// rotation can be applied after the baby-step accumulation.
	var ds []int
	for d := range normalized {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	if n1 := bsgsPlan(ds, slots); n1 != 0 {
		lt.N1 = n1
		lt.bsgs = map[int]map[int]*Plaintext{}
		for _, d := range ds {
			g, b := d-d%n1, d%n1
			rotated := make([]complex128, slots)
			for j := range rotated {
				rotated[j] = normalized[d][((j-g)%slots+slots)%slots]
			}
			if lt.bsgs[g] == nil {
				lt.bsgs[g] = map[int]*Plaintext{}
			}
			lt.bsgs[g][b] = encode(rotated)
		}
	}
	return lt, nil
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
	diags := map[int][]complex128{}
	for d := 0; d < dim; d++ {
		diag := make([]complex128, slots)
		nonzero := false
		// The vector lives replicated in blocks of dim slots, so the
		// diagonal is replicated too; rotation by d then works across
		// block boundaries.
		for i := 0; i < slots; i++ {
			row := i % dim
			v := mat[row][(row+d)%dim]
			// Only valid when the rotated index stays within the same
			// block, which replication guarantees.
			diag[i] = v
			if v != 0 {
				nonzero = true
			}
		}
		if nonzero {
			diags[d] = diag
		}
	}
	return NewLinearTransformFromDiags(params, enc, diags, level)
}

// zeroTransformResult is the all-zero-transform fallback: an encryption
// of zero at the right level and scale.
func (ev *Evaluator) zeroTransformResult(ct *Ciphertext, lt *LinearTransform) *Ciphertext {
	out := ct.CopyNew()
	out.C0 = ring.NewPoly(ev.params.Ctx, ct.C0.Moduli)
	out.C0.IsNTT = true
	out.C1 = ring.NewPoly(ev.params.Ctx, ct.C1.Moduli)
	out.C1.IsNTT = true
	out.Scale = new(big.Rat).Mul(ct.Scale, lt.Scale)
	out.seal()
	return out
}

// transformNoise is the post-transform noise estimate: each of the D
// diagonal terms contributes MulPlain noise plus (for the rotated ones)
// keyswitch noise, summed coherently.
func (ev *Evaluator) transformNoise(ct *Ciphertext, lt *LinearTransform) float64 {
	perTerm := addNoiseBits(
		addNoiseBits(ct.NoiseBits, ev.nm.KeySwitchBits())+core.RatLog2(lt.Scale),
		core.RatLog2(ct.Scale)+ev.nm.EncodingBits(),
	)
	terms := len(lt.Diags)
	if terms < 1 {
		terms = 1
	}
	return perTerm + math.Log2(float64(terms))/2 // sqrt accumulation of independent terms
}

// checkTransformLevel validates the input against the transform.
func checkTransformLevel(op string, ct *Ciphertext, lt *LinearTransform) error {
	if ct.Level != lt.Level {
		return fherr.Wrap(fherr.ErrLevelMismatch,
			"ckks: %s: transform at level %d, ciphertext at %d (adjust first)", op, lt.Level, ct.Level)
	}
	return nil
}

// ApplyLinearTransform computes M·v for the encrypted vector v. The input
// must be at lt.Level with the canonical scale; the output carries scale
// ct.Scale * lt.Scale and should be rescaled by the caller.
//
// Dense transforms run baby-step/giant-step with the baby rotations
// hoisted; sparse ones fall back to the per-diagonal path with all
// rotations hoisted (one ModUp total either way). The result is
// value-equivalent to ApplyLinearTransformNaive — same level, scale and
// noise bound — but not bit-identical, because hoisting reorders the
// approximate-ModUp rounding (see DESIGN.md).
//
// When the transform was built by NewLinearTransform for dim < slots, the
// input vector must be replicated across the slot blocks (ReplicateBlocks
// does this for freshly encoded vectors).
func (ev *Evaluator) ApplyLinearTransform(ct *Ciphertext, lt *LinearTransform) (*Ciphertext, error) {
	if err := ev.begin("ApplyLinearTransform", ct); err != nil {
		return nil, err
	}
	if err := checkTransformLevel("ApplyLinearTransform", ct, lt); err != nil {
		return nil, err
	}
	if len(lt.Diags) == 0 {
		return ev.zeroTransformResult(ct, lt), nil
	}
	// Declare the plan's whole key demand up front: with a key manager
	// the transform's rotation keys are pinned resident for the duration
	// of the evaluation, so the per-giant keyswitches hit a stable
	// working set instead of re-streaming keys mid-plan.
	releaseKeys, err := ev.PinGaloisKeys("ApplyLinearTransform", lt.GaloisElements(ev.params.N()))
	if err != nil {
		return nil, err
	}
	defer releaseKeys()
	if lt.N1 != 0 {
		return ev.applyLinearTransformBSGS(ct, lt)
	}
	return ev.applyLinearTransformHoisted(ct, lt)
}

// ApplyLinearTransformNaive is the reference per-diagonal evaluation: one
// full keyswitch (ModUp + inner product + ModDown) per nonzero diagonal.
// It is kept as the differential-testing and benchmarking baseline for
// the hoisted/BSGS paths.
func (ev *Evaluator) ApplyLinearTransformNaive(ct *Ciphertext, lt *LinearTransform) (*Ciphertext, error) {
	if err := ev.begin("ApplyLinearTransformNaive", ct); err != nil {
		return nil, err
	}
	if err := checkTransformLevel("ApplyLinearTransformNaive", ct, lt); err != nil {
		return nil, err
	}
	var acc *Ciphertext
	for _, d := range lt.sortedDiags() {
		pt := lt.Diags[d]
		term := ct
		if d != 0 {
			var err error
			term, err = ev.Rotate(ct, d)
			if err != nil {
				return nil, err
			}
		}
		term, err := ev.MulPlain(term, pt)
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
		return ev.zeroTransformResult(ct, lt), nil
	}
	acc.NoiseBits = ev.transformNoise(ct, lt)
	acc.seal()
	return acc, nil
}

// applyLinearTransformHoisted is the per-diagonal path with the rotations
// hoisted: the input is decomposed once and every diagonal reuses the
// extended digits.
func (ev *Evaluator) applyLinearTransformHoisted(ct *Ciphertext, lt *LinearTransform) (*Ciphertext, error) {
	ds := lt.sortedDiags()
	var hd *HoistedDecomp
	for _, d := range ds {
		if d != 0 {
			var err error
			hd, err = ev.DecomposeModUp(ct)
			if err != nil {
				return nil, err
			}
			defer hd.Free(ev.params.Ctx)
			break
		}
	}
	var acc *Ciphertext
	for _, d := range ds {
		term := ct
		if d != 0 {
			var err error
			term, err = ev.rotateHoisted(hd, d)
			if err != nil {
				return nil, err
			}
		}
		term, err := ev.MulPlain(term, lt.Diags[d])
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
	acc.NoiseBits = ev.transformNoise(ct, lt)
	acc.seal()
	return acc, nil
}

// applyLinearTransformBSGS evaluates the factored transform: hoist the
// baby rotations of the input (one ModUp), multiply-accumulate each giant
// step's pre-rotated diagonals against them, then rotate only the n2
// accumulators. The per-giant accumulations are independent and fan out
// across the execution engine (honoring the evaluator's context); the
// final reduction is ordered, so results are bit-identical for any worker
// count. A canceled context or dropped engine task surfaces as an error
// (fherr.ErrCanceled / fherr.ErrEngineFault) with all pooled scratch
// returned.
func (ev *Evaluator) applyLinearTransformBSGS(ct *Ciphertext, lt *LinearTransform) (*Ciphertext, error) {
	p := ev.params

	// Collect the baby and giant steps in deterministic order.
	babySet := map[int]bool{}
	var giants []int
	for g, group := range lt.bsgs {
		giants = append(giants, g)
		for b := range group {
			babySet[b] = true
		}
	}
	sort.Ints(giants)
	var babies []int
	for b := range babySet {
		babies = append(babies, b)
	}
	sort.Ints(babies)

	// Hoisted baby rotations: one ModUp shared by every nonzero step.
	rot := map[int]*Ciphertext{}
	var hd *HoistedDecomp
	for _, b := range babies {
		if b != 0 {
			var err error
			hd, err = ev.DecomposeModUp(ct)
			if err != nil {
				return nil, err
			}
			defer hd.Free(p.Ctx)
			break
		}
	}
	if ev.fused && len(babies) > 1 {
		// The hoisted baby rotations are independent (each reads the
		// shared decomposition and writes only its own slot), so they
		// fan out as one fork/join instead of running back to back;
		// first-error selection stays in baby order, deterministic.
		rots := make([]*Ciphertext, len(babies))
		rerrs := make([]error, len(babies))
		cost := p.N() * ct.C0.R() * 8 // keyswitch-dominated per rotation
		if err := engine.DispatchCtx(ev.ctx, len(babies), cost, func(bi int) {
			if b := babies[bi]; b == 0 {
				rots[bi] = ct
			} else if r, err := ev.rotateHoisted(hd, b); err != nil {
				rerrs[bi] = err
			} else {
				rots[bi] = r
			}
		}); err != nil {
			return nil, err
		}
		for _, err := range rerrs {
			if err != nil {
				return nil, err
			}
		}
		for bi, b := range babies {
			rot[b] = rots[bi]
		}
	} else {
		for _, b := range babies {
			if b == 0 {
				rot[0] = ct
			} else {
				r, err := ev.rotateHoisted(hd, b)
				if err != nil {
					return nil, err
				}
				rot[b] = r
			}
		}
	}

	outScale := new(big.Rat).Mul(ct.Scale, lt.Scale)

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
	parts := make([]giantPart, len(giants))
	errs := make([]error, len(giants))
	cost := p.N() * ct.C0.R() * 8 // keyswitch-dominated: always worth fanning out
	dispatchErr := engine.DispatchCtx(ev.ctx, len(giants), cost, func(gi int) {
		g := giants[gi]
		group := lt.bsgs[g]
		var bs []int
		for b := range group {
			bs = append(bs, b)
		}
		sort.Ints(bs)

		acc0 := p.Ctx.GetPoly(ct.C0.Moduli)
		acc0.IsNTT = true
		acc1 := p.Ctx.GetPoly(ct.C1.Moduli)
		acc1.IsNTT = true
		for i, b := range bs {
			in := rot[b]
			pt := group[b].Value
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
		if g == 0 {
			parts[gi] = giantPart{acc0: acc0, acc1: acc1}
			return
		}
		galEl := ring.GaloisElementForRotation(g, p.N())
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
	for gi := range giants {
		part := parts[gi]
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
	out := newCiphertext(out0, out1, ct.Level, new(big.Rat).Set(outScale), ct.NoiseBits)
	out.NoiseBits = ev.transformNoise(ct, lt)
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
