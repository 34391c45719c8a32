package ckks

import (
	"math"
	"math/big"
	"slices"
	"sort"

	"bitpacker/internal/core"
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
// of the input while only the n2 giant rotations of the accumulators
// pay a decomposition of their own —
//
//	M·v = Σ_g rot(Σ_b rot(diag_{g·n1+b}, -g) ⊙ rot(v, b), g·n1)
//
// Evaluation is double-hoisted (Bossuat et al., EUROCRYPT 2021): the
// baby rotations share one ModUp and stay in the extended basis
// live++special, scaled by P, where the diagonals multiply them; a giant
// divides only its C1 accumulator, for its own decomposition; and one
// ModDown ends the apply.

// LinearTransform is a plaintext matrix encoded diagonal-by-diagonal at a
// fixed level and scale, ready to be applied to ciphertexts at that level.
// Each diagonal is stored once, in the form the evaluation reads: grouped
// giant step -> baby step, pre-rotated by minus its giant step, in the
// NTT domain, and over the basis its baby rotation lives in. The
// evaluation plan (ordered steps, key demand) is fixed when the
// transform is built.
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

// babyTerm is one stored diagonal, in the NTT domain: over the level's
// moduli followed by the special primes when its baby step is nonzero —
// it multiplies a baby rotation still in the extended basis — and, times
// P, over the level's moduli alone when it multiplies the input itself
// (the live rows of P·ct; its special rows are zero). Diagonal 0 alone is
// a plaintext product and is stored as it is.
type babyTerm struct {
	baby int // index into LinearTransform.babies
	pt   *ring.Poly
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

// applyShape is what one apply's cost depends on at the transform's
// level: r live and s special residue rows, and d non-empty keyswitch
// digits.
type applyShape struct{ r, s, d int }

func newApplyShape(params *Parameters, level int) applyShape {
	live := params.LevelModuli(level)
	digits := map[int]bool{}
	for _, q := range live {
		digits[params.DigitOf(q)] = true
	}
	return applyShape{r: len(live), s: len(params.Chain.Special), d: len(digits)}
}

// nttPasses is what one residue-row transform weighs against one
// pointwise pass over a row in bsgsPlan's cost.
const nttPasses = 6

// cost is one apply's work, in pointwise row passes, for nb nonzero baby
// and ng nonzero giant steps over diagonals of which nz have a nonzero
// baby step and z do not:
//
//	decomposition: once if nb > 0, again per giant   ntt·d·e
//	nonzero baby: inner product, digit permutations,
//	  the P·φ(c0) fold                               3·d·e + e
//	nonzero giant: C1 ModDown                        ntt·e
//	  inner product and permutations, C0 permutation 3·d·e + e
//	closing ModDown                                  ntt·2e
//	diagonal: product and accumulation               2e, or 2r at baby 0
//
// The weights count the passes of the per-term kernels the plans were
// chosen under. The inner products now read the digit permutations in
// place and sum a giant's diagonals in one pass; the weights are kept,
// so no transform's plan (and so none of its output bits) moves.
func (sh applyShape) cost(nb, ng, nz, z int) int {
	e := sh.r + sh.s
	de := sh.d * e
	c := nttPasses*2*e + nb*(3*de+e) + ng*(nttPasses*(e+de)+3*de+e) + nz*2*e + z*2*sh.r
	if nb > 0 {
		c += nttPasses * de
	}
	return c
}

// bsgsPlan picks the baby-step modulus for the normalized diagonal
// indices ds: the power of two n1 < slots, or slots itself (unfactored:
// one giant step), whose apply costs least at the transform's level,
// ties going to fewer rotation keys and then to the unfactored plan.
func bsgsPlan(ds []int, slots int, sh applyShape) int {
	best, bestCost, bestKeys := slots, 0, 0
	for n1 := slots; n1 >= 2; n1 >>= 1 {
		babies, giants := map[int]bool{}, map[int]bool{}
		z := 0
		for _, d := range ds {
			if b := d % n1; b != 0 {
				babies[b] = true
			} else {
				z++
			}
			if g := d - d%n1; g != 0 {
				giants[g] = true
			}
		}
		cost := sh.cost(len(babies), len(giants), len(ds)-z, z)
		keys := len(babies) + len(giants)
		if n1 == slots || cost < bestCost || cost == bestCost && keys < bestKeys {
			best, bestCost, bestKeys = n1, cost, keys
		}
	}
	return best
}

// normalizeSteps reduces a rotation amount into [0, slots).
func normalizeSteps(steps, slots int) int {
	return ((steps % slots) + slots) % slots
}

// NewLinearTransformFromDiags encodes the given nonzero diagonals
// (diags[d][i] multiplies slot (i+d) mod slots of the input) at the given
// level with the level's canonical scale, in the BSGS factorization whose
// apply costs least (bsgsPlan). Indices are taken modulo the slot count;
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
	n1 := bsgsPlan(ds, slots, newApplyShape(params, level))
	live := params.LevelModuli(level)
	ext := append(slices.Clone(live), params.Chain.Special...)
	p := big.NewInt(1)
	for _, q := range params.Chain.Special {
		p.Mul(p, new(big.Int).SetUint64(q))
	}
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
		moduli := live
		if b != 0 {
			moduli = ext
		}
		pt := enc.MustEncode(rotated, scale, moduli)
		pt.NTT()
		if b == 0 && len(ds) > 1 {
			// The input it multiplies is at live width, where P·ct is
			// P times it: storing P·diag lets the product join the
			// giant's extended-basis sum with no lift.
			pt.MulScalarBig(pt, p)
		}
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
// diagonal terms (encoded at scale) contributes MulPlain noise plus, for
// the rotated ones, the keyswitch noise rotBits that reaches its product,
// summed coherently.
func (ev *Evaluator) transformNoise(ct *Ciphertext, scale *big.Rat, terms int, rotBits float64) float64 {
	perTerm := addNoiseBits(
		addNoiseBits(ct.NoiseBits, rotBits)+core.RatLog2(scale),
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
	// Every rotation divides by P before its product: the whole keyswitch
	// noise, rounding included, reaches each term.
	acc.NoiseBits = ev.transformNoise(ct, scale, len(ds), ev.nm.KeySwitchBits())
	acc.seal()
	return acc, nil
}

// ApplyLinearTransform computes M·v for the encrypted vector v. The input
// must be at lt.Level with the canonical scale; the output carries scale
// ct.Scale * lt.Scale and should be rescaled by the caller.
//
// The evaluation is baby-step/giant-step, double-hoisted: the nonzero
// baby rotations share one ModUp and stop before their ModDown, each
// P·φ_b(ct) plus its keyswitch output in the extended basis, where the
// extended-width diagonals multiply them; a baby-0 diagonal, stored times
// P, multiplies the input at live width, and all of a giant's products
// are one inner product (fused). A nonzero giant ModDowns only
// its C1 accumulator, for its decomposition, and permutes its C0
// accumulator where it lies; the giants' extended-basis results are
// summed and one ModDown ends the apply. An unfactored transform is the
// same with a single giant step, 0; diagonal 0 alone is a plaintext
// product, with no keyswitch and no division. The result is
// value-equivalent to ApplyLinearTransformNaive — same level, scale and
// noise bound — but not bit-identical: hoisting reorders the
// approximate-ModUp rounding and the single division rounds once where
// the naive path rounds per rotation (see DESIGN.md).
//
// The baby rotations and the per-giant accumulations are independent
// and fan out across the execution engine (honoring the evaluator's
// context); the final reduction is ordered, so results are bit-identical
// for any worker count. A canceled context or dropped engine task
// surfaces as an error (fherr.ErrCanceled / fherr.ErrEngineFault) with
// all pooled scratch returned.
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
	if len(lt.galEls) == 0 {
		// Diagonal 0 alone: P·diag·ct would reach the closing ModDown an
		// exact multiple of P, which the rounded division shifts by a
		// constant in every coefficient. A plaintext product divides nothing.
		c0, c1 := ev.polyPairLike(ct)
		ring.MulCoeffsPair(c0, ct.C0, c1, ct.C1, lt.giants[0].terms[0].pt)
		return ev.plainProduct(ct, c0, c1, lt.Scale), nil
	}
	// Declare the plan's whole key demand up front: with a key manager
	// the transform's rotation keys are pinned resident for the duration
	// of the evaluation, so the per-step keyswitches hit a stable working
	// set instead of re-streaming keys mid-plan.
	releaseKeys, err := ev.PinGaloisKeys("ApplyLinearTransform", lt.galEls)
	if err != nil {
		return nil, err
	}
	defer releaseKeys()
	ctx := ev.params.Ctx
	live := ct.C0.Moduli

	// Baby steps, indexed like lt.babies (baby 0, the input itself, is
	// read at live width and has no entry).
	babies := make([]extPair, len(lt.babies))
	defer func() {
		for _, b := range babies {
			b.free(ctx)
		}
	}()
	first := 0
	if lt.babies[0] == 0 {
		first = 1
	}
	if nb := len(lt.babies) - first; nb > 0 {
		hd := ev.hoist(ct)
		defer hd.Free(ctx)
		if err := ev.fanOut(nb, live, func(i int) (err error) {
			// The nonzero babies lead lt.galEls.
			babies[first+i], err = ev.rotateExt("ApplyLinearTransform", hd, lt.galEls[i])
			return err
		}); err != nil {
			return nil, err
		}
	}

	// Giant steps: each accumulates its diagonals' products in the
	// extended basis and, when nonzero, rotates the sum there.
	parts := make([]extPair, len(lt.giants))
	defer func() {
		for _, part := range parts {
			part.free(ctx)
		}
	}()
	if err := ev.fanOut(len(lt.giants), live, func(gi int) (err error) {
		parts[gi], err = ev.giantStep(ct, lt, &lt.giants[gi], babies)
		return err
	}); err != nil {
		return nil, err
	}

	// Ordered reduction keeps the result independent of scheduling: sum
	// the extended-basis pairs in ascending giant order (exact mod-q
	// adds), then divide by P once.
	sum := parts[0]
	for _, part := range parts[1:] {
		ev.addPair(sum.c0, sum.c1, part.c0, part.c1)
	}
	parts[0] = extPair{}
	outs := ev.modDown(live, sum.c0, sum.c1)
	// A baby rotation reaches its products before any division: only its
	// inner-product noise is multiplied by the diagonals. The rounding is
	// paid once, by the closing ModDown, and the giants' keyswitches act
	// on the products' sum; both land at the output unamplified.
	nm := ev.nm
	noise := addNoiseBits(ev.transformNoise(ct, lt.Scale, lt.diags, nm.KeySwitchBits()-nm.RescaleFloorBits()), nm.KeySwitchBits())
	return newCiphertext(outs[0], outs[1], ct.Level, new(big.Rat).Mul(ct.Scale, lt.Scale), noise), nil
}

// giantStep evaluates one inner sum of the factorization and, for a
// nonzero giant g, rotates it by g, all in the extended basis: each
// diagonal multiplies its baby rotation — the baby-0 diagonal, stored
// times P at live width, multiplies the input itself, which lands on the
// live rows of P·ct — and the rotation ModDowns only the C1 accumulator,
// the one it decomposes, while the C0 accumulator is the decomposition's
// P·c0, which rotateExt permutes where it lies.
// Fused, the diagonals' products are one inner product, reduced once per
// coefficient; staged, each is its own product pass.
func (ev *Evaluator) giantStep(ct *Ciphertext, lt *LinearTransform, giant *giantStep, babies []extPair) (extPair, error) {
	ctx := ev.params.Ctx
	live := ct.C0.Moduli
	ext := ev.ksPlan(live).ext
	var acc extPair
	operands := func(term babyTerm) (x0, x1 *ring.Poly) {
		if lt.babies[term.baby] == 0 {
			return ct.C0, ct.C1
		}
		return babies[term.baby].c0, babies[term.baby].c1
	}
	if ev.fused {
		acc = extPair{ctx.GetPoly(ext), ctx.GetPoly(ext)}
		acc.c0.IsNTT, acc.c1.IsNTT = true, true
		terms := make([]ring.Term, len(giant.terms))
		for i, term := range giant.terms {
			x0, x1 := operands(term)
			terms[i] = ring.Term{X: term.pt, Y0: x0, Y1: x1}
		}
		ring.InnerProduct(acc.c0, acc.c1, 1, terms)
	} else {
		acc = extPair{ctx.GetPolyZero(ext), ctx.GetPolyZero(ext)}
		acc.c0.IsNTT, acc.c1.IsNTT = true, true
		for _, term := range giant.terms {
			x0, x1 := operands(term)
			acc.c0.RestrictView(term.pt.Moduli).MulCoeffsAdd(x0, term.pt)
			acc.c1.RestrictView(term.pt.Moduli).MulCoeffsAdd(x1, term.pt)
		}
	}
	if giant.g == 0 {
		return acc, nil
	}
	c1 := ev.modDown(live, acc.c1)[0]
	hd := ev.decomposePoly(c1)
	ctx.PutPoly(c1)
	hd.c0 = acc.c0
	defer hd.Free(ctx)
	return ev.rotateExt("ApplyLinearTransform", hd, ring.GaloisElementForRotation(giant.g, ev.params.N()))
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
