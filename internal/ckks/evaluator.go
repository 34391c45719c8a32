package ckks

import (
	"context"
	"encoding/binary"
	"math"
	"math/big"
	"slices"
	"sync"

	"bitpacker/internal/core"
	"bitpacker/internal/engine"
	"bitpacker/internal/fherr"
	"bitpacker/internal/ring"
	"bitpacker/internal/rns"
)

// Evaluator performs homomorphic operations. It is bound to one parameter
// set and one key store. The level-management backend (classic
// RNS-CKKS vs BitPacker) is selected by the chain's Scheme.
//
// Every operation returns a wrapped error from the internal/fherr
// taxonomy instead of panicking; the Must* wrappers in must.go are the
// only panic boundary. WithContext derives an evaluator whose long
// fan-outs honor cancellation; SetInvariantChecks and SetNoiseGuard
// enable the Validate() entry checks and the noise-budget guard.
type Evaluator struct {
	params *Parameters
	nm     *NoiseModel

	// km is the one source of switching keys: a closed set, or a budgeted
	// cache that generates keys from the secret key on demand (see
	// KeyManager). nil serves no key at all.
	km *KeyManager

	// ctx, when non-nil, is checked at operation entry and threaded
	// through engine fan-outs (BSGS transforms, bootstrap).
	ctx context.Context
	// checkInvariants runs Ciphertext.Validate on operands at entry.
	checkInvariants bool
	// guardBits > 0 arms the noise-budget guard: operations whose output
	// retains fewer than guardBits bits of budget fail with
	// fherr.ErrNoiseBudget.
	guardBits float64

	// fused selects the fused-kernel hot paths (MulRelin, Rescale,
	// Adjust, MulRescale, keyswitching, BSGS): per-residue stage chains
	// run as one work item per residue and independent ciphertext ops
	// batch into single fork/joins. The unfused twins are kept as the
	// stage-by-stage baseline; both produce bit-identical results (see
	// DESIGN.md and the engine_diff tests).
	fused bool

	caches *evalCaches
}

// evalCaches holds the read-mostly precomputation caches, shared between
// an evaluator and its WithContext derivatives. The read path takes only
// the shared lock so concurrent evaluations don't serialize on hits.
type evalCaches struct {
	mu      sync.RWMutex
	lvCache map[string]*levelPlan // level changes, keyed basis|target moduli
	ksCache map[string]*ksPlan    // keyswitch layouts, keyed by live basis
}

// cached returns m[key], building and storing it on first use. The key
// bytes never leave the caller's stack on a hit (a string(key) map index
// does not allocate), which is what keeps the per-op lookups free.
func cached[V any](cc *evalCaches, m map[string]V, key []byte, build func() (V, error)) (V, error) {
	cc.mu.RLock()
	v, ok := m[string(key)]
	cc.mu.RUnlock()
	if ok {
		return v, nil
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if v, ok := m[string(key)]; ok {
		return v, nil
	}
	v, err := build()
	if err == nil {
		m[string(key)] = v
	}
	return v, err
}

// NewEvaluator creates an evaluator drawing its switching keys from km.
// Invariant checking starts disabled (see SetInvariantChecks); the fused
// hot paths start enabled (see SetFused).
func NewEvaluator(params *Parameters, km *KeyManager) *Evaluator {
	return &Evaluator{
		params: params,
		km:     km,
		nm:     NewNoiseModel(params),
		fused:  true,
		caches: &evalCaches{
			lvCache: map[string]*levelPlan{},
			ksCache: map[string]*ksPlan{},
		},
	}
}

// SetKeyManager replaces the evaluator's key store. Results are
// bit-identical whichever store serves the keys.
func (ev *Evaluator) SetKeyManager(km *KeyManager) { ev.km = km }

// KeyManager returns the evaluator's key store.
func (ev *Evaluator) KeyManager() *KeyManager { return ev.km }

// SetFused selects between the fused-kernel hot paths (default) and the
// stage-by-stage unfused baseline. Results are bit-identical either way;
// the toggle exists for differential testing and benchmarking.
func (ev *Evaluator) SetFused(on bool) { ev.fused = on }

// Fused reports whether the fused hot paths are active.
func (ev *Evaluator) Fused() bool { return ev.fused }

// Params returns the evaluator's parameter set.
func (ev *Evaluator) Params() *Parameters { return ev.params }

// WithContext returns an evaluator sharing this one's keys and caches
// whose operations observe ctx: once ctx is canceled or expires, entry
// points and engine fan-outs return an error wrapping fherr.ErrCanceled
// within one dispatch quantum, with pooled scratch returned.
func (ev *Evaluator) WithContext(ctx context.Context) *Evaluator {
	ev2 := *ev
	ev2.ctx = ctx
	return &ev2
}

// SetInvariantChecks toggles Ciphertext.Validate at operation entry
// (Config.CheckInvariants on the public API).
func (ev *Evaluator) SetInvariantChecks(on bool) { ev.checkInvariants = on }

// SetNoiseGuard arms the noise-budget guard: operations whose output
// retains fewer than bits bits of budget (log2(scale) - log2(noise
// bound)) fail with an error wrapping fherr.ErrNoiseBudget. bits <= 0
// disarms the guard.
func (ev *Evaluator) SetNoiseGuard(bits float64) { ev.guardBits = bits }

// NoiseBudget returns the remaining noise budget of ct in bits:
// log2(scale) - log2(estimated noise bound). Values near or below zero
// mean decryption yields garbage.
func (ev *Evaluator) NoiseBudget(ct *Ciphertext) float64 {
	return core.RatLog2(ct.Scale) - ct.NoiseBits
}

// begin is the common operation prologue: context check, RRNS
// range-scan with in-place single-residue repair (when the chain carries
// a spare), then (when enabled) operand invariant validation.
func (ev *Evaluator) begin(op string, cts ...*Ciphertext) error {
	if ev.ctx != nil {
		if err := ev.ctx.Err(); err != nil {
			return fherr.Wrap(fherr.ErrCanceled, "ckks: %s (%v)", op, err)
		}
	}
	if ev.rrnsEnabled() {
		if err := ev.scanRepair(op, cts...); err != nil {
			return err
		}
	}
	if ev.checkInvariants {
		for _, ct := range cts {
			if err := ct.Validate(ev.params); err != nil {
				return fherr.Wrap(err, "ckks: %s operand", op)
			}
		}
	}
	return nil
}

// guardNoise enforces the noise-budget guard on an operation output.
func (ev *Evaluator) guardNoise(op string, out *Ciphertext) error {
	if ev.guardBits <= 0 {
		return nil
	}
	budget := ev.NoiseBudget(out)
	if budget >= ev.guardBits {
		return nil
	}
	action := "rescale"
	switch {
	case out.Level == 0:
		action = "bootstrap"
	case scaleAlmostEqual(out.Scale, ev.params.DefaultScale(out.Level)):
		// Scale already canonical: rescaling would shrink the budget
		// further; dropping levels cannot restore precision either.
		action = "adjust or bootstrap"
	}
	return &fherr.NoiseBudgetError{Op: op, BudgetBits: budget, GuardBits: ev.guardBits, Action: action}
}

// moduliKey appends the cache key of the modulus lists a|b to buf.
func moduliKey(buf []byte, a, b []uint64) []byte {
	for _, q := range a {
		buf = binary.LittleEndian.AppendUint64(buf, q)
	}
	buf = append(buf, '|')
	for _, q := range b {
		buf = binary.LittleEndian.AppendUint64(buf, q)
	}
	return buf
}

// ksPlan is the layout of a hybrid keyswitch over one live basis: the
// extended basis live++special, each digit's rows and ModUp conversion,
// and the ModDown transition back to live. It depends on nothing but the
// basis, so it is built once and shared by every keyswitch at that level.
type ksPlan struct {
	ext     []uint64
	digits  []ksDigit // indexed by digit; conv is nil when it has no live rows
	modDown *ring.ScaleDownParams
}

type ksDigit struct {
	own  []int     // the digit's rows of live — and of ext, which extends live
	rest []int     // every other row of ext: what the conversion fills
	conv *rns.Conv // own moduli -> rest moduli
}

func (ev *Evaluator) ksPlan(live []uint64) *ksPlan {
	var buf [512]byte
	pl, _ := cached(ev.caches, ev.caches.ksCache, moduliKey(buf[:0], live, nil), func() (*ksPlan, error) {
		p := ev.params
		special := p.Chain.Special
		pl := &ksPlan{
			ext:    append(append([]uint64(nil), live...), special...),
			digits: make([]ksDigit, p.Dnum),
		}
		for r, q := range live {
			d := &pl.digits[p.DigitOf(q)]
			d.own = append(d.own, r)
		}
		for d := range pl.digits {
			dg := &pl.digits[d]
			if len(dg.own) == 0 {
				continue
			}
			var src, dst []uint64
			for r, q := range pl.ext {
				if slices.Contains(dg.own, r) {
					src = append(src, q)
				} else {
					dg.rest = append(dg.rest, r)
					dst = append(dst, q)
				}
			}
			dg.conv = rns.NewConv(src, dst)
		}
		shedPos := make([]int, len(special))
		for i := range shedPos {
			shedPos[i] = len(live) + i
		}
		pl.modDown = ring.NewScaleDownParams(pl.ext, shedPos)
		return pl, nil
	})
	return pl
}

// ---------------------------------------------------------------------------
// Linear operations
// ---------------------------------------------------------------------------

func checkCompatible(op string, a, b *Ciphertext) error {
	if a.Level != b.Level {
		return fherr.Wrap(fherr.ErrLevelMismatch, "ckks: %s: level %d vs %d (adjust first)", op, a.Level, b.Level)
	}
	if !scaleAlmostEqual(a.Scale, b.Scale) {
		return fherr.Wrap(fherr.ErrScaleMismatch, "ckks: %s: scale 2^%.3f vs 2^%.3f (adjust first)",
			op, core.RatLog2(a.Scale), core.RatLog2(b.Scale))
	}
	return nil
}

// polyPairLike returns two pooled polynomials shaped like ct's
// components. The caller must fully overwrite both (pair kernels do).
func (ev *Evaluator) polyPairLike(ct *Ciphertext) (*ring.Poly, *ring.Poly) {
	c0 := ev.params.Ctx.GetPoly(ct.C0.Moduli)
	c0.IsNTT = ct.C0.IsNTT
	c1 := ev.params.Ctx.GetPoly(ct.C1.Moduli)
	c1.IsNTT = ct.C1.IsNTT
	return c0, c1
}

// plainOperand returns pt's rows over moduli in the NTT domain: a
// zero-copy alias when it is already transformed (a plaintext encoded
// for reuse is), a pooled fused copy+NTT otherwise — a view of the
// leading rows when pt carries more (a plaintext encoded over
// live++special read at live width). release reports whether the caller
// must PutPoly the result.
func (ev *Evaluator) plainOperand(pt *Plaintext, moduli []uint64) (m *ring.Poly, release bool) {
	m = pt.Value
	if len(m.Moduli) != len(moduli) {
		m = m.RestrictView(moduli)
	}
	if m.IsNTT {
		return m, false
	}
	return m.ScratchCopyNTT(), true
}

// Add returns a + b (same level and scale required; use Adjust otherwise).
// Both component sums run in one fork/join on pooled output rows — no
// intermediate full copy of a.
func (ev *Evaluator) Add(a, b *Ciphertext) (*Ciphertext, error) {
	if err := ev.begin("Add", a, b); err != nil {
		return nil, err
	}
	if err := checkCompatible("Add", a, b); err != nil {
		return nil, err
	}
	c0, c1 := ev.polyPairLike(a)
	ring.AddPair(c0, a.C0, b.C0, c1, a.C1, b.C1)
	out := newCiphertext(c0, c1, a.Level, new(big.Rat).Set(a.Scale), addNoiseBits(a.NoiseBits, b.NoiseBits))
	ev.spareCombineInto(out, a, b, false)
	return out, nil
}

// Sub returns a - b.
func (ev *Evaluator) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	if err := ev.begin("Sub", a, b); err != nil {
		return nil, err
	}
	if err := checkCompatible("Sub", a, b); err != nil {
		return nil, err
	}
	c0, c1 := ev.polyPairLike(a)
	ring.SubPair(c0, a.C0, b.C0, c1, a.C1, b.C1)
	out := newCiphertext(c0, c1, a.Level, new(big.Rat).Set(a.Scale), addNoiseBits(a.NoiseBits, b.NoiseBits))
	ev.spareCombineInto(out, a, b, true)
	return out, nil
}

// Neg returns -a.
func (ev *Evaluator) Neg(a *Ciphertext) (*Ciphertext, error) {
	if err := ev.begin("Neg", a); err != nil {
		return nil, err
	}
	c0, c1 := ev.polyPairLike(a)
	ring.NegPair(c0, a.C0, c1, a.C1)
	out := newCiphertext(c0, c1, a.Level, new(big.Rat).Set(a.Scale), a.NoiseBits)
	ev.spareNegInto(out, a)
	return out, nil
}

// AddPlain returns ct + pt; the plaintext must be encoded at ct's level
// with ct's scale.
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if err := ev.begin("AddPlain", ct); err != nil {
		return nil, err
	}
	if pt.Level != ct.Level {
		return nil, fherr.Wrap(fherr.ErrLevelMismatch, "ckks: AddPlain: plaintext level %d vs ciphertext %d", pt.Level, ct.Level)
	}
	if !scaleAlmostEqual(ct.Scale, pt.Scale) {
		return nil, fherr.Wrap(fherr.ErrScaleMismatch, "ckks: AddPlain: plaintext scale 2^%.3f vs ciphertext 2^%.3f",
			core.RatLog2(pt.Scale), core.RatLog2(ct.Scale))
	}
	m, release := ev.plainOperand(pt, ct.C0.Moduli)
	c0, c1 := ev.polyPairLike(ct)
	// Only C0 changes; C1 is copied in the same fork/join. The spare
	// channel is not tracked across plaintext addition, so the output
	// starts stale.
	ring.AddCopyPair(c0, ct.C0, m, c1, ct.C1)
	if release {
		ev.params.Ctx.PutPoly(m)
	}
	noise := addNoiseBits(ct.NoiseBits, ev.nm.EncodingBits())
	return newCiphertext(c0, c1, ct.Level, new(big.Rat).Set(ct.Scale), noise), nil
}

// MulPlain returns ct * pt elementwise. The result's scale is the product
// of the scales; rescale afterwards.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if err := ev.begin("MulPlain", ct); err != nil {
		return nil, err
	}
	if pt.Level != ct.Level {
		return nil, fherr.Wrap(fherr.ErrLevelMismatch, "ckks: MulPlain: plaintext level %d vs ciphertext %d", pt.Level, ct.Level)
	}
	m, release := ev.plainOperand(pt, ct.C0.Moduli)
	c0, c1 := ev.polyPairLike(ct)
	// Both pointwise products share one fork/join; the NTT products are
	// not tracked by the spare algebra, so the output starts stale.
	ring.MulCoeffsPair(c0, ct.C0, c1, ct.C1, m)
	if release {
		ev.params.Ctx.PutPoly(m)
	}
	return ev.plainProduct(ct, c0, c1, pt.Scale), nil
}

// plainProduct wraps the components of ct times a plaintext of the given
// scale. pt·e_ct dominates the noise; the encoding rounding of pt is
// amplified by the ciphertext's scale.
func (ev *Evaluator) plainProduct(ct *Ciphertext, c0, c1 *ring.Poly, ptScale *big.Rat) *Ciphertext {
	return newCiphertext(c0, c1, ct.Level, new(big.Rat).Mul(ct.Scale, ptScale), ev.plainProductNoise(ct.Scale, ct.NoiseBits, ptScale))
}

// plainProductNoise is plainProduct's noise estimate for a ciphertext of
// the given scale and noise.
func (ev *Evaluator) plainProductNoise(ctScale *big.Rat, ctNoise float64, ptScale *big.Rat) float64 {
	return addNoiseBits(ctNoise+core.RatLog2(ptScale), core.RatLog2(ctScale)+ev.nm.EncodingBits())
}

// constOperand is the prologue of the scalar operations: begin, then what
// a real constant replicated in every slot encodes to at the given scale
// — the constant polynomial round(v·scale): one integer, the same word at
// every evaluation point of a residue row. A constant therefore costs no
// encoder FFT, no per-coefficient big.Int reduction and no transform.
func (ev *Evaluator) constOperand(op string, ct *Ciphertext, v float64, scale *big.Rat) (*big.Int, error) {
	if err := ev.begin(op, ct); err != nil {
		return nil, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "ckks: %s: constant is not finite", op)
	}
	const prec = 256
	f := new(big.Float).SetPrec(prec).SetFloat64(v)
	return roundToBig(f.Mul(f, new(big.Float).SetPrec(prec).SetRat(scale))), nil
}

// AddConst returns ct + v in every slot: AddPlain for a plaintext that is
// one number, added to C0 at ct's scale.
func (ev *Evaluator) AddConst(ct *Ciphertext, v float64) (*Ciphertext, error) {
	c, err := ev.constOperand("AddConst", ct, v, ct.Scale)
	if err != nil {
		return nil, err
	}
	c0, c1 := ev.polyPairLike(ct)
	ring.AddScalarBigCopyPair(c0, ct.C0, c1, ct.C1, c)
	noise := addNoiseBits(ct.NoiseBits, ev.nm.EncodingBits())
	return newCiphertext(c0, c1, ct.Level, new(big.Rat).Set(ct.Scale), noise), nil
}

// MulConst returns ct·v in every slot, v taken at the level's default
// scale as MulPlain's operands are; rescale afterwards. Both components
// take a per-residue Shoup scalar multiply.
func (ev *Evaluator) MulConst(ct *Ciphertext, v float64) (*Ciphertext, error) {
	scale := ev.params.DefaultScale(ct.Level)
	c, err := ev.constOperand("MulConst", ct, v, scale)
	if err != nil {
		return nil, err
	}
	c0, c1 := ev.polyPairLike(ct)
	ring.MulScalarBigPair(c0, ct.C0, c1, ct.C1, c)
	return ev.plainProduct(ct, c0, c1, scale), nil
}

// MulScalarInt multiplies by a small integer constant (scale unchanged).
func (ev *Evaluator) MulScalarInt(ct *Ciphertext, c int64) (*Ciphertext, error) {
	if err := ev.begin("MulScalarInt", ct); err != nil {
		return nil, err
	}
	c0, c1 := ev.polyPairLike(ct)
	ring.MulScalarBigPair(c0, ct.C0, c1, ct.C1, new(big.Int).SetInt64(c))
	noise := ct.NoiseBits
	if abs := math.Abs(float64(c)); abs > 1 {
		noise = ct.NoiseBits + math.Log2(abs)
	}
	out := newCiphertext(c0, c1, ct.Level, new(big.Rat).Set(ct.Scale), noise)
	ev.spareMulScalarIntInto(out, ct, c)
	return out, nil
}

// ---------------------------------------------------------------------------
// Multiplication and keyswitching
// ---------------------------------------------------------------------------

// MulRelin multiplies two ciphertexts and relinearizes back to degree one.
// The output scale is Scale(a)*Scale(b); callers follow with Rescale.
func (ev *Evaluator) MulRelin(a, b *Ciphertext) (*Ciphertext, error) {
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
	p := ev.params

	d0, d1, d2 := ev.tensor(a, b)
	ks0, ks1 := ev.keySwitch(d2, rlk)
	p.Ctx.PutPoly(d2)
	ev.addPair(d0, d1, ks0, ks1)
	p.Ctx.PutPoly(ks0)
	p.Ctx.PutPoly(ks1)

	scale, noise := ev.productBookkeeping(a, b)
	out := newCiphertext(d0, d1, a.Level, scale, noise)
	if err := ev.guardNoise("MulRelin", out); err != nil {
		return nil, err
	}
	return out, nil
}

// productBookkeeping is the scale and noise of the product of a and b.
func (ev *Evaluator) productBookkeeping(a, b *Ciphertext) (*big.Rat, float64) {
	return new(big.Rat).Mul(a.Scale, b.Scale),
		ev.nm.MulBits(core.RatLog2(a.Scale), a.NoiseBits, core.RatLog2(b.Scale), b.NoiseBits)
}

// tensor returns the degree-two product (d0, d1, d2) of a and b, pooled
// and in the NTT domain. The products fully overwrite their destinations,
// so non-zeroed pooled polys are safe.
func (ev *Evaluator) tensor(a, b *Ciphertext) (d0, d1, d2 *ring.Poly) {
	ctx := ev.params.Ctx
	moduli := a.C0.Moduli
	d0 = ctx.GetPoly(moduli)
	d0.IsNTT = true
	d1 = ctx.GetPoly(moduli)
	d1.IsNTT = true
	d2 = ctx.GetPoly(moduli)
	d2.IsNTT = true
	if ev.fused {
		// All three tensor components in one fork/join; the cross term
		// accumulates a0·b1 + a1·b0 per coefficient without a scratch poly.
		ring.MulRelinProducts(d0, d1, d2, a.C0, a.C1, b.C0, b.C1)
		return d0, d1, d2
	}
	d0.MulCoeffs(a.C0, b.C0)
	d1.MulCoeffs(a.C0, b.C1)
	tmp := ctx.GetPoly(moduli)
	tmp.IsNTT = true
	tmp.MulCoeffs(a.C1, b.C0)
	d1.Add(d1, tmp)
	ctx.PutPoly(tmp)
	d2.MulCoeffs(a.C1, b.C1)
	return d0, d1, d2
}

// Square is MulRelin(ct, ct), all four pointwise multiplies included: a
// squaring tensor step (d1 = 2·a0⊙a1) saves under 1 % of the operation.
func (ev *Evaluator) Square(ct *Ciphertext) (*Ciphertext, error) {
	return ev.MulRelin(ct, ct)
}

// HoistedDecomp is the reusable first half of a hybrid keyswitch: the
// digit decomposition of a polynomial, basis-extended (ModUp) from its
// live moduli to live+special. Producing it costs one INTT plus one
// approximate basis conversion per digit — the dominant O(R²·N) part of a
// keyswitch — and it can then be consumed by many switching keys and
// Galois automorphisms (hoisting, HS18 / ARK-style inter-op reuse).
//
// The digits are kept in the coefficient domain so a Galois automorphism
// (a signed coefficient permutation, which commutes with the per-residue
// digit selection) can still be applied per rotation before the NTT and
// inner product.
type HoistedDecomp struct {
	live   []uint64
	ext    []uint64
	digits []*ring.Poly // indexed by digit; nil when the digit has no rows
	// c0 is the non-switched half each hoisted rotation permutes: the
	// input's C0 as DecomposeModUp snapshots it, or P·C0 over the
	// extended basis for RotateHoistedMulRescale. Decompositions of other
	// polynomials leave it nil.
	c0    *ring.Poly
	level int
	scale *big.Rat
	noise float64
}

// Free returns the decomposition's scratch polynomials to the context
// pool. The decomposition must not be used afterwards.
func (hd *HoistedDecomp) Free(ctx *ring.Context) {
	for _, d := range hd.digits {
		if d != nil {
			ctx.PutPoly(d)
		}
	}
	hd.digits = nil
	if hd.c0 != nil {
		ctx.PutPoly(hd.c0)
		hd.c0 = nil
	}
}

// decomposePoly computes the digit decomposition + ModUp of c2 (NTT domain
// over the current level moduli). This is the per-input half of keySwitch;
// keySwitchHoisted is the per-key half.
func (ev *Evaluator) decomposePoly(c2 *ring.Poly) *HoistedDecomp {
	var hd *HoistedDecomp
	var c2c *ring.Poly
	if ev.fused {
		c2c = c2.ScratchCopyINTT()
		hd = ev.decompose(c2c, c2)
	} else {
		c2c = c2.ScratchCopy()
		c2c.INTT()
		hd = ev.decompose(c2c, nil)
	}
	ev.params.Ctx.PutPoly(c2c)
	return hd
}

// decompose builds the digits of the polynomial whose coefficient-domain
// form is c2c: each digit carries its own rows of the polynomial and the
// ModUp conversion of those rows onto every other row of live++special.
//
// c2n, when non-nil, is the same polynomial in the evaluation domain (the
// fused paths have it at hand: the keyswitch input itself, or its
// PermuteNTT image on the Galois path), and the digits come out in the
// evaluation domain: a digit's own rows are copied from c2n — they are
// NTT(INTT(c2n)) = c2n bit for bit, the transforms being exact inverses —
// and only the converted rows are transformed, |ext|−|own| per digit
// instead of |ext|. Fused consumers want exactly that: a Galois
// automorphism is then a pure permutation of evaluation points, which
// the inner product (ring.InnerProduct) reads in place, so every hoisted
// rotation reuses the digits with zero transforms and zero copies. With
// c2n nil (staged evaluator) the digits stay in the coefficient domain.
// Both inputs are only read.
func (ev *Evaluator) decompose(c2c, c2n *ring.Poly) *HoistedDecomp {
	ctx := ev.params.Ctx
	pl := ev.ksPlan(c2c.Moduli)
	hd := &HoistedDecomp{
		live:   append([]uint64(nil), c2c.Moduli...),
		ext:    pl.ext,
		digits: make([]*ring.Poly, len(pl.digits)),
	}
	own := c2c
	if c2n != nil {
		own = c2n
	}
	// The pooled digit polys are not zeroed: copied and converted rows
	// together cover every row.
	type rowJob struct {
		dst, src []uint64 // src nil: a converted row, to be transformed
		q        uint64
	}
	var jobs []rowJob
	for d := range pl.digits {
		dg := &pl.digits[d]
		if dg.conv == nil {
			continue
		}
		digit := ctx.GetPoly(pl.ext)
		digit.IsNTT = own.IsNTT
		srcRes := make([][]uint64, len(dg.own))
		for i, r := range dg.own {
			srcRes[i] = c2c.Coeffs[r]
			jobs = append(jobs, rowJob{dst: digit.Coeffs[r], src: own.Coeffs[r]})
		}
		dstRes := make([][]uint64, len(dg.rest))
		for i, r := range dg.rest {
			dstRes[i] = digit.Coeffs[r]
			if c2n != nil {
				jobs = append(jobs, rowJob{dst: dstRes[i], q: pl.ext[r]})
			}
		}
		dg.conv.Convert(dstRes, srcRes)
		hd.digits[d] = digit
	}
	// One fork/join over every row of every digit.
	engine.Dispatch(len(jobs), ctx.N, func(t int) {
		if j := &jobs[t]; j.src != nil {
			copy(j.dst, j.src)
		} else {
			ctx.Table(j.q).Forward(j.dst)
		}
	})
	return hd
}

// DecomposeModUp computes the hoisted decomposition of ct's C1 (plus a
// coefficient-domain copy of C0), ready to be consumed by RotateHoisted
// or keySwitchHoisted any number of times. Release it with Free.
func (ev *Evaluator) DecomposeModUp(ct *Ciphertext) (*HoistedDecomp, error) {
	if err := ev.begin("DecomposeModUp", ct); err != nil {
		return nil, err
	}
	hd := ev.decomposePoly(ct.C1)
	var c0 *ring.Poly
	if ev.fused {
		// Evaluation-domain snapshot: each hoisted rotation permutes it in
		// place of an automorphism+NTT — zero transforms per rotation.
		c0 = ct.C0.ScratchCopy()
	} else {
		c0 = ct.C0.ScratchCopy()
		c0.INTT()
	}
	hd.c0 = c0
	hd.level = ct.Level
	hd.scale = new(big.Rat).Set(ct.Scale)
	hd.noise = ct.NoiseBits
	return hd, nil
}

// keySwitchHoisted is the per-key half of a hybrid keyswitch: apply the
// Galois automorphism galEl (1 = identity) to each pre-extended digit,
// inner-multiply with the key, and ModDown (divide the accumulated pair
// by P) back to the live moduli. With galEl == 1 this is bit-identical to
// the unsplit keyswitch. Outputs are in the NTT domain.
func (ev *Evaluator) keySwitchHoisted(hd *HoistedDecomp, swk *SwitchingKey, galEl uint64) (*ring.Poly, *ring.Poly) {
	e0, e1 := ev.keySwitchExt(hd, swk, galEl)
	outs := ev.modDown(hd.live, e0, e1)
	return outs[0], outs[1]
}

// keySwitchExt is the inner-product half of a keyswitch: the accumulated
// pair still in the extended (live+special) basis and the NTT domain,
// scaled by P — no ModDown. A caller about to multiply or sum keyswitch
// outputs (the BSGS apply's babies and giants) keeps them there and
// divides once: mod-q products and sums are exact, so the regrouping is
// value-safe, and one rounding replaces one per term. The returned polys
// are pooled; the caller owns them.
func (ev *Evaluator) keySwitchExt(hd *HoistedDecomp, swk *SwitchingKey, galEl uint64) (*ring.Poly, *ring.Poly) {
	if ev.fused {
		return ev.keySwitchExtFused(hd, swk, galEl)
	}
	return ev.keySwitchExtUnfused(hd, swk, galEl)
}

// keySwitchExtFused is the fused twin of keySwitchExtUnfused: every
// digit's products with the key go into one inner product
// (ring.InnerProduct), one fork/join over the extended rows that sums
// the raw products and reduces each coefficient once per group of digits
// instead of once per digit. A pre-transformed digit is read in place —
// under a Galois map through the gather table — so no digit is copied;
// a seed-compressed key's A rows are regenerated inside the same kernel,
// row by row, and never materialize. Bit-identical to the staged
// pipeline: both are the canonical residues of the same sums.
func (ev *Evaluator) keySwitchExtFused(hd *HoistedDecomp, swk *SwitchingKey, galEl uint64) (*ring.Poly, *ring.Poly) {
	ctx := ev.params.Ctx
	ext := hd.ext
	terms := make([]ring.Term, 0, len(hd.digits))
	var owned []*ring.Poly
	k := galEl
	for d, src := range hd.digits {
		if src == nil {
			continue
		}
		digit := src
		if !src.IsNTT {
			// Coefficient-domain digit (staged decomposition consumed
			// under a fused evaluator): the map and the transform are
			// applied to a copy, and the inner product reads it as is.
			if galEl == 1 {
				digit = src.ScratchCopyNTT()
			} else {
				digit = src.AutomorphismNTT(galEl)
			}
			owned = append(owned, digit)
			k = 1
		}
		// The key rows are only read: alias them instead of copying the
		// whole switching key per digit. Row content of a seed-compressed
		// A depends only on (seed, modulus), so the rows regenerated over
		// ext match the dense key's restricted rows bit for bit.
		t := ring.Term{X: digit, Y0: swk.B[d].RestrictView(ext)}
		if swk.A[d] != nil {
			t.Y1 = swk.A[d].RestrictView(ext)
		} else {
			t.Seed = swk.ASeeds[d]
		}
		terms = append(terms, t)
	}
	acc0 := ctx.GetPoly(ext)
	acc0.IsNTT = true
	acc1 := ctx.GetPoly(ext)
	acc1.IsNTT = true
	ring.InnerProduct(acc0, acc1, k, terms)
	for _, d := range owned {
		ctx.PutPoly(d)
	}
	return acc0, acc1
}

// modDown is the keyswitch ModDown: it divides extended-basis
// polynomials by P and sheds the special moduli, landing back on live,
// all in the NTT domain — the live rows stay put; only the special rows
// are inverse-transformed and only the conversion rows transformed
// forward. It consumes its inputs (returned to the pool).
func (ev *Evaluator) modDown(live []uint64, ps ...*ring.Poly) []*ring.Poly {
	if !ev.fused {
		return ev.modDownUnfused(live, ps)
	}
	outs := ev.ksPlan(live).modDown.ScaleDownNTTBatch(ps)
	for _, p := range ps {
		ev.params.Ctx.PutPoly(p)
	}
	return outs
}

// lift returns each live-basis p as it reads in the extended basis a
// keyswitch output lives in: P·p, with zero special rows. The inputs are
// only read; the outputs are pooled.
func (ev *Evaluator) lift(ps ...*ring.Poly) []*ring.Poly {
	special := ev.params.Chain.Special
	if !ev.fused {
		// ScaleUp by the special primes multiplies by their product P and
		// appends their zero rows.
		outs := make([]*ring.Poly, len(ps))
		for i, p := range ps {
			outs[i] = p.ScaleUp(special)
		}
		return outs
	}
	return ev.params.Ctx.ScaleUpBatch(ps, special, ev.ksPlan(ps[0].Moduli).modDown.P)
}

// addPair sets a0 += b0 and a1 += b1.
func (ev *Evaluator) addPair(a0, a1, b0, b1 *ring.Poly) {
	if ev.fused {
		ring.AddPair(a0, a0, b0, a1, a1, b1)
		return
	}
	a0.Add(a0, b0)
	a1.Add(a1, b1)
}

// keySwitch applies swk to c2 (NTT domain over the current level moduli),
// returning the two correction polynomials over the same moduli.
//
// Hybrid keyswitching: decompose c2 into Dnum digits (grouped by the
// parameter layout), extend each digit from its live moduli to the full
// live+special basis (ModUp, approximate), inner-multiply with the key,
// and divide the accumulated pair by P (ModDown, rounded) to land back
// on the live moduli. The two halves are split so rotation-heavy kernels
// can hoist the decomposition (DecomposeModUp) across many keys.
func (ev *Evaluator) keySwitch(c2 *ring.Poly, swk *SwitchingKey) (*ring.Poly, *ring.Poly) {
	hd := ev.decomposePoly(c2)
	out0, out1 := ev.keySwitchHoisted(hd, swk, 1)
	hd.Free(ev.params.Ctx)
	return out0, out1
}

// ---------------------------------------------------------------------------
// Rotations
// ---------------------------------------------------------------------------

// PinGaloisKeys declares a plan's whole rotation-key demand up front:
// every element in els is served now (ErrMissingKey if the store cannot)
// and, in a budgeted store, pinned resident until the returned release
// runs, so a multi-keyswitch plan (BSGS transform, hoisted rotation
// fan-out, pipeline stage) streams its working set in once instead of
// thrashing the budget key by key.
func (ev *Evaluator) PinGaloisKeys(op string, els []uint64) (func(), error) {
	return ev.km.Pin(ev.ctx, op, els)
}

// applyGalois maps both ciphertext polys through X -> X^galEl and switches
// the key back to s.
//
// Fused path: only C1 leaves the evaluation domain — its permuted
// coefficient form feeds the digit conversions (skipping the legacy
// NTT→INTT round trip, which is exact and therefore bit-identical), its
// permuted evaluation form supplies each digit's own rows. C0 never
// transforms at all: in the NTT domain the automorphism is a pure
// permutation of evaluation points, and the keyswitch corrections come
// back NTT-domain (NTT ModDown), so the fold is a single gather+add.
func (ev *Evaluator) applyGalois(op string, ct *Ciphertext, galEl uint64) (*Ciphertext, error) {
	swk, releaseKey, err := ev.km.Acquire(ev.ctx, op, galEl)
	if err != nil {
		return nil, err
	}
	defer releaseKey()
	if !ev.fused {
		return ev.applyGaloisUnfused(ct, swk, galEl)
	}
	ctx := ev.params.Ctx
	a1c := ring.AutomorphismFromNTTBatch(galEl, ct.C1)[0]
	a1n := ct.C1.PermuteNTT(galEl)
	hd := ev.decompose(a1c, a1n)
	ctx.PutPoly(a1c)
	ctx.PutPoly(a1n)
	ks0, ks1 := ev.keySwitchHoisted(hd, swk, 1)
	hd.Free(ctx)
	// φ(c0) + ks0 computed as one evaluation-domain gather+add: equal
	// bit-for-bit to permuting in the coefficient domain and transforming,
	// because the transform is exactly linear on canonical residues.
	c0 := ct.C0.PermuteNTTAdd(galEl, ks0)
	ctx.PutPoly(ks0)
	noise := addNoiseBits(ct.NoiseBits, ev.nm.KeySwitchBits())
	return newCiphertext(c0, ks1, ct.Level, new(big.Rat).Set(ct.Scale), noise), nil
}

// normalizeSteps reduces a rotation amount into [0, slots).
func normalizeSteps(steps, slots int) int {
	return ((steps % slots) + slots) % slots
}

// Rotate rotates the encrypted slot vector left by steps. A rotation by a
// multiple of the slot count is the identity and returns a copy without
// performing (or requiring a key for) a keyswitch.
func (ev *Evaluator) Rotate(ct *Ciphertext, steps int) (*Ciphertext, error) {
	if err := ev.begin("Rotate", ct); err != nil {
		return nil, err
	}
	if normalizeSteps(steps, ev.params.Slots()) == 0 {
		return ct.CopyNew(), nil
	}
	return ev.applyGalois("Rotate", ct, ring.GaloisElementForRotation(steps, ev.params.N()))
}

// Conjugate conjugates the encrypted slots.
func (ev *Evaluator) Conjugate(ct *Ciphertext) (*Ciphertext, error) {
	if err := ev.begin("Conjugate", ct); err != nil {
		return nil, err
	}
	return ev.applyGalois("Conjugate", ct, ring.GaloisElementForConjugation(ev.params.N()))
}

// rotateHoisted applies one rotation (galEl for nonzero normalized steps)
// to a pre-decomposed ciphertext. The fused path is double-hoisted: the
// digits were transformed once at decomposition, so a rotation is a pure
// evaluation-domain permutation of each digit + inner product + NTT
// ModDown, and the C0 half is a single gather+add — the per-rotation
// transform count drops from O(dnum·ext) to just the ModDown's
// special-row INTTs and conversion-row NTTs.
func (ev *Evaluator) rotateHoisted(hd *HoistedDecomp, steps int) (*Ciphertext, error) {
	galEl := ring.GaloisElementForRotation(steps, ev.params.N())
	swk, releaseKey, err := ev.km.Acquire(ev.ctx, "RotateHoisted", galEl)
	if err != nil {
		return nil, err
	}
	defer releaseKey()
	ks0, ks1 := ev.keySwitchHoisted(hd, swk, galEl)
	c0 := ev.permuteAdd(hd.c0, galEl, ks0)
	ev.params.Ctx.PutPoly(ks0)
	noise := addNoiseBits(hd.noise, ev.nm.KeySwitchBits())
	return newCiphertext(c0, ks1, hd.level, new(big.Rat).Set(hd.scale), noise), nil
}

// permuteAdd returns φ_galEl(a) + b for b in the NTT domain, pooled: one
// evaluation-domain gather+add when a is in the NTT domain too (a
// decomposition's C0 snapshot, a BSGS accumulator), a fused
// permute+transform when it is not (a staged-produced snapshot consumed
// under a fused evaluator).
func (ev *Evaluator) permuteAdd(a *ring.Poly, galEl uint64, b *ring.Poly) *ring.Poly {
	switch {
	case !ev.fused:
		return ev.permuteAddUnfused(a, galEl, b)
	case a.IsNTT:
		return a.PermuteNTTAdd(galEl, b)
	}
	out := a.AutomorphismNTT(galEl)
	out.Add(out, b)
	return out
}

// fanOut is the one keyswitch fan-out (hoisted rotations, BSGS baby and
// giant steps): it runs f(i) for every i in [0, n). The tasks are
// independent — each reads shared inputs and writes only its own slot —
// so under fusion they run as one fork/join honoring the evaluator's
// context, staged one after another; the first error in index order wins
// either way. live is the basis the tasks keyswitch over, for the cost
// hint.
func (ev *Evaluator) fanOut(n int, live []uint64, f func(i int) error) error {
	if !ev.fused || n == 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	cost := ev.params.N() * len(live) * 8 // keyswitch-dominated per task
	if err := engine.DispatchCtx(ev.ctx, n, cost, func(i int) { errs[i] = f(i) }); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RotateHoisted rotates ct by every amount in steps, sharing one digit
// decomposition (ModUp) across all of them: n rotations of the same
// ciphertext cost 1 ModUp + n (automorphism + inner product + ModDown)
// instead of n full keyswitches. Steps are normalized modulo the slot
// count and deduplicated internally; the returned slice is indexed like
// steps, with each entry an independent ciphertext. Rotations by zero (or
// a multiple of the slot count) are plain copies.
//
// The hoisted results are value-equivalent to Rotate's (same level, scale
// and noise bound) but not bit-identical: the approximate ModUp error is
// computed before the automorphism instead of after, which permutes the
// sub-noise rounding. See DESIGN.md.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, steps []int) ([]*Ciphertext, error) {
	if err := ev.begin("RotateHoisted", ct); err != nil {
		return nil, err
	}
	decompose := func() (*HoistedDecomp, error) { return ev.DecomposeModUp(ct) }
	return ev.hoisted("RotateHoisted", ct, steps, decompose, func(hd *HoistedDecomp, step int) (*Ciphertext, error) {
		if step == 0 {
			return ct.CopyNew(), nil
		}
		return ev.rotateHoisted(hd, step)
	})
}

// RotateHoistedMulRescale returns, for every amount in steps,
// Rescale(MulPlain(rot(ct, step), pt)) — the extraction of a packed
// reply — dividing once per output where the two-step path divides
// twice (a ModDown by P, then the rescale). The nonzero steps share one
// ModUp and stop before their ModDown: P·φ(c0) plus the keyswitch
// output, in the extended basis live++special, is multiplied there by
// pt and carried to the level below by one transition that sheds P with
// the level's retired moduli. A zero step is MulPlain+Rescale itself.
// pt must be at ct's level and carry rows over live++special
// (bitpacker's EncodePlain stores them); MulPlain reads its live rows.
//
// Steps are normalized and deduplicated as RotateHoisted's. The outputs
// are value-equivalent to the two-step path's — same level, scale and
// noise bound — but not bit-identical: the division by P rounds inside
// the rescale's. Each output's extended-width scratch is back in the
// pool before the next output starts.
func (ev *Evaluator) RotateHoistedMulRescale(ct *Ciphertext, steps []int, pt *Plaintext) ([]*Ciphertext, error) {
	const op = "RotateHoistedMulRescale"
	if err := ev.begin(op, ct); err != nil {
		return nil, err
	}
	if pt.Level != ct.Level {
		return nil, fherr.Wrap(fherr.ErrLevelMismatch, "ckks: %s: plaintext level %d vs ciphertext %d", op, pt.Level, ct.Level)
	}
	if ct.Level <= 0 {
		return nil, fherr.Wrap(fherr.ErrChainExhausted, "ckks: Rescale at level 0")
	}
	ctx, live := ev.params.Ctx, ct.C0.Moduli
	ks := ev.ksPlan(live)
	if !slices.Equal(pt.Value.Moduli, ks.ext) {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "ckks: %s: plaintext rows are not the level's moduli ++ special", op)
	}
	down, err := ev.levelPlan(live, ct.Level-1)
	if err != nil {
		return nil, err
	}
	extDown, err := ev.levelPlan(ks.ext, ct.Level-1)
	if err != nil {
		return nil, err
	}
	m, release := ev.plainOperand(pt, ks.ext)
	if release {
		defer ctx.PutPoly(m)
	}
	mLive := m.RestrictView(live)
	scale := new(big.Rat).Mul(ct.Scale, pt.Scale)
	noise := ev.plainProductNoise(ct.Scale, ct.NoiseBits, pt.Scale)
	// The extended pair is P·rot(ct)·pt: its scale and noise carry P.
	pScale := new(big.Rat).SetInt(ks.modDown.P)
	extScale := new(big.Rat).Mul(scale, pScale)
	extNoise := ev.plainProductNoise(ct.Scale, addNoiseBits(ct.NoiseBits, ev.nm.KeySwitchBits()), pt.Scale) + core.RatLog2(pScale)
	// The decomposition's C0 is P·c0: φ_g of it is the C0 half of
	// P·rot(ct, g) before the keyswitch output is added.
	decompose := func() (*HoistedDecomp, error) {
		hd := ev.decomposePoly(ct.C1)
		hd.c0 = ev.lift(ct.C0)[0]
		return hd, nil
	}
	return ev.hoisted(op, ct, steps, decompose, func(hd *HoistedDecomp, step int) (*Ciphertext, error) {
		if step == 0 {
			c0, c1 := ev.polyPairLike(ct)
			ring.MulCoeffsPair(c0, ct.C0, c1, ct.C1, mLive)
			return ev.transition(down, c0, c1, true, nil, scale, noise, nil)
		}
		galEl := ring.GaloisElementForRotation(step, ev.params.N())
		swk, releaseKey, err := ev.km.Acquire(ev.ctx, op, galEl)
		if err != nil {
			return nil, err
		}
		defer releaseKey()
		e0, e1 := ev.keySwitchExt(hd, swk, galEl)
		c0 := ev.permuteAdd(hd.c0, galEl, e0)
		ctx.PutPoly(e0)
		ring.MulCoeffsPair(c0, c0, e1, e1, m)
		return ev.transition(extDown, c0, e1, true, nil, extScale, extNoise, nil)
	})
}

// InnerSum folds the first n slots (n a power of two, n ≤ Slots()) so
// that slot i holds the sum of slots i … i+n−1: log2(n) steps adding the
// running sum rotated by 1, 2, 4, … to itself, with one division of C0.
// A step ModDowns only its C1 output, which the next decomposition needs;
// C0 stays in the extended basis as P·c0, where each step adds its
// rotation (permuted in place) and the keyswitch output, and one ModDown
// ends the sum. Value-equivalent to log2(n) Rotate+Add pairs (same level,
// scale and noise bound), not bit-identical: C0 rounds once.
func (ev *Evaluator) InnerSum(ct *Ciphertext, n int) (*Ciphertext, error) {
	if err := ev.begin("InnerSum", ct); err != nil {
		return nil, err
	}
	if n <= 0 || n&(n-1) != 0 || n > ev.params.Slots() {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "ckks: InnerSum width %d must be a power of two <= %d", n, ev.params.Slots())
	}
	if n == 1 {
		return ct, nil
	}
	var els []uint64
	for s := 1; s < n; s <<= 1 {
		els = append(els, ring.GaloisElementForRotation(s, ev.params.N()))
	}
	releaseKeys, err := ev.PinGaloisKeys("InnerSum", els)
	if err != nil {
		return nil, err
	}
	defer releaseKeys()
	ctx, live := ev.params.Ctx, ct.C0.Moduli
	x0, c1 := ev.lift(ct.C0)[0], ct.C1.ScratchCopy()
	noise := ct.NoiseBits
	for _, galEl := range els {
		swk, releaseKey, err := ev.km.Acquire(ev.ctx, "InnerSum", galEl)
		if err != nil {
			ctx.PutPoly(x0)
			ctx.PutPoly(c1)
			return nil, err
		}
		hd := ev.decomposePoly(c1)
		e0, e1 := ev.keySwitchExt(hd, swk, galEl)
		releaseKey()
		hd.Free(ctx)
		r0, r1 := ev.permuteAdd(x0, galEl, e0), ev.modDown(live, e1)[0]
		ctx.PutPoly(e0)
		ev.addPair(x0, c1, r0, r1)
		ctx.PutPoly(r0)
		ctx.PutPoly(r1)
		noise = addNoiseBits(noise, addNoiseBits(noise, ev.nm.KeySwitchBits()))
	}
	return newCiphertext(ev.modDown(live, x0)[0], c1, ct.Level, new(big.Rat).Set(ct.Scale), noise), nil
}

// hoisted is the body RotateHoisted and RotateHoistedMulRescale share:
// normalize and dedupe steps, pin the nonzero steps' keys and decompose
// once when any is nonzero, run one(hd, step) per distinct step as one
// fan-out (hd nil when every step is zero), and hand the results out in
// steps' order — a duplicate step an independent copy.
func (ev *Evaluator) hoisted(op string, ct *Ciphertext, steps []int, decompose func() (*HoistedDecomp, error), one func(hd *HoistedDecomp, step int) (*Ciphertext, error)) ([]*Ciphertext, error) {
	slots := ev.params.Slots()
	var uniq []int
	at := make([]int, len(steps)) // steps[i] is uniq[at[i]]
	index := map[int]int{}
	var els []uint64
	for i, s := range steps {
		n := normalizeSteps(s, slots)
		u, seen := index[n]
		if !seen {
			u = len(uniq)
			index[n] = u
			uniq = append(uniq, n)
			if n != 0 {
				els = append(els, ring.GaloisElementForRotation(n, ev.params.N()))
			}
		}
		at[i] = u
	}
	var hd *HoistedDecomp
	if len(els) > 0 {
		// Declare the whole rotation-key demand before the fan-out: with a
		// key manager the working set is pinned resident across all the
		// rotations instead of being acquired (and possibly evicted and
		// regenerated) once per step.
		releaseKeys, err := ev.PinGaloisKeys(op, els)
		if err != nil {
			return nil, err
		}
		defer releaseKeys()
		if hd, err = decompose(); err != nil {
			return nil, err
		}
		defer hd.Free(ev.params.Ctx)
	}
	results := make([]*Ciphertext, len(uniq))
	if err := ev.fanOut(len(uniq), ct.C0.Moduli, func(i int) (err error) {
		results[i], err = one(hd, uniq[i])
		return err
	}); err != nil {
		return nil, err
	}
	out := make([]*Ciphertext, len(steps))
	used := make([]bool, len(uniq))
	for i, u := range at {
		if out[i] = results[u]; used[u] {
			out[i] = results[u].CopyNew()
		}
		used[u] = true
	}
	return out, nil
}
