package ckks

import (
	"context"
	"encoding/binary"
	"math"
	"math/big"
	"os"
	"slices"
	"sync"

	"bitpacker/internal/core"
	"bitpacker/internal/engine"
	"bitpacker/internal/fherr"
	"bitpacker/internal/ring"
	"bitpacker/internal/rns"
)

// Evaluator performs homomorphic operations. It is bound to one parameter
// set and one evaluation key set. The level-management backend (classic
// RNS-CKKS vs BitPacker) is selected by the chain's Scheme.
//
// Every operation returns a wrapped error from the internal/fherr
// taxonomy instead of panicking; the Must* wrappers in must.go are the
// only panic boundary. WithContext derives an evaluator whose long
// fan-outs honor cancellation; SetInvariantChecks and SetNoiseGuard
// enable the Validate() entry checks and the noise-budget guard.
type Evaluator struct {
	params *Parameters
	keys   *EvaluationKeySet
	nm     *NoiseModel

	// km, when non-nil, replaces the static key set as the source of
	// switching keys: keys are generated lazily from the secret key,
	// demoted to seed-compressed form or evicted under a byte budget, and
	// pinned for the duration of each keyswitch (see KeyManager).
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
	sdCache map[string]*ring.ScaleDownParams // level transitions, keyed moduli|shed
	ksCache map[string]*ksPlan               // keyswitch layouts, keyed by live basis
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

// NewEvaluator creates an evaluator. Invariant checking starts enabled
// when the BITPACKER_CHECK_INVARIANTS environment variable is non-empty;
// the fused hot paths start enabled (see SetFused).
func NewEvaluator(params *Parameters, keys *EvaluationKeySet) *Evaluator {
	return &Evaluator{
		params:          params,
		keys:            keys,
		nm:              NewNoiseModel(params),
		checkInvariants: os.Getenv("BITPACKER_CHECK_INVARIANTS") != "",
		fused:           true,
		caches: &evalCaches{
			sdCache: map[string]*ring.ScaleDownParams{},
			ksCache: map[string]*ksPlan{},
		},
	}
}

// SetKeyManager routes the evaluator's switching-key lookups through a
// budgeted key cache (lazy generation, seed-compressed demotion, LRU
// eviction) instead of the static key set. With a manager installed, any
// Galois element can be served on demand — ErrMissingKey no longer
// occurs for rotations. Results are bit-identical to dense keys.
func (ev *Evaluator) SetKeyManager(km *KeyManager) { ev.km = km }

// KeyManager returns the installed key manager, or nil.
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

// scaleDownParams returns (caching) the scaleDown transition that sheds
// the moduli down from a polynomial over moduli.
func (ev *Evaluator) scaleDownParams(moduli, down []uint64) (*ring.ScaleDownParams, error) {
	var buf [512]byte
	return cached(ev.caches, ev.caches.sdCache, moduliKey(buf[:0], moduli, down), func() (*ring.ScaleDownParams, error) {
		shedPos := make([]int, len(down))
		for i, q := range down {
			if shedPos[i] = slices.Index(moduli, q); shedPos[i] < 0 {
				return nil, fherr.Wrap(fherr.ErrInvariant, "ckks: modulus %d to shed not present in ciphertext", q)
			}
		}
		return ring.NewScaleDownParams(moduli, shedPos), nil
	})
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

// plainOperand returns pt's polynomial in the NTT domain: a zero-copy
// alias when it is already transformed (a plaintext encoded for reuse
// is), a pooled fused copy+NTT otherwise. release reports
// whether the caller must PutPoly the result.
func (ev *Evaluator) plainOperand(pt *Plaintext) (m *ring.Poly, release bool) {
	if pt.Value.IsNTT {
		return pt.Value, false
	}
	return pt.Value.ScratchCopyNTT(), true
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
	m, release := ev.plainOperand(pt)
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
	m, release := ev.plainOperand(pt)
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
	noise := addNoiseBits(ct.NoiseBits+core.RatLog2(ptScale), core.RatLog2(ct.Scale)+ev.nm.EncodingBits())
	return newCiphertext(c0, c1, ct.Level, new(big.Rat).Mul(ct.Scale, ptScale), noise)
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
	rlk, releaseKey, err := ev.relinKey("MulRelin")
	if err != nil {
		return nil, err
	}
	defer releaseKey()
	p := ev.params
	moduli := a.C0.Moduli

	// The degree-two products fully overwrite their destinations, so the
	// non-zeroed pooled polys are safe; d2 (and tmp on the staged path)
	// die inside this call and go back to the pool.
	d0 := p.Ctx.GetPoly(moduli)
	d0.IsNTT = true
	d1 := p.Ctx.GetPoly(moduli)
	d1.IsNTT = true
	d2 := p.Ctx.GetPoly(moduli)
	d2.IsNTT = true
	if ev.fused {
		// All three tensor components in one fork/join; the cross term
		// accumulates a0·b1 + a1·b0 per coefficient without a scratch poly.
		ring.MulRelinProducts(d0, d1, d2, a.C0, a.C1, b.C0, b.C1)
	} else {
		d0.MulCoeffs(a.C0, b.C0)
		d1.MulCoeffs(a.C0, b.C1)
		tmp := p.Ctx.GetPoly(moduli)
		tmp.IsNTT = true
		tmp.MulCoeffs(a.C1, b.C0)
		d1.Add(d1, tmp)
		p.Ctx.PutPoly(tmp)
		d2.MulCoeffs(a.C1, b.C1)
	}

	ks0, ks1 := ev.keySwitch(d2, rlk)
	p.Ctx.PutPoly(d2)
	if ev.fused {
		ring.AddPair(d0, d0, ks0, d1, d1, ks1)
	} else {
		d0.Add(d0, ks0)
		d1.Add(d1, ks1)
	}
	p.Ctx.PutPoly(ks0)
	p.Ctx.PutPoly(ks1)

	scale := new(big.Rat).Mul(a.Scale, b.Scale)
	noise := ev.nm.MulBits(core.RatLog2(a.Scale), a.NoiseBits, core.RatLog2(b.Scale), b.NoiseBits)
	out := newCiphertext(d0, d1, a.Level, scale, noise)
	if err := ev.guardNoise("MulRelin", out); err != nil {
		return nil, err
	}
	return out, nil
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
	// c0 is the input ciphertext's C0 in the coefficient domain (only set
	// by DecomposeModUp), so each hoisted rotation pays one automorphism
	// plus one NTT for the non-switched half instead of INTT+NTT.
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
// automorphism is then a pure permutation of evaluation points
// (ring.PermuteNTT), so every hoisted rotation reuses the digits with
// zero transforms and the galEl==1 inner product aliases them with zero
// copies. With c2n nil (staged evaluator) the digits stay in the
// coefficient domain. Both inputs are only read.
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
	if ev.fused {
		return ev.keySwitchFused(hd, swk, galEl)
	}
	return ev.keySwitchHoistedUnfused(hd, swk, galEl)
}

// keySwitchFused is the fused twin of keySwitchHoistedUnfused: each digit
// is consumed in the evaluation domain (pre-transformed once by the fused
// decomposition, so galEl==1 aliases it copy-free and a Galois map is a
// pure permutation of evaluation points), both inner-product halves share
// one fork/join against the accumulator pair, and the ModDown runs in the
// NTT domain — only the special rows are inverse-transformed and only the
// basis-conversion rows transformed forward, so the live accumulator rows
// never leave the evaluation domain. Bit-identical to the staged pipeline
// — the first digit writes the accumulators directly (AddMod with a zero
// accumulator is the identity), every later stage preserves canonical
// residues, and the transforms are exactly linear.
func (ev *Evaluator) keySwitchFused(hd *HoistedDecomp, swk *SwitchingKey, galEl uint64) (*ring.Poly, *ring.Poly) {
	acc0, acc1 := ev.keySwitchExtFused(hd, swk, galEl)
	return ev.extModDownFused(acc0, acc1, hd.live)
}

// keySwitchExtFused is the inner-product half of the fused keyswitch: it
// returns the accumulated pair still in the extended (live+special) basis
// and the NTT domain, WITHOUT dividing by P. Callers either hand the pair
// to extModDownFused, or — when several keyswitch outputs are about to be
// summed anyway (BSGS giant steps) — add the raw pairs first and ModDown
// once: mod-q addition is exact, so the regrouping is value-safe, and the
// single shared rounding makes the sum cheaper than per-term ModDowns.
// The returned polys are pooled; the caller owns them.
func (ev *Evaluator) keySwitchExtFused(hd *HoistedDecomp, swk *SwitchingKey, galEl uint64) (*ring.Poly, *ring.Poly) {
	p := ev.params
	ext := hd.ext

	acc0 := p.Ctx.GetPoly(ext)
	acc0.IsNTT = true
	acc1 := p.Ctx.GetPoly(ext)
	acc1.IsNTT = true

	first := true
	for d := 0; d < p.Dnum; d++ {
		if hd.digits[d] == nil {
			continue
		}
		var digit *ring.Poly
		owned := true
		switch src := hd.digits[d]; {
		case src.IsNTT && galEl == 1:
			// Pre-transformed digit, identity map: the inner product only
			// reads its rows, so alias it instead of copying.
			digit = src
			owned = false
		case src.IsNTT:
			digit = src.PermuteNTT(galEl)
		case galEl == 1:
			// Coefficient-domain digit (staged decomposition consumed
			// under a fused evaluator): legacy copy+NTT per use.
			digit = src.ScratchCopyNTT()
		default:
			digit = src.AutomorphismNTT(galEl)
		}
		// The key rows are only read: alias them instead of copying the
		// whole switching key per digit.
		kb := swk.B[d].RestrictView(ext)
		if swk.A[d] == nil {
			// Seed-compressed key: the uniform A rows are regenerated from
			// the digit's seed inside the fused dispatch, one residue row
			// at a time — row content depends only on (seed, modulus), so
			// the regenerated sub-basis matches the dense key's restricted
			// rows bit for bit, and A never materializes.
			if first {
				ring.MulCoeffsPairIntoSeeded(acc0, acc1, digit, kb, swk.ASeeds[d])
				first = false
			} else {
				ring.MulCoeffsPairAddSeeded(acc0, acc1, digit, kb, swk.ASeeds[d])
			}
		} else if first {
			ring.MulCoeffsPairInto(acc0, acc1, digit, kb, swk.A[d].RestrictView(ext))
			first = false
		} else {
			ring.MulCoeffsPairAdd(acc0, acc1, digit, kb, swk.A[d].RestrictView(ext))
		}
		if owned {
			p.Ctx.PutPoly(digit)
		}
	}
	if first {
		// No live digit (cannot happen for a well-formed chain, but the
		// pooled accumulators are not zeroed — make the degenerate case
		// match the zero-initialized legacy path).
		for _, a := range []*ring.Poly{acc0, acc1} {
			for _, row := range a.Coeffs {
				for k := range row {
					row[k] = 0
				}
			}
		}
	}
	return acc0, acc1
}

// extModDownFused divides an extended-basis accumulator pair by P and
// sheds the special moduli, landing back on live, all in the NTT domain:
// the live rows stay put; only the special rows are inverse-transformed
// and only the conversion rows transformed forward. It consumes
// acc0/acc1 (returned to the pool).
func (ev *Evaluator) extModDownFused(acc0, acc1 *ring.Poly, live []uint64) (*ring.Poly, *ring.Poly) {
	outs := ev.ksPlan(live).modDown.ScaleDownNTTBatch([]*ring.Poly{acc0, acc1})
	ev.params.Ctx.PutPoly(acc0)
	ev.params.Ctx.PutPoly(acc1)
	return outs[0], outs[1]
}

// keySwitch applies swk to c2 (NTT domain over the current level moduli),
// returning the two correction polynomials over the same moduli.
//
// Hybrid keyswitching: decompose c2 into Dnum digits (grouped by the
// parameter layout), extend each digit from its live moduli to the full
// live+special basis (ModUp, approximate), inner-multiply with the key,
// and divide the accumulated pair by P (ModDown, exact up to the floor
// error) to land back on the live moduli. The two halves are split so
// rotation-heavy kernels can hoist the decomposition (DecomposeModUp)
// across many keys.
func (ev *Evaluator) keySwitch(c2 *ring.Poly, swk *SwitchingKey) (*ring.Poly, *ring.Poly) {
	hd := ev.decomposePoly(c2)
	out0, out1 := ev.keySwitchHoisted(hd, swk, 1)
	hd.Free(ev.params.Ctx)
	return out0, out1
}

// ---------------------------------------------------------------------------
// Rotations
// ---------------------------------------------------------------------------

// noopRelease is the release function for keys served from the static
// key set, which are never demoted or evicted.
func noopRelease() {}

// galoisKey fetches the switching key for galEl, pinned until release is
// called. With a key manager it is generated/promoted on demand; from
// the static key set absence maps onto the typed taxonomy.
func (ev *Evaluator) galoisKey(op string, galEl uint64) (*SwitchingKey, func(), error) {
	if ev.km != nil {
		return ev.km.Acquire(ev.ctx, op, galEl)
	}
	if ev.keys == nil {
		return nil, nil, fherr.Wrap(fherr.ErrMissingKey, "ckks: %s: no evaluation keys", op)
	}
	swk, ok := ev.keys.Galois[galEl]
	if !ok {
		return nil, nil, fherr.Wrap(fherr.ErrMissingKey, "ckks: %s: no Galois key for element %d", op, galEl)
	}
	return swk, noopRelease, nil
}

// relinKey fetches the relinearization key, pinned until release runs.
func (ev *Evaluator) relinKey(op string) (*SwitchingKey, func(), error) {
	if ev.km != nil {
		return ev.km.Acquire(ev.ctx, op, RelinKeyID)
	}
	if ev.keys == nil || ev.keys.Relin == nil {
		return nil, nil, fherr.Wrap(fherr.ErrMissingKey, "ckks: %s: no relinearization key", op)
	}
	return ev.keys.Relin, noopRelease, nil
}

// PinGaloisKeys declares a plan's whole rotation-key demand up front:
// with a key manager, every element in els is pinned resident until the
// returned release runs, so a multi-keyswitch plan (BSGS transform,
// hoisted rotation fan-out, pipeline stage) streams its working set in
// once instead of thrashing the budget key by key. Without a manager it
// is a no-op — static key sets are always resident.
func (ev *Evaluator) PinGaloisKeys(op string, els []uint64) (func(), error) {
	if ev.km == nil {
		return noopRelease, nil
	}
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
	swk, releaseKey, err := ev.galoisKey(op, galEl)
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
	ks0, ks1 := ev.keySwitchFused(hd, swk, 1)
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
	swk, releaseKey, err := ev.galoisKey("RotateHoisted", galEl)
	if err != nil {
		return nil, err
	}
	defer releaseKey()
	if !ev.fused {
		return ev.rotateHoistedUnfused(hd, swk, galEl)
	}
	ks0, ks1 := ev.keySwitchFused(hd, swk, galEl)
	var c0 *ring.Poly
	if hd.c0.IsNTT {
		c0 = hd.c0.PermuteNTTAdd(galEl, ks0)
	} else {
		// Staged-produced decomposition consumed under a fused evaluator:
		// its C0 snapshot is in the coefficient domain.
		c0 = hd.c0.AutomorphismNTT(galEl)
		c0.Add(c0, ks0)
	}
	ev.params.Ctx.PutPoly(ks0)
	noise := addNoiseBits(hd.noise, ev.nm.KeySwitchBits())
	return newCiphertext(c0, ks1, hd.level, new(big.Rat).Set(hd.scale), noise), nil
}

// rotateHoistedSteps is the one rotation fan-out: every step (normalized,
// nonzero, distinct) applied to the shared decomposition, results indexed
// like steps. The rotations are independent — each reads hd and writes
// only its own slot — so under fusion they run as one fork/join instead
// of back to back; the first error in step order wins either way.
func (ev *Evaluator) rotateHoistedSteps(hd *HoistedDecomp, steps []int) ([]*Ciphertext, error) {
	out := make([]*Ciphertext, len(steps))
	errs := make([]error, len(steps))
	rotate := func(i int) { out[i], errs[i] = ev.rotateHoisted(hd, steps[i]) }
	if !ev.fused || len(steps) == 1 {
		for i := range steps {
			if rotate(i); errs[i] != nil {
				return nil, errs[i]
			}
		}
		return out, nil
	}
	cost := ev.params.N() * len(hd.live) * 8 // keyswitch-dominated per rotation
	if err := engine.DispatchCtx(ev.ctx, len(steps), cost, rotate); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
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
	slots := ev.params.Slots()

	// Dedupe the normalized nonzero steps, preserving first-seen order.
	var uniq []int
	index := map[int]int{} // normalized step -> position in uniq
	for _, s := range steps {
		n := normalizeSteps(s, slots)
		if _, seen := index[n]; n != 0 && !seen {
			index[n] = len(uniq)
			uniq = append(uniq, n)
		}
	}

	var rotated []*Ciphertext
	if len(uniq) > 0 {
		// Declare the whole rotation-key demand before the fan-out: with a
		// key manager the working set is pinned resident across all the
		// rotations instead of being acquired (and possibly evicted and
		// regenerated) once per step.
		els := make([]uint64, len(uniq))
		for i, n := range uniq {
			els[i] = ring.GaloisElementForRotation(n, ev.params.N())
		}
		releaseKeys, err := ev.PinGaloisKeys("RotateHoisted", els)
		if err != nil {
			return nil, err
		}
		defer releaseKeys()
		hd, err := ev.DecomposeModUp(ct)
		if err != nil {
			return nil, err
		}
		defer hd.Free(ev.params.Ctx)
		if rotated, err = ev.rotateHoistedSteps(hd, uniq); err != nil {
			return nil, err
		}
	}
	out := make([]*Ciphertext, len(steps))
	used := make([]bool, len(uniq))
	for i, s := range steps {
		n := normalizeSteps(s, slots)
		switch u := index[n]; {
		case n == 0:
			out[i] = ct.CopyNew()
		case !used[u]:
			out[i] = rotated[u]
			used[u] = true
		default: // duplicate step: hand out an independent copy
			out[i] = rotated[u].CopyNew()
		}
	}
	return out, nil
}
