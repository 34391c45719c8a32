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
// and P's residues over live, which lift multiplies by. It depends on
// nothing but the basis, so it is built once and shared by every
// keyswitch at that level.
type ksPlan struct {
	ext    []uint64
	digits []ksDigit // indexed by digit; conv is nil when it has no live rows
	pLive  []uint64  // P mod each live modulus
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
		pl.pLive = residues(p.specialP, live)
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

// polyPairLike returns two pooled polynomials shaped like x0 and x1. The
// caller must fully overwrite both (pair kernels do).
func (ev *Evaluator) polyPairLike(x0, x1 *ring.Poly) (*ring.Poly, *ring.Poly) {
	c0 := ev.params.Ctx.GetPoly(x0.Moduli)
	c0.IsNTT = x0.IsNTT
	c1 := ev.params.Ctx.GetPoly(x1.Moduli)
	c1.IsNTT = x1.IsNTT
	return c0, c1
}

// lifted returns ct's components over the bases pend asks for, a divided
// one that must pend lifted to P·c (pooled, listed in lifts for the
// caller to put back): how a divided operand meets a pending one.
func (ev *Evaluator) lifted(ct *Ciphertext, pend [2]int) (cs [2]*ring.Poly, lifts []*ring.Poly) {
	cs = [2]*ring.Poly{ct.C0, ct.C1}
	for i := range cs {
		if pend[i] > 0 && ct.pend[i] == 0 {
			cs[i] = ev.lift(cs[i])[0]
			lifts = append(lifts, cs[i])
		}
	}
	return cs, lifts
}

// put returns pooled polynomials the caller owns.
func (ev *Evaluator) put(ps ...*ring.Poly) {
	for _, p := range ps {
		ev.params.Ctx.PutPoly(p)
	}
}

// free returns an intermediate ciphertext's rows to the pool: one an
// operation made and handed to no one (nil: nothing).
func (ev *Evaluator) free(ct *Ciphertext) {
	if ct != nil {
		ev.put(ct.C0, ct.C1)
	}
}

// plainOperand returns pt's rows over moduli in the NTT domain: a
// zero-copy alias when it is already transformed (a plaintext encoded
// for reuse is), a pooled fused copy+NTT otherwise — a view of the
// leading rows when pt carries more (a plaintext encoded over
// live++special read at live width, or by a divided ciphertext).
// release reports whether the caller must PutPoly the result.
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
// intermediate full copy of a. A component pends when either operand's
// does; the divided one is lifted to meet it.
func (ev *Evaluator) Add(a, b *Ciphertext) (*Ciphertext, error) {
	return ev.addSub("Add", a, b, false)
}

// Sub returns a - b.
func (ev *Evaluator) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	return ev.addSub("Sub", a, b, true)
}

// addSub is Add (sub false) and Sub.
func (ev *Evaluator) addSub(op string, a, b *Ciphertext, sub bool) (*Ciphertext, error) {
	if err := ev.begin(op, a, b); err != nil {
		return nil, err
	}
	if err := checkCompatible(op, a, b); err != nil {
		return nil, err
	}
	pend := [2]int{max(a.pend[0], b.pend[0]), max(a.pend[1], b.pend[1])}
	x, xl := ev.lifted(a, pend)
	y, yl := ev.lifted(b, pend)
	c0, c1 := ev.polyPairLike(x[0], x[1])
	if sub {
		ring.SubPair(c0, x[0], y[0], c1, x[1], y[1])
	} else {
		ring.AddPair(c0, x[0], y[0], c1, x[1], y[1])
	}
	ev.put(xl...)
	ev.put(yl...)
	out := newCiphertext(c0, c1, a.Level, new(big.Rat).Set(a.Scale), addNoiseBits(a.NoiseBits, b.NoiseBits))
	out.pend = pend
	ev.spareCombineInto(out, a, b, sub)
	return out, nil
}

// Neg returns -a.
func (ev *Evaluator) Neg(a *Ciphertext) (*Ciphertext, error) {
	if err := ev.begin("Neg", a); err != nil {
		return nil, err
	}
	c0, c1 := ev.polyPairLike(a.C0, a.C1)
	ring.NegPair(c0, a.C0, c1, a.C1)
	out := newCiphertext(c0, c1, a.Level, new(big.Rat).Set(a.Scale), a.NoiseBits)
	out.pend = a.pend
	ev.spareNegInto(out, a)
	return out, nil
}

// AddPlain returns ct + pt; the plaintext must be encoded at ct's level
// with ct's scale. A pending ct is settled first.
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if err := ev.begin("AddPlain", ct); err != nil {
		return nil, err
	}
	if ct.pending() {
		s, err := ev.Settle(ct)
		if err != nil {
			return nil, err
		}
		defer ev.free(s)
		ct = s
	}
	if pt.Level != ct.Level {
		return nil, fherr.Wrap(fherr.ErrLevelMismatch, "ckks: AddPlain: plaintext level %d vs ciphertext %d", pt.Level, ct.Level)
	}
	if !scaleAlmostEqual(ct.Scale, pt.Scale) {
		return nil, fherr.Wrap(fherr.ErrScaleMismatch, "ckks: AddPlain: plaintext scale 2^%.3f vs ciphertext 2^%.3f",
			core.RatLog2(pt.Scale), core.RatLog2(ct.Scale))
	}
	m, release := ev.plainOperand(pt, ct.C0.Moduli)
	c0, c1 := ev.polyPairLike(ct.C0, ct.C1)
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
// of the scales; rescale afterwards. A pending ct stays pending, lifted
// where one component is divided, when pt carries rows over the level's
// moduli ++ special (bitpacker's EncodePlain stores them), and is
// settled first otherwise.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if err := ev.begin("MulPlain", ct); err != nil {
		return nil, err
	}
	if pt.Level != ct.Level {
		return nil, fherr.Wrap(fherr.ErrLevelMismatch, "ckks: MulPlain: plaintext level %d vs ciphertext %d", pt.Level, ct.Level)
	}
	x, lifts := [2]*ring.Poly{ct.C0, ct.C1}, []*ring.Poly(nil)
	if ct.pending() {
		if s := len(ev.params.Chain.Special); len(pt.Value.Moduli) == ct.R()+s {
			x, lifts = ev.lifted(ct, [2]int{s, s})
		} else {
			settled, err := ev.Settle(ct)
			if err != nil {
				return nil, err
			}
			defer ev.free(settled)
			x = [2]*ring.Poly{settled.C0, settled.C1}
		}
	}
	m, release := ev.plainOperand(pt, x[0].Moduli)
	c0, c1 := ev.polyPairLike(x[0], x[1])
	// Both pointwise products share one fork/join; the NTT products are
	// not tracked by the spare algebra, so the output starts stale.
	ring.MulCoeffsPair(c0, x[0], c1, x[1], m)
	ev.put(lifts...)
	if release {
		ev.params.Ctx.PutPoly(m)
	}
	return ev.plainProduct(ct, c0, c1, pt.Scale), nil
}

// plainProduct wraps the components of ct times a plaintext of the given
// scale: pending where they are over more rows than ct's level has.
// pt·e_ct dominates the noise; the encoding rounding of pt is amplified
// by the ciphertext's scale.
func (ev *Evaluator) plainProduct(ct *Ciphertext, c0, c1 *ring.Poly, ptScale *big.Rat) *Ciphertext {
	out := newCiphertext(c0, c1, ct.Level, new(big.Rat).Mul(ct.Scale, ptScale), ev.plainProductNoise(ct.Scale, ct.NoiseBits, ptScale))
	r := ct.R()
	out.pend = [2]int{c0.R() - r, c1.R() - r}
	return out
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
// one number, added to C0 at ct's scale — times P to a pending C0, whose
// special rows it leaves as they are (P is zero there).
func (ev *Evaluator) AddConst(ct *Ciphertext, v float64) (*Ciphertext, error) {
	c, err := ev.constOperand("AddConst", ct, v, ct.Scale)
	if err != nil {
		return nil, err
	}
	if ct.pend[0] > 0 {
		c.Mul(c, ev.params.specialP)
	}
	c0, c1 := ev.polyPairLike(ct.C0, ct.C1)
	ring.AddScalarBigCopyPair(c0, ct.C0, c1, ct.C1, c)
	noise := addNoiseBits(ct.NoiseBits, ev.nm.EncodingBits())
	out := newCiphertext(c0, c1, ct.Level, new(big.Rat).Set(ct.Scale), noise)
	out.pend = ct.pend
	return out, nil
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
	c0, c1 := ev.polyPairLike(ct.C0, ct.C1)
	ring.MulScalarBigPair(c0, ct.C0, c1, ct.C1, c)
	return ev.plainProduct(ct, c0, c1, scale), nil
}

// MulScalarInt multiplies by a small integer constant (scale unchanged).
func (ev *Evaluator) MulScalarInt(ct *Ciphertext, c int64) (*Ciphertext, error) {
	if err := ev.begin("MulScalarInt", ct); err != nil {
		return nil, err
	}
	c0, c1 := ev.polyPairLike(ct.C0, ct.C1)
	ring.MulScalarBigPair(c0, ct.C0, c1, ct.C1, new(big.Int).SetInt64(c))
	noise := ct.NoiseBits
	if abs := math.Abs(float64(c)); abs > 1 {
		noise = ct.NoiseBits + math.Log2(abs)
	}
	out := newCiphertext(c0, c1, ct.Level, new(big.Rat).Set(ct.Scale), noise)
	out.pend = ct.pend
	ev.spareMulScalarIntInto(out, ct, c)
	return out, nil
}

// ---------------------------------------------------------------------------
// Multiplication and keyswitching
// ---------------------------------------------------------------------------

// MulRelin multiplies two ciphertexts and relinearizes back to degree one.
// The output scale is Scale(a)*Scale(b); callers follow with Rescale,
// which divides the pending output (see Ciphertext) by P with the
// retired moduli in one division. Pending operands are settled first.
func (ev *Evaluator) MulRelin(a, b *Ciphertext) (*Ciphertext, error) {
	if err := ev.begin("MulRelin", a, b); err != nil {
		return nil, err
	}
	if err := checkCompatible("MulRelin", a, b); err != nil {
		return nil, err
	}
	scale, noise := ev.productBookkeeping(a, b)
	// Guard the product before any work: the output describes it.
	out := &Ciphertext{Level: a.Level, Scale: scale, NoiseBits: noise}
	if err := ev.guardNoise("MulRelin", out); err != nil {
		return nil, err
	}
	x, err := ev.Settle(a)
	if err != nil {
		return nil, err
	}
	if x != a {
		defer ev.free(x)
	}
	y := x
	if b != a {
		if y, err = ev.Settle(b); err != nil {
			return nil, err
		}
		if y != b {
			defer ev.free(y)
		}
	}
	if out.C0, out.C1, err = ev.relinExt(x, y); err != nil {
		return nil, err
	}
	s := len(ev.params.Chain.Special)
	out.pend = [2]int{s, s}
	out.seal()
	return out, nil
}

// relinExt is MulRelin's product: the tensor (d0, d1, d2) of a and b, d2
// switched by the relinearization key, and P·(d0, d1) folded into the
// keyswitch's inner product as one more term — P mod q per live row
// times (d0, d1) — so the pair comes out pending, in the extended basis
// live++special, with no separate lift. The returned pair is pooled and
// the caller's.
func (ev *Evaluator) relinExt(a, b *Ciphertext) (c0, c1 *ring.Poly, err error) {
	rlk, releaseKey, err := ev.km.Acquire(ev.ctx, "MulRelin", RelinKeyID)
	if err != nil {
		return nil, nil, err
	}
	defer releaseKey()
	ctx := ev.params.Ctx
	d0, d1, d2 := ev.tensor(a, b)
	hd := ev.decomposePoly(d2)
	ctx.PutPoly(d2)
	// P as a polynomial: the same word at every evaluation point of a row.
	pLive := ev.ksPlan(d0.Moduli).pLive
	p := ctx.GetPoly(d0.Moduli)
	p.IsNTT = true
	engine.Dispatch(len(pLive), ctx.N, func(i int) {
		for k := range p.Coeffs[i] {
			p.Coeffs[i][k] = pLive[i]
		}
	})
	c0, c1 = ev.keySwitchExt(hd, rlk, 1, ring.Term{X: p, Y0: d0, Y1: d1})
	ev.put(p, d0, d1)
	hd.Free(ctx)
	return c0, c1, nil
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

// HoistedDecomp is a ciphertext ready to be rotated any number of ways.
// Its C1 is held as the reusable first half of a hybrid keyswitch: the
// digit decomposition, basis-extended (ModUp) from the live moduli to
// live++special. Producing it costs one INTT plus one approximate basis
// conversion per digit — the dominant O(R²·N) part of a keyswitch — and
// every rotation then reuses it (hoisting, HS18 / ARK-style inter-op
// reuse). Its C0 is carried as P·c0 in the same extended basis, where
// each rotation permutes it (rotateExt): the ciphertext's own pending C0,
// or its divided C0 lifted.
//
// Fused, the digits are in the evaluation domain: a Galois automorphism
// is then a permutation of evaluation points, which the inner product
// reads in place. Staged, they stay in the coefficient domain and each
// rotation permutes and transforms a copy.
type HoistedDecomp struct {
	ext    []uint64
	digits []*ring.Poly // indexed by digit; nil when the digit has no rows
	// c0 is P·c0 over the extended basis, nil in a decomposition only
	// relinearization reads; lifted reports that it is hoist's scratch
	// rather than the ciphertext's pending C0.
	c0     *ring.Poly
	lifted bool
}

// Free returns the decomposition's scratch polynomials, a lifted c0
// included, to the context pool. The decomposition must not be used
// afterwards.
func (hd *HoistedDecomp) Free(ctx *ring.Context) {
	for _, d := range hd.digits {
		if d != nil {
			ctx.PutPoly(d)
		}
	}
	hd.digits = nil
	if hd.lifted {
		ctx.PutPoly(hd.c0)
	}
	hd.c0 = nil
}

// decomposePoly computes the digit decomposition + ModUp of c2 (NTT domain
// over the current level moduli): the per-input half of a keyswitch,
// keySwitchExt being the per-key half. c2 is only read.
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
// fused decomposePoly has it at hand: the keyswitch input itself), and
// the digits come out in the evaluation domain: a digit's own rows are
// copied from c2n — they are NTT(INTT(c2n)) = c2n bit for bit, the
// transforms being exact inverses — and only the converted rows are
// transformed, |ext|−|own| per digit instead of |ext|. With c2n nil
// (staged evaluator) the digits stay in the coefficient domain. Both
// inputs are only read.
func (ev *Evaluator) decompose(c2c, c2n *ring.Poly) *HoistedDecomp {
	ctx := ev.params.Ctx
	pl := ev.ksPlan(c2c.Moduli)
	hd := &HoistedDecomp{
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

// hoist is the decomposition every rotation of ct starts from: the digits
// of its C1, settled first when it pends, and P·c0 — a pending C0 as it
// is (only read), a divided one lifted.
func (ev *Evaluator) hoist(ct *Ciphertext) (*HoistedDecomp, error) {
	c1 := ct.C1
	if ct.pend[1] > 0 {
		half, err := ev.settle(ct, ct.Level, divC1)
		if err != nil {
			return nil, err
		}
		c1 = half.C1
		defer ev.params.Ctx.PutPoly(c1)
	}
	hd := ev.decomposePoly(c1)
	hd.c0 = ct.C0
	if ct.pend[0] == 0 {
		hd.c0, hd.lifted = ev.lift(ct.C0)[0], true
	}
	return hd, nil
}

// keySwitchExt is the inner-product half of a keyswitch of the
// polynomial hd decomposes, under the Galois map galEl (1 = identity):
// the accumulated pair in the extended (live+special) basis and the NTT
// domain, scaled by P — pending, undivided. Each extra term (galEl 1
// only) adds X⊙Y0 and X⊙Y1 over a prefix of the rows. The returned polys
// are pooled; the caller owns them.
func (ev *Evaluator) keySwitchExt(hd *HoistedDecomp, swk *SwitchingKey, galEl uint64, extra ...ring.Term) (*ring.Poly, *ring.Poly) {
	if ev.fused {
		return ev.keySwitchExtFused(hd, swk, galEl, extra)
	}
	return ev.keySwitchExtUnfused(hd, swk, galEl, extra)
}

// keySwitchExtFused is the fused twin of keySwitchExtUnfused: every
// digit's products with the key go into one inner product
// (ring.InnerProduct), one fork/join over the extended rows that sums
// the raw products and reduces each coefficient once per group of digits
// instead of once per digit. The evaluation-domain digits are read in
// place — under a Galois map through the gather table — so no digit is
// copied; a seed-compressed key's A rows are regenerated inside the same
// kernel, row by row, and never materialize. Bit-identical to the staged
// pipeline: both are the canonical residues of the same sums.
func (ev *Evaluator) keySwitchExtFused(hd *HoistedDecomp, swk *SwitchingKey, galEl uint64, extra []ring.Term) (*ring.Poly, *ring.Poly) {
	ctx := ev.params.Ctx
	ext := hd.ext
	terms := make([]ring.Term, 0, len(hd.digits)+len(extra))
	for d, digit := range hd.digits {
		if digit == nil {
			continue
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
	terms = append(terms, extra...)
	acc0 := ctx.GetPoly(ext)
	acc0.IsNTT = true
	acc1 := ctx.GetPoly(ext)
	acc1.IsNTT = true
	ring.InnerProduct(acc0, acc1, galEl, terms)
	return acc0, acc1
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
	return ev.params.Ctx.ScaleUpBatch(ps, special, ev.ksPlan(ps[0].Moduli).pLive)
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

// Rotate rotates the encrypted slot vector left by steps: the one-step
// case of RotateHoisted, and bit-identical to it. A rotation by a
// multiple of the slot count is the identity and returns a copy without
// performing (or requiring a key for) a keyswitch.
func (ev *Evaluator) Rotate(ct *Ciphertext, steps int) (*Ciphertext, error) {
	if err := ev.begin("Rotate", ct); err != nil {
		return nil, err
	}
	return ev.rotateOne("Rotate", ct, ring.GaloisElementForRotation(steps, ev.params.N()))
}

// Conjugate conjugates the encrypted slots: a one-step hoisted rotation
// by the conjugation element.
func (ev *Evaluator) Conjugate(ct *Ciphertext) (*Ciphertext, error) {
	if err := ev.begin("Conjugate", ct); err != nil {
		return nil, err
	}
	return ev.rotateOne("Conjugate", ct, ring.GaloisElementForConjugation(ev.params.N()))
}

// rotateOne is rotations for a single Galois element.
func (ev *Evaluator) rotateOne(op string, ct *Ciphertext, galEl uint64) (*Ciphertext, error) {
	outs, err := ev.rotations(op, ct, []uint64{galEl})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// rotateExt is the one rotation: P·φ_g(ct) for the ciphertext hd holds,
// pending in the extended basis — φ_g(P·c0), permuted in place, plus the
// keyswitch of φ_g(c1) read from hd's digits — with g's key acquired for
// the duration. Its one division is whichever settle its consumer runs:
// a Rescale that sheds P with the retired moduli (MulRescale,
// RotateHoistedMulRescale, an apply's rescale), a decomposition's C1
// (InnerSum's next step, a BSGS giant), or Settle. hd.c0 is only read;
// the returned pair is pooled and the caller's.
func (ev *Evaluator) rotateExt(op string, hd *HoistedDecomp, galEl uint64) (c0, c1 *ring.Poly, err error) {
	swk, releaseKey, err := ev.km.Acquire(ev.ctx, op, galEl)
	if err != nil {
		return nil, nil, err
	}
	defer releaseKey()
	e0, e1 := ev.keySwitchExt(hd, swk, galEl)
	if ev.fused {
		// One evaluation-domain gather+add: in the NTT domain the
		// automorphism is a pure permutation of evaluation points.
		c0 = hd.c0.PermuteNTTAdd(galEl, e0)
	} else {
		c0 = ev.permuteAddUnfused(hd.c0, galEl, e0)
	}
	ev.params.Ctx.PutPoly(e0)
	return c0, e1, nil
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
// ciphertext cost 1 ModUp + n inner products instead of n full
// keyswitches. Steps are normalized modulo the slot count and
// deduplicated internally; the returned slice is indexed like steps,
// with each entry an independent ciphertext, pending (see Ciphertext).
// Rotations by zero (or a multiple of the slot count) are plain copies.
// Each output is bit-identical to Rotate's for its step.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, steps []int) ([]*Ciphertext, error) {
	if err := ev.begin("RotateHoisted", ct); err != nil {
		return nil, err
	}
	return ev.rotations("RotateHoisted", ct, ev.galoisElements(steps))
}

// rotations is the body of Rotate, Conjugate and RotateHoisted: one
// hoisted rotation of ct per Galois element (1, the identity, a copy),
// each left pending.
func (ev *Evaluator) rotations(op string, ct *Ciphertext, els []uint64) ([]*Ciphertext, error) {
	noise := addNoiseBits(ct.NoiseBits, ev.nm.KeySwitchBits())
	return ev.hoisted(op, ct, els, func(hd *HoistedDecomp, galEl uint64) (*Ciphertext, error) {
		if galEl == 1 {
			return ct.CopyNew(), nil
		}
		c0, c1, err := ev.rotateExt(op, hd, galEl)
		if err != nil {
			return nil, err
		}
		out := ev.pendingPair(c0, c1, ct)
		out.NoiseBits = noise
		out.seal()
		return out, nil
	})
}

// pendingPair wraps a keyswitch's output pair as a pending ciphertext at
// ct's level, scale and noise.
func (ev *Evaluator) pendingPair(c0, c1 *ring.Poly, ct *Ciphertext) *Ciphertext {
	out := newCiphertext(c0, c1, ct.Level, new(big.Rat).Set(ct.Scale), ct.NoiseBits)
	s := len(ev.params.Chain.Special)
	out.pend = [2]int{s, s}
	out.seal()
	return out
}

// galoisElements maps slot rotation amounts to their Galois elements; a
// multiple of the slot count maps to 1.
func (ev *Evaluator) galoisElements(steps []int) []uint64 {
	els := make([]uint64, len(steps))
	for i, s := range steps {
		els[i] = ring.GaloisElementForRotation(s, ev.params.N())
	}
	return els
}

// RotateHoistedMulRescale returns, for every amount in steps,
// Rescale(MulPlain(rot(ct, step), pt)) — the extraction of a packed
// reply — and is exactly that composition: the rotations pend, pt
// multiplies them over live++special, and each rescale sheds P with the
// level's retired moduli in one division. pt must be at ct's level and
// carry rows over live++special (bitpacker's EncodePlain stores them); a
// divided zero step reads its live rows. Steps are normalized and
// deduplicated as RotateHoisted's, and each rotation's extended-width
// rows are back in the pool once its output is made.
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
	if !slices.Equal(pt.Value.Moduli, ev.ksPlan(ev.params.LevelModuli(ct.Level)).ext) {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "ckks: %s: plaintext rows are not the level's moduli ++ special", op)
	}
	rots, err := ev.rotations(op, ct, ev.galoisElements(steps))
	if err != nil {
		return nil, err
	}
	outs := make([]*Ciphertext, len(rots))
	for i, r := range rots {
		m, err := ev.MulPlain(r, pt)
		ev.free(r)
		if err == nil {
			outs[i], err = ev.Rescale(m)
			ev.free(m)
		}
		if err != nil {
			for _, r := range rots[i+1:] {
				ev.free(r)
			}
			return nil, err
		}
	}
	return outs, nil
}

// InnerSum folds the first n slots (n a power of two, n ≤ Slots()) so
// that slot i holds the sum of slots i … i+n−1: log2(n) rounds of Rotate
// + Add, each rotating the running sum by 1, 2, 4, … The sum pends; a
// round settles only its C1, which the rotation decomposes, so C0 is
// divided once, by whoever settles the output.
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
	acc := ct
	for _, galEl := range els {
		next, err := ev.innerSumRound(acc, galEl)
		if acc != ct {
			ev.free(acc)
		}
		if err != nil {
			return nil, err
		}
		acc = next
	}
	return acc, nil
}

// innerSumRound is acc + rot_g(acc) with acc's C1 settled first.
func (ev *Evaluator) innerSumRound(acc *Ciphertext, galEl uint64) (*Ciphertext, error) {
	half, err := ev.settle(acc, acc.Level, divC1)
	if err != nil {
		return nil, err
	}
	if half.C1 != acc.C1 {
		defer ev.params.Ctx.PutPoly(half.C1)
	}
	rot, err := ev.rotateOne("InnerSum", half, galEl)
	if err != nil {
		return nil, err
	}
	defer ev.free(rot)
	return ev.Add(half, rot)
}

// hoisted is the body every rotation shares: dedupe the Galois elements
// els (1 is the identity), decompose ct once (hoist) when any element is
// not 1, run one(hd, galEl) per distinct element as one fan-out (hd nil
// when every element is 1), and hand the results out in els' order — a
// duplicate an independent copy. A demand of several keys is pinned
// before the fan-out; a single key is acquired once, by its rotation.
func (ev *Evaluator) hoisted(op string, ct *Ciphertext, els []uint64, one func(hd *HoistedDecomp, galEl uint64) (*Ciphertext, error)) ([]*Ciphertext, error) {
	uniq := make([]uint64, 0, len(els))
	keys := 0
	for _, g := range els {
		if !slices.Contains(uniq, g) {
			uniq = append(uniq, g)
			if g != 1 {
				keys++
			}
		}
	}
	var hd *HoistedDecomp
	if keys > 0 {
		if keys > 1 {
			// Declare the whole rotation-key demand before the fan-out:
			// with a key manager the working set is pinned resident
			// across all the rotations instead of being acquired (and
			// possibly evicted and regenerated) once per step.
			releaseKeys, err := ev.PinGaloisKeys(op, slices.DeleteFunc(slices.Clone(uniq), func(g uint64) bool { return g == 1 }))
			if err != nil {
				return nil, err
			}
			defer releaseKeys()
		}
		var err error
		if hd, err = ev.hoist(ct); err != nil {
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
	if len(uniq) == len(els) {
		return results, nil
	}
	out := make([]*Ciphertext, len(els))
	for i, g := range els {
		if out[i] = results[slices.Index(uniq, g)]; slices.Index(els, g) < i {
			out[i] = out[i].CopyNew()
		}
	}
	return out, nil
}
