package ckks

// Redundant-residue (RRNS) fault detection and in-place repair.
//
// When the chain is built with core.Options.RedundantResidue, every
// ciphertext carries one extra residue channel per polynomial: the
// coefficients reduced mod the spare prime q_s, stored in
// Ciphertext.Spare0/Spare1 in the coefficient domain (the tracked spare
// algebra is coefficient-wise either way, and keeping the channel out
// of the NTT domain saves four q_s-NTTs per rescale on the clean path).
// The spare prime is reserved before any live modulus, so q_s >= every
// live modulus.
//
// The channel is maintained at three kinds of points:
//
//   - Seeding: at trusted production points (encryption output, rescale
//     output, checkpoint load) the spare is computed from the live
//     residues by an exact CRT projection while the polynomial passes
//     through the coefficient domain. SpareDepth starts at 1.
//   - Algebra: additions, subtractions, negations and small-integer
//     scalar multiplies update the spare channel independently of the
//     live residues (the fault-detection value of the channel comes from
//     this independence). Each such op widens the wraparound window
//     SpareDepth; past maxSpareDepth, and after any op without tracked
//     spare algebra (multiplication, keyswitching, rotation), the channel
//     goes stale and is reseeded at the next rescale.
//   - Checking: at rescale entry — where the live residues are in the
//     coefficient domain anyway — the spare is cross-checked against the
//     exact projection of the live residues, scanning the bounded set of
//     possible mod-Q wraparound counts. A mismatch is a detected fault.
//
// Separately, every operation prologue range-scans the live residue
// words. A corrupted word (the chaos injector's bit flip, or any fault
// pushing a word out of [0, q)) confined to a single residue is repaired
// in place: the erased residue is reconstructed per coefficient by exact
// CRT over the remaining residues plus the spare. This is the cheapest
// rung of the recovery ladder — no recomputation, no retry.
//
// Residual window: corruption that keeps every word in range and strikes
// between a seed point and the value's final rescale is caught by the
// rescale cross-check (then healed by retry/checkpoint), and in-range
// corruption of a stale channel only by the checkpoint backstop. The
// scans themselves are read-only, so concurrent fan-outs over a shared
// ciphertext stay race-free on the clean path.

import (
	"bitpacker/internal/engine"
	"bitpacker/internal/fherr"
	"bitpacker/internal/nt"
	"bitpacker/internal/ring"
)

// maxSpareDepth caps the wraparound window the checker will scan. Spare
// algebra that would widen the window beyond this marks the channel
// stale instead; the next rescale reseeds it at depth 1.
const maxSpareDepth = 16

// rrnsEnabled reports whether the evaluator's chain carries a spare.
func (ev *Evaluator) rrnsEnabled() bool { return ev.params.Chain.Spare != 0 }

// projectSpare computes the coefficient-domain spare channel of a
// coefficient-domain polynomial over its live moduli.
func (ev *Evaluator) projectSpare(p *ring.Poly) []uint64 {
	return projectSpareVec(ev.params, p)
}

func projectSpareVec(params *Parameters, p *ring.Poly) []uint64 {
	qs := params.Chain.Spare
	proj := params.spareProjector(p.Moduli, qs)
	out := make([]uint64, params.N())
	proj.Project(out, p.Coeffs)
	return out
}

// SeedSpare (re)computes the spare channel from the live residues. Call
// it only at trusted points — encryption output, checkpoint load, or a
// value just verified by other means; seeding from corrupted residues
// would seal the corruption into the check channel. No-op on chains
// without a spare.
func (ct *Ciphertext) SeedSpare(params *Parameters) {
	if params.Chain.Spare == 0 {
		return
	}
	ctx := params.Ctx
	c0 := ct.C0.ScratchCopyINTT()
	ct.Spare0 = projectSpareVec(params, c0)
	ctx.PutPoly(c0)
	c1 := ct.C1.ScratchCopyINTT()
	ct.Spare1 = projectSpareVec(params, c1)
	ctx.PutPoly(c1)
	ct.SpareDepth = 1
}

// checkSpare cross-checks the spare channels against the exact CRT
// projection of the live residues. c0c and c1c are coefficient-domain
// views of ct.C0 and ct.C1 (the caller — rescale — already has them).
// Each coefficient's difference must be one of the (2d-1) possible
// wraparound offsets m·(Q mod q_s), |m| < d = ct.SpareDepth.
func (ev *Evaluator) checkSpare(op string, ct *Ciphertext, c0c, c1c *ring.Poly) error {
	params := ev.params
	qs := params.Chain.Spare
	proj := params.spareProjector(c0c.Moduli, qs)
	qModQs := proj.SrcProductModDst()

	// Allowed differences spare - projection, as a small scan set.
	d := ct.SpareDepth
	allowed := make([]uint64, 0, 2*d-1)
	allowed = append(allowed, 0)
	for m := 1; m < d; m++ {
		off := nt.MulMod(uint64(m), qModQs, qs)
		allowed = append(allowed, off, nt.NegMod(off, qs))
	}

	// Project and compare in one chunked pass: each chunk runs the exact
	// CRT projection coefficient-by-coefficient and compares in place,
	// never materializing the projected vector. Chunks are ordered by
	// coefficient, so the lowest flagged chunk's record is the same first
	// failing coefficient the serial scan would report.
	n := params.N()
	const chunk = 1024
	chunks := (n + chunk - 1) / chunk
	firstBad := make([]int, chunks)
	for side, pair := range []struct {
		poly  *ring.Poly
		spare []uint64
	}{{c0c, ct.Spare0}, {c1c, ct.Spare1}} {
		src := pair.poly.Coeffs
		spare := pair.spare
		engine.Dispatch(chunks, chunk*(3*len(src)+16), func(c int) {
			firstBad[c] = -1
			lo, hi := c*chunk, (c+1)*chunk
			if hi > n {
				hi = n
			}
			xs := make([]uint64, len(src))
			for k := lo; k < hi; k++ {
				for i := range src {
					xs[i] = src[i][k]
				}
				diff := nt.SubMod(spare[k], proj.ProjectCoeff(xs), qs)
				ok := false
				for _, a := range allowed {
					if diff == a {
						ok = true
						break
					}
				}
				if !ok {
					firstBad[c] = k
					return
				}
			}
		})
		for _, k := range firstBad {
			if k >= 0 {
				return fherr.Wrap(fherr.ErrInvariant,
					"ckks: %s: RRNS mismatch on c%d coefficient %d (spare channel disagrees with live residues)",
					op, side, k)
			}
		}
	}
	return nil
}

// scanRepair is the range-scan + erasure-repair prologue: every residue
// word of every operand is checked against its modulus, and corruption
// confined to a single residue of a polynomial with a fresh spare is
// reconstructed in place. Corruption it cannot repair (multiple
// residues, stale spare, oversized moduli) is reported as an invariant
// violation for the retry/checkpoint rungs of the ladder.
func (ev *Evaluator) scanRepair(op string, cts ...*Ciphertext) error {
	params := ev.params
	qs := params.Chain.Spare
	for _, ct := range cts {
		if ct == nil || ct.C0 == nil || ct.C1 == nil {
			continue // Validate reports the structural problem
		}
		// A corrupted spare word means the check channel itself took the
		// hit: the live residues are still consistent, so drop the
		// channel rather than fail.
		if ct.SpareDepth > 0 {
			for _, sp := range [][]uint64{ct.Spare0, ct.Spare1} {
				for _, w := range sp {
					if w >= qs {
						ct.clearSpare()
						break
					}
				}
				if ct.SpareDepth == 0 {
					break
				}
			}
		}
		// Range-scan every residue row of both components in one
		// fork/join; the scan is read-only, so it commutes with the
		// per-side reduction and repair below (which touch different
		// polynomials than any remaining scan).
		r0 := len(ct.C0.Moduli)
		flagged := make([]bool, r0+len(ct.C1.Moduli))
		engine.Dispatch(len(flagged), params.N(), func(t int) {
			p, i := ct.C0, t
			if t >= r0 {
				p, i = ct.C1, t-r0
			}
			q := p.Moduli[i]
			for _, w := range p.Coeffs[i] {
				if w >= q {
					flagged[t] = true
					return
				}
			}
		})
		for side, pair := range []struct {
			poly  *ring.Poly
			spare []uint64
			flags []bool
		}{{ct.C0, ct.Spare0, flagged[:r0]}, {ct.C1, ct.Spare1, flagged[r0:]}} {
			bad := -1
			multi := false
			for i, f := range pair.flags {
				if f {
					if bad >= 0 && bad != i {
						multi = true
					}
					bad = i
				}
			}
			if bad < 0 {
				continue
			}
			if multi {
				return fherr.Wrap(fherr.ErrInvariant,
					"ckks: %s: corruption across multiple residues of c%d (beyond single-erasure repair)", op, side)
			}
			if ct.SpareDepth == 0 {
				return fherr.Wrap(fherr.ErrInvariant,
					"ckks: %s: residue %d of c%d corrupted and spare channel stale (repair needs a fresh spare)", op, bad, side)
			}
			if err := ev.repairResidue(op, pair.poly, pair.spare, ct.SpareDepth, bad, side); err != nil {
				return err
			}
		}
	}
	return nil
}

// repairResidue reconstructs residue row `bad` of an NTT-domain
// polynomial from the remaining residues plus the spare channel.
//
// Integer view per coefficient: X = x̃ + m·Q with |m| <= d-1, where x̃
// is the canonical lift of the live residues and Q the level modulus.
// Shifting by (d-1)·Q makes Xs = X + (d-1)·Q a nonnegative integer
// below (2d-1)·Q = (2d-1)·q_bad·Q' (Q' the product of the good moduli),
// so Xs is uniquely determined by its residues over
// {good moduli} ∪ {q_s} whenever (2d-1)·q_bad <= q_s — and
// Xs ≡ X (mod q_bad) because (d-1)·Q vanishes there. At depth 1 (the
// common case: a fault between a seed point and the next op) the shift
// is zero and the bound is q_bad <= q_s, which holds by construction.
// Deeper windows over near-word-size moduli can exceed the bound; those
// faults fall through to the retry/checkpoint rungs.
func (ev *Evaluator) repairResidue(op string, p *ring.Poly, spare []uint64, depth, bad, side int) error {
	params := ev.params
	ctx := params.Ctx
	qs := params.Chain.Spare
	qBad := p.Moduli[bad]
	d := uint64(depth)
	if qBad > qs/(2*d-1) {
		return fherr.Wrap(fherr.ErrInvariant,
			"ckks: %s: residue %d of c%d corrupted; spare depth %d too wide to repair modulus %d", op, bad, side, depth, qBad)
	}

	// Coefficient-domain copies of the good rows and the shifted spare.
	// Each row's copy+inverse-transform is one work item; the scratch
	// vectors come from the pool serially (the pool is not dispatched
	// into).
	srcModuli := make([]uint64, 0, len(p.Moduli))
	src := make([][]uint64, 0, len(p.Moduli))
	var scratch [][]uint64
	goodRows := make([]int, 0, len(p.Moduli))
	for i, q := range p.Moduli {
		if i == bad {
			continue
		}
		srcModuli = append(srcModuli, q)
		v := ctx.GetVec()
		src = append(src, v)
		scratch = append(scratch, v)
		goodRows = append(goodRows, i)
	}
	engine.Dispatch(len(goodRows), 3*params.N(), func(j int) {
		i := goodRows[j]
		copy(src[j], p.Coeffs[i])
		ctx.Table(p.Moduli[i]).Inverse(src[j])
	})
	s := ctx.GetVec()
	copy(s, spare)
	shift := nt.MulMod((d-1)%qs, params.spareProjector(p.Moduli, qs).SrcProductModDst(), qs)
	if shift != 0 {
		for k := range s {
			s[k] = nt.AddMod(s[k], shift, qs)
		}
	}
	srcModuli = append(srcModuli, qs)
	src = append(src, s)
	scratch = append(scratch, s)

	row := ctx.GetVec()
	params.spareProjector(srcModuli, qBad).Project(row, src)
	ctx.Table(qBad).Forward(row)
	copy(p.Coeffs[bad], row)
	ctx.PutVec(row)
	for _, v := range scratch {
		ctx.PutVec(v)
	}
	return nil
}

// spareCombineInto writes out's spare channel for out = a ± b from the
// operands' channels (out starts without one — the linear ops no longer
// copy a wholesale). Both operands need fresh channels and the combined
// wraparound window must stay scannable; otherwise the channel stays
// stale.
func (ev *Evaluator) spareCombineInto(out, a, b *Ciphertext, sub bool) {
	if !ev.rrnsEnabled() {
		return
	}
	if a.SpareDepth == 0 || b.SpareDepth == 0 || a.SpareDepth+b.SpareDepth > maxSpareDepth {
		return
	}
	qs := ev.params.Chain.Spare
	out.Spare0 = make([]uint64, len(a.Spare0))
	out.Spare1 = make([]uint64, len(a.Spare1))
	for _, tri := range []struct{ o, x, y []uint64 }{
		{out.Spare0, a.Spare0, b.Spare0},
		{out.Spare1, a.Spare1, b.Spare1},
	} {
		if sub {
			for k := range tri.o {
				tri.o[k] = nt.SubMod(tri.x[k], tri.y[k], qs)
			}
		} else {
			for k := range tri.o {
				tri.o[k] = nt.AddMod(tri.x[k], tri.y[k], qs)
			}
		}
	}
	out.SpareDepth = a.SpareDepth + b.SpareDepth
}

// spareNegInto writes out's spare channel for out = -a. Negation maps
// wrap count m to -m-1, widening the window by one.
func (ev *Evaluator) spareNegInto(out, a *Ciphertext) {
	if !ev.rrnsEnabled() || a.SpareDepth == 0 || a.SpareDepth+1 > maxSpareDepth {
		return
	}
	qs := ev.params.Chain.Spare
	out.Spare0 = make([]uint64, len(a.Spare0))
	out.Spare1 = make([]uint64, len(a.Spare1))
	for _, pair := range []struct{ o, x []uint64 }{{out.Spare0, a.Spare0}, {out.Spare1, a.Spare1}} {
		for k := range pair.o {
			pair.o[k] = nt.NegMod(pair.x[k], qs)
		}
	}
	out.SpareDepth = a.SpareDepth + 1
}

// spareMulScalarIntInto writes out's spare channel for out = c·a. The
// wrap window scales with |c|.
func (ev *Evaluator) spareMulScalarIntInto(out, a *Ciphertext, c int64) {
	if !ev.rrnsEnabled() || a.SpareDepth == 0 {
		return
	}
	abs := c
	if abs < 0 {
		abs = -abs
	}
	// abs < 0 only for MinInt64, whose negation overflows; treat it like
	// any other window-busting constant.
	if c == 0 || abs < 0 || abs > maxSpareDepth {
		return
	}
	newDepth := int64(a.SpareDepth)*abs + 1
	if newDepth > maxSpareDepth {
		return
	}
	qs := ev.params.Chain.Spare
	cm := uint64(abs % int64(qs))
	if c < 0 {
		cm = nt.NegMod(cm, qs)
	}
	out.Spare0 = make([]uint64, len(a.Spare0))
	out.Spare1 = make([]uint64, len(a.Spare1))
	for _, pair := range []struct{ o, x []uint64 }{{out.Spare0, a.Spare0}, {out.Spare1, a.Spare1}} {
		for k := range pair.o {
			pair.o[k] = nt.MulMod(pair.x[k], cm, qs)
		}
	}
	out.SpareDepth = int(newDepth)
}
