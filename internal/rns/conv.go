package rns

import (
	"math/big"
	"sync"

	"bitpacker/internal/engine"
	"bitpacker/internal/nt"
)

// vecPool recycles the length-N scratch vectors Convert and Apply need.
// Vectors are matched by capacity, so one process-wide pool serves every
// basis size in play.
var vecPool sync.Pool

func getVec(n int) []uint64 {
	if p, _ := vecPool.Get().(*[]uint64); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]uint64, n)
}

func putVec(v []uint64) {
	vecPool.Put(&v)
}

// Conv is a precomputed approximate RNS basis conversion from a source
// basis {p_0..p_{k-1}} (product P) to a target modulus set {t_0..t_{m-1}}.
//
// Given residues x_i = x mod p_i of an integer x in [0, P), Convert
// produces, for each target modulus t_j, the value
//
//	( Σ_i [x_i · (P/p_i)^{-1}]_{p_i} · (P/p_i) )  mod t_j
//
// which equals (x + e·P) mod t_j for some 0 ≤ e < k. This is the standard
// fast (approximate) basis extension of Bajard et al. / Halevi-Polyakov-
// Shoup; the small e·P overshoot is absorbed by the noise analysis.
// It is the computational core of the paper's scaleDown (Listing 5) and of
// hybrid keyswitching's ModUp: each application is k·m polynomial
// multiply-accumulates, exactly the work the CraterLake CRB unit performs.
type Conv struct {
	Src []uint64 // source moduli
	Dst []uint64 // target moduli
	P   *big.Int // product of source moduli

	pHatInv   []uint64 // [(P/p_i)^{-1}]_{p_i}
	pHatInvSh []uint64
	// col[j][i] = (P/p_i) mod t_j, column-major: the weights one target
	// row needs are contiguous, so the row kernels index them directly.
	col   [][]uint64
	colSh [][]uint64
	// sumMu[j] = nt.WordBarrett(t_j) when a whole conversion sum fits
	// one word for target j — Σ_i (p_i−1)(t_j−1) < 2^64, every source
	// modulus counted — and 0 otherwise. Non-zero selects the deferred
	// reduction in row: raw 64-bit multiply-accumulates, one reduction.
	// The bound cannot be read off the target alone: a chain with 61-bit
	// words packs narrow terminal primes beside 61-bit ones, and a
	// narrow target fed by wide sources overflows.
	sumMu []uint64
}

// NewConv precomputes a conversion from the src moduli to the dst moduli.
// src and dst must each consist of distinct primes; they may overlap only
// if the caller knows what it is doing (scaleDown never overlaps them).
func NewConv(src, dst []uint64) *Conv {
	c := &Conv{
		Src: append([]uint64(nil), src...),
		Dst: append([]uint64(nil), dst...),
		P:   big.NewInt(1),
	}
	tmp := new(big.Int)
	srcSum := new(big.Int) // Σ_i (p_i − 1)
	for _, p := range src {
		c.P.Mul(c.P, tmp.SetUint64(p))
		srcSum.Add(srcSum, tmp.SetUint64(p-1))
	}
	c.pHatInv = make([]uint64, len(src))
	c.pHatInvSh = make([]uint64, len(src))
	pHat := make([]*big.Int, len(src))
	for i, p := range src {
		pHat[i] = new(big.Int).Div(c.P, tmp.SetUint64(p))
		r := new(big.Int).Mod(pHat[i], tmp.SetUint64(p)).Uint64()
		c.pHatInv[i] = nt.InvMod(r, p)
		c.pHatInvSh[i] = nt.ShoupPrecomp(c.pHatInv[i], p)
	}
	c.col = make([][]uint64, len(dst))
	c.colSh = make([][]uint64, len(dst))
	c.sumMu = make([]uint64, len(dst))
	for j, t := range dst {
		c.col[j] = make([]uint64, len(src))
		c.colSh[j] = make([]uint64, len(src))
		for i := range src {
			c.col[j][i] = new(big.Int).Mod(pHat[i], tmp.SetUint64(t)).Uint64()
			c.colSh[j][i] = nt.ShoupPrecomp(c.col[j][i], t)
		}
		if tmp.SetUint64(t-1).Mul(tmp, srcSum).IsUint64() {
			c.sumMu[j] = nt.WordBarrett(t)
		}
	}
	return c
}

// scale fills y[i] = [x_i · pHatInv_i]_{p_i} for source residue i — the
// first half of every conversion.
func (c *Conv) scale(y, x []uint64, i int) {
	p, w, ws := c.Src[i], c.pHatInv[i], c.pHatInvSh[i]
	for k, v := range x {
		y[k] = nt.MulModShoup(v, w, ws, p)
	}
}

// row fills dst with target j's conversion row, Σ_i y_i · col[j][i] mod
// t_j, from the scaled source rows y. Either branch emits the canonical
// residue of the same integer sum, so the two are bit-identical and so
// is every worker count. With sumMu[j] set the loop is the CRB unit's
// multiply-accumulate: one raw product per term, swept row-wise so every
// access is sequential, and a single reduction at the end; otherwise
// every term is reduced (Shoup) and added mod t_j.
func (c *Conv) row(dst []uint64, y [][]uint64, j int) {
	t, w := c.Dst[j], c.col[j]
	if mu := c.sumMu[j]; mu != 0 {
		// Two terms per sweep halve the traffic on dst; an odd count
		// opens the sum with a single term.
		i := 2 - len(y)&1
		if i == 1 {
			w0 := w[0]
			for k, v := range y[0][:len(dst)] {
				dst[k] = v * w0
			}
		} else {
			w0, w1 := w[0], w[1]
			y0, y1 := y[0][:len(dst)], y[1][:len(dst)]
			for k := range dst {
				dst[k] = y0[k]*w0 + y1[k]*w1
			}
		}
		for ; i < len(y); i += 2 {
			wa, wb := w[i], w[i+1]
			ya, yb := y[i][:len(dst)], y[i+1][:len(dst)]
			for k := range dst {
				dst[k] += ya[k]*wa + yb[k]*wb
			}
		}
		for k := range dst {
			dst[k] = nt.ReduceWord(dst[k], t, mu)
		}
		return
	}
	ws := c.colSh[j]
	for i, yi := range y {
		wi, wsi := w[i], ws[i]
		yi = yi[:len(dst)]
		if i == 0 {
			for k := range dst {
				dst[k] = nt.MulModShoup(yi[k], wi, wsi, t)
			}
			continue
		}
		for k := range dst {
			dst[k] = nt.AddMod(dst[k], nt.MulModShoup(yi[k], wi, wsi, t), t)
		}
	}
}

// Convert performs the conversion on coefficient-domain residue vectors.
// src[i] holds the residues mod Src[i]; out[j] receives the converted
// residues mod Dst[j]. All vectors have length N. out must not alias src.
func (c *Conv) Convert(out, src [][]uint64) {
	if len(src) != len(c.Src) || len(out) != len(c.Dst) {
		panic("rns: Convert shape mismatch")
	}
	n := len(src[0])
	y := make([][]uint64, len(c.Src))
	for i := range y {
		y[i] = getVec(n)
	}
	engine.Dispatch(len(c.Src), n, func(i int) { c.scale(y[i], src[i], i) })
	// Target rows are independent and each keeps its i-order, so results
	// are identical at every worker count.
	engine.Dispatch(len(out), n*len(y), func(j int) { c.row(out[j], y, j) })
	for i := range y {
		putVec(y[i])
	}
}

// ConvertScalar converts a single coefficient (residues xs over Src) to the
// target moduli. Used by tests and scalar precomputations.
func (c *Conv) ConvertScalar(xs []uint64) []uint64 {
	out := make([]uint64, len(c.Dst))
	for j, t := range c.Dst {
		var acc uint64
		for i, x := range xs {
			y := nt.MulModShoup(x, c.pHatInv[i], c.pHatInvSh[i], c.Src[i])
			acc = nt.AddMod(acc, nt.MulModShoup(y, c.col[j][i], c.colSh[j][i], t), t)
		}
		out[j] = acc
	}
	return out
}

// ExactDiv is the precomputed state for the paper's scaleDown (Listing 5):
// dividing an RNS integer by P = Π shed moduli — flooring, up to a small
// additive error < k — and shedding those moduli.
//
// kept_j = (x_j − Conv_{shed→kept}(x mod P)_j) · P^{-1} mod q_j
type ExactDiv struct {
	Conv   *Conv    // shed -> kept conversion
	Kept   []uint64 // kept moduli (same as Conv.Dst)
	invP   []uint64 // P^{-1} mod q_j
	invPSh []uint64
}

// NewExactDiv precomputes division by the product of shed within a basis
// whose remaining moduli are kept.
func NewExactDiv(shed, kept []uint64) *ExactDiv {
	d := &ExactDiv{
		Conv: NewConv(shed, kept),
		Kept: append([]uint64(nil), kept...),
	}
	d.invP = make([]uint64, len(kept))
	d.invPSh = make([]uint64, len(kept))
	tmp := new(big.Int)
	for j, q := range kept {
		r := new(big.Int).Mod(d.Conv.P, tmp.SetUint64(q)).Uint64()
		d.invP[j] = nt.InvMod(r, q)
		d.invPSh[j] = nt.ShoupPrecomp(d.invP[j], q)
	}
	return d
}

// Apply computes the scaled-down residues. shedRes[i] are the
// coefficient-domain residues mod shed_i; keptRes[j] are the residues mod
// kept_j, updated in place.
func (d *ExactDiv) Apply(keptRes, shedRes [][]uint64) {
	n := len(shedRes[0])
	sub := make([][]uint64, len(d.Kept))
	for j := range sub {
		sub[j] = getVec(n)
	}
	d.Conv.Convert(sub, shedRes)
	engine.Dispatch(len(d.Kept), n, func(j int) {
		q := d.Kept[j]
		w, ws := d.invP[j], d.invPSh[j]
		kj, sj := keptRes[j], sub[j]
		for k := range kj {
			kj[k] = nt.MulModShoup(nt.SubMod(kj[k], sj[k], q), w, ws, q)
		}
	})
	for j := range sub {
		putVec(sub[j])
	}
}

// DivBatchTarget is one polynomial's worth of work for ApplyBatch.
type DivBatchTarget struct {
	Shed [][]uint64 // coefficient-domain residues mod Conv.Src (read-only)
	Kept [][]uint64 // residues mod Kept (read-only; Out may alias it)
	Out  [][]uint64 // receives the scaled-down rows
}

// ApplyBatch runs Apply over several polynomials as two fork/joins total
// (instead of three per polynomial). The conversion rows come from
// Conv.row exactly as in Apply, so results are bit-identical to
// per-polynomial Apply calls at every worker count.
func (d *ExactDiv) ApplyBatch(targets []DivBatchTarget) {
	d.ApplyBatchNTT(targets, nil)
}

// ApplyBatchNTT is ApplyBatch for targets whose Kept and Out rows are in
// the NTT evaluation domain while the Shed rows stay in the coefficient
// domain: the conversion row is assembled in the coefficient domain,
// moved to the evaluation domain by fwd — the caller's forward transform
// for kept modulus j; nil leaves it where it is, which is ApplyBatch —
// and the subtract-divide then runs pointwise. The transform is exactly
// linear and emits canonical residues, and every operand here is
// canonical, so the outputs are bit-identical to coefficient-domain
// ApplyBatch sandwiched between inverse/forward transforms of the kept
// rows — but only the conversion rows are ever forward-transformed and
// the kept rows never leave the NTT domain.
func (d *ExactDiv) ApplyBatchNTT(targets []DivBatchTarget, fwd func(j int, row []uint64)) {
	if len(targets) == 0 {
		return
	}
	c := d.Conv
	nSrc := len(c.Src)
	nKept := len(d.Kept)
	n := len(targets[0].Kept[0])
	// Stage A: the scaled shed rows, all targets batched.
	y := make([][]uint64, len(targets)*nSrc)
	for i := range y {
		y[i] = getVec(n)
	}
	engine.Dispatch(len(y), n, func(ti int) {
		t, i := ti/nSrc, ti%nSrc
		c.scale(y[ti], targets[t].Shed[i], i)
	})
	// Stage B: per kept row, the conversion row into scratch, its
	// forward transform, then subtract and divide by P.
	engine.Dispatch(len(targets)*nKept, n*(nSrc+16), func(tj int) {
		t, j := tj/nKept, tj%nKept
		tgt := &targets[t]
		q := d.Kept[j]
		wp, wps := d.invP[j], d.invPSh[j]
		kj := tgt.Kept[j]
		conv := getVec(len(kj))
		c.row(conv, y[t*nSrc:(t+1)*nSrc], j)
		if fwd != nil {
			fwd(j, conv)
		}
		oj := tgt.Out[j][:len(kj)]
		for k := range oj {
			// kj − conv + q < 2q: the exact Shoup multiply reduces any
			// operand below 4q, so the difference needs no SubMod.
			oj[k] = nt.MulModShoup(kj[k]+q-conv[k], wp, wps, q)
		}
		putVec(conv)
	})
	for i := range y {
		putVec(y[i])
	}
}

// ApplyScalar is the single-coefficient variant of Apply, for tests.
func (d *ExactDiv) ApplyScalar(kept, shed []uint64) []uint64 {
	sub := d.Conv.ConvertScalar(shed)
	out := make([]uint64, len(kept))
	for j, q := range d.Kept {
		out[j] = nt.MulModShoup(nt.SubMod(kept[j], sub[j], q), d.invP[j], d.invPSh[j], q)
	}
	return out
}
