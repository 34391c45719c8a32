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

// scale fills y[i] = [x_i · pHatInv_i + add]_{p_i} for source residue
// i — the first half of every conversion. add is 0 for a plain
// conversion; ExactDiv folds its rounding constant in here.
func (c *Conv) scale(y, x []uint64, i int, add uint64) {
	p, w, ws := c.Src[i], c.pHatInv[i], c.pHatInvSh[i]
	for k, v := range x {
		y[k] = nt.AddMod(nt.MulModShoup(v, w, ws, p), add, p)
	}
}

// row fills dst with target j's conversion row, Σ_i y_i · col[j][i] − sub
// mod t_j, from the scaled source rows y (sub is 0 for a plain
// conversion; ExactDiv folds its rounding constant in here, in the loop
// that reduces or opens the sum). Either branch emits the canonical
// residue of the same integer sum, so the two are bit-identical and so
// is every worker count. With sumMu[j] set the loop is the CRB unit's
// multiply-accumulate: one raw product per term, swept row-wise so every
// access is sequential, and a single reduction at the end; otherwise
// every term is reduced (Shoup) and added mod t_j.
func (c *Conv) row(dst []uint64, y [][]uint64, j int, sub uint64) {
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
			dst[k] = nt.SubMod(nt.ReduceWord(dst[k], t, mu), sub, t)
		}
		return
	}
	ws := c.colSh[j]
	for i, yi := range y {
		wi, wsi := w[i], ws[i]
		yi = yi[:len(dst)]
		if i == 0 {
			for k := range dst {
				dst[k] = nt.SubMod(nt.MulModShoup(yi[k], wi, wsi, t), sub, t)
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
	engine.Dispatch(len(c.Src), n, func(i int) { c.scale(y[i], src[i], i, 0) })
	// Target rows are independent and each keeps its i-order, so results
	// are identical at every worker count.
	engine.Dispatch(len(out), n*len(y), func(j int) { c.row(out[j], y, j, 0) })
	for i := range y {
		putVec(y[i])
	}
}

// ExactDiv is the precomputed state for the paper's scaleDown (Listing 5):
// dividing an RNS integer x by P = Π shed moduli, rounded, and shedding
// them. With H = ⌊k·P/2⌋ for k shed moduli and y_i the scaled shed
// residues of x + H, the result is exactly (x + H)/P − Σ_i y_i/p_i:
//
//	kept_j = (x_j + H − Conv_{shed→kept}(x + H mod P)_j) · P^{-1} mod q_j.
//
// Each y_i/p_i spreads evenly over [0, 1), so H cancels the sum's mean
// k/2 and the result is x/P plus a zero-mean error in (−k/2, k/2]; a
// floor (H = 0) falls short by k/2 on average. An exact multiple of P
// comes out shifted by a constant of at most k/2. H costs no pass of its
// own: Conv.scale adds its shed part and Conv.row subtracts its kept part
// before the conversion row's forward transform (the constant sits in
// every coefficient, so it cannot be added after the transform).
type ExactDiv struct {
	Conv   *Conv    // shed -> kept conversion
	Kept   []uint64 // kept moduli (same as Conv.Dst)
	invP   []uint64 // P^{-1} mod q_j
	invPSh []uint64
	hShed  []uint64 // [H · (P/p_i)^{-1}]_{p_i}: H's scaled shed residues
	hKept  []uint64 // H mod q_j
}

// NewExactDiv precomputes division by the product of shed within a basis
// whose remaining moduli are kept.
func NewExactDiv(shed, kept []uint64) *ExactDiv {
	d := &ExactDiv{
		Conv: NewConv(shed, kept),
		Kept: append([]uint64(nil), kept...),
	}
	c := d.Conv
	h := new(big.Int).Mul(c.P, big.NewInt(int64(len(shed))))
	h.Rsh(h, 1)
	mod := func(q uint64) uint64 { return new(big.Int).Mod(h, new(big.Int).SetUint64(q)).Uint64() }
	d.hShed = make([]uint64, len(shed))
	for i, p := range shed {
		d.hShed[i] = nt.MulModShoup(mod(p), c.pHatInv[i], c.pHatInvSh[i], p)
	}
	d.invP = make([]uint64, len(kept))
	d.invPSh = make([]uint64, len(kept))
	d.hKept = make([]uint64, len(kept))
	tmp := new(big.Int)
	for j, q := range kept {
		r := new(big.Int).Mod(c.P, tmp.SetUint64(q)).Uint64()
		d.invP[j] = nt.InvMod(r, q)
		d.invPSh[j] = nt.ShoupPrecomp(d.invP[j], q)
		d.hKept[j] = mod(q)
	}
	return d
}

// DivBatchTarget is one polynomial's worth of work for ApplyBatch: the
// scaled-down residues of the integer with residues Shed (mod Conv.Src)
// and Kept (mod Kept) go to Out.
type DivBatchTarget struct {
	Shed [][]uint64 // coefficient-domain residues mod Conv.Src (read-only)
	Kept [][]uint64 // residues mod Kept (read-only; Out may alias it)
	Out  [][]uint64 // receives the scaled-down rows
}

// ApplyBatch divides several polynomials as two fork/joins total. Each
// target's rows depend on that target alone, so results are
// bit-identical to one call per polynomial at every worker count.
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
		c.scale(y[ti], targets[t].Shed[i], i, d.hShed[i])
	})
	// Stage B: per kept row, the conversion row less H into scratch, its
	// forward transform, then subtract and divide by P.
	engine.Dispatch(len(targets)*nKept, n*(nSrc+16), func(tj int) {
		t, j := tj/nKept, tj%nKept
		tgt := &targets[t]
		q := d.Kept[j]
		wp, wps := d.invP[j], d.invPSh[j]
		kj := tgt.Kept[j]
		conv := getVec(len(kj))
		c.row(conv, y[t*nSrc:(t+1)*nSrc], j, d.hKept[j])
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

// ApplyScalar is the single-coefficient variant of ApplyBatch, written out
// per term (Shoup products, no deferred sum, no batching), for tests.
func (d *ExactDiv) ApplyScalar(kept, shed []uint64) []uint64 {
	c := d.Conv
	out := make([]uint64, len(kept))
	for j, q := range d.Kept {
		acc := (q - d.hKept[j]) % q
		for i, p := range c.Src {
			y := nt.AddMod(nt.MulModShoup(shed[i], c.pHatInv[i], c.pHatInvSh[i], p), d.hShed[i], p)
			acc = nt.AddMod(acc, nt.MulModShoup(y, c.col[j][i], c.colSh[j][i], q), q)
		}
		out[j] = nt.MulModShoup(nt.SubMod(kept[j], acc, q), d.invP[j], d.invPSh[j], q)
	}
	return out
}
