package ring

import (
	"math/big"

	"bitpacker/internal/engine"
	"bitpacker/internal/nt"
)

// Fused per-residue kernels. Every function here chains the stages a hot
// path used to run as separate engine.Dispatch passes into one work item
// per residue row (engine.DispatchFused), so a row's coefficients stay in
// L1/L2 across copy→transform→pointwise→accumulate instead of being
// evicted between full-vector passes. Under DispatchFused's aliasing
// contract (each stage of task i touches only task-i-private rows) the
// results are bit-identical to the staged versions at every worker count.
//
// Several kernels additionally *batch*: they flatten the rows of multiple
// polynomials into a single fork/join, which matters when the per-poly
// residue count is small compared to the worker count.

// flatRows indexes row r of polynomial p as one flat task list.
type flatRow struct {
	p *Poly
	r int
}

func flatten(ps []*Poly) []flatRow {
	total := 0
	for _, p := range ps {
		total += len(p.Coeffs)
	}
	rows := make([]flatRow, 0, total)
	for _, p := range ps {
		for r := range p.Coeffs {
			rows = append(rows, flatRow{p, r})
		}
	}
	return rows
}

// ScratchCopyBatch returns pooled deep copies of ps, copying every row of
// every polynomial in a single fork/join.
func ScratchCopyBatch(ps ...*Poly) []*Poly {
	outs := make([]*Poly, len(ps))
	for i, p := range ps {
		outs[i] = p.ctx.GetPoly(p.Moduli)
		outs[i].IsNTT = p.IsNTT
	}
	rows := flatten(ps)
	if len(rows) == 0 {
		return outs
	}
	outRow := make([][]uint64, len(rows))
	pos := 0
	for i, p := range ps {
		for r := range p.Coeffs {
			outRow[pos] = outs[i].Coeffs[r]
			pos++
		}
	}
	engine.Dispatch(len(rows), ps[0].ctx.N, func(t int) {
		copy(outRow[t], rows[t].p.Coeffs[rows[t].r])
	})
	return outs
}

// ScratchCopyINTT returns a pooled coefficient-domain copy of p, fusing
// the copy with the inverse transform per row (one pass instead of two).
// If p is already in the coefficient domain this is a plain batched copy.
func (p *Poly) ScratchCopyINTT() *Poly {
	out := p.ctx.GetPoly(p.Moduli)
	out.IsNTT = false
	if !p.IsNTT {
		engine.Dispatch(len(p.Coeffs), p.ctx.N, func(i int) {
			copy(out.Coeffs[i], p.Coeffs[i])
		})
		return out
	}
	tabs := p.tables()
	engine.DispatchFused(len(p.Coeffs), p.ctx.N,
		func(i int) { copy(out.Coeffs[i], p.Coeffs[i]) },
		func(i int) { tabs[i].Inverse(out.Coeffs[i]) },
	)
	return out
}

// ScratchCopyNTT is the forward-domain twin of ScratchCopyINTT.
func (p *Poly) ScratchCopyNTT() *Poly {
	out := p.ctx.GetPoly(p.Moduli)
	out.IsNTT = true
	if p.IsNTT {
		engine.Dispatch(len(p.Coeffs), p.ctx.N, func(i int) {
			copy(out.Coeffs[i], p.Coeffs[i])
		})
		return out
	}
	tabs := p.tables()
	engine.DispatchFused(len(p.Coeffs), p.ctx.N,
		func(i int) { copy(out.Coeffs[i], p.Coeffs[i]) },
		func(i int) { tabs[i].Forward(out.Coeffs[i]) },
	)
	return out
}

// NTTBatch moves every polynomial into the NTT domain with a single
// fork/join over all rows (no-op rows for polys already transformed).
func NTTBatch(ps ...*Poly) {
	var todo []*Poly
	for _, p := range ps {
		if !p.IsNTT {
			todo = append(todo, p)
		}
	}
	if len(todo) == 0 {
		return
	}
	rows := flatten(todo)
	tabs := make([]interface{ Forward([]uint64) }, len(rows))
	for i, fr := range rows {
		tabs[i] = fr.p.ctx.Table(fr.p.Moduli[fr.r])
	}
	engine.Dispatch(len(rows), todo[0].ctx.N, func(t int) {
		tabs[t].Forward(rows[t].p.Coeffs[rows[t].r])
	})
	for _, p := range todo {
		p.IsNTT = true
	}
}

// INTTBatch moves every polynomial into the coefficient domain with a
// single fork/join over all rows.
func INTTBatch(ps ...*Poly) {
	var todo []*Poly
	for _, p := range ps {
		if p.IsNTT {
			todo = append(todo, p)
		}
	}
	if len(todo) == 0 {
		return
	}
	rows := flatten(todo)
	tabs := make([]interface{ Inverse([]uint64) }, len(rows))
	for i, fr := range rows {
		tabs[i] = fr.p.ctx.Table(fr.p.Moduli[fr.r])
	}
	engine.Dispatch(len(rows), todo[0].ctx.N, func(t int) {
		tabs[t].Inverse(rows[t].p.Coeffs[rows[t].r])
	})
	for _, p := range todo {
		p.IsNTT = false
	}
}

// MulRelinProducts computes the three degree-1 product components in one
// fused pass per residue row:
//
//	d0 = a0⊙b0, d1 = a0⊙b1 + a1⊙b0, d2 = a1⊙b1
//
// All inputs are NTT domain over identical moduli; the outputs must be
// distinct, pre-shaped polynomials (pooled, uninitialized is fine — every
// word is written). The four input rows of residue i are read while hot
// instead of being re-fetched for each of the three products.
func MulRelinProducts(d0, d1, d2, a0, a1, b0, b1 *Poly) {
	sameShape(a0, a1)
	sameShape(a0, b0)
	sameShape(a0, b1)
	sameShape(d0, a0)
	sameShape(d1, a0)
	sameShape(d2, a0)
	if !a0.IsNTT {
		panic("ring: MulRelinProducts requires NTT domain")
	}
	tabs := a0.tables()
	engine.DispatchFused(len(a0.Moduli), a0.ctx.N,
		func(i int) { tabs[i].MulCoeffs(d0.Coeffs[i], a0.Coeffs[i], b0.Coeffs[i]) },
		func(i int) {
			tabs[i].MulCoeffsCross(d1.Coeffs[i], a0.Coeffs[i], b1.Coeffs[i], a1.Coeffs[i], b0.Coeffs[i])
		},
		func(i int) { tabs[i].MulCoeffs(d2.Coeffs[i], a1.Coeffs[i], b1.Coeffs[i]) },
	)
}

// MulCoeffsPairInto sets o0 = x⊙y0 and o1 = x⊙y1 in one fused pass per
// row, reading the shared operand x once per residue (NTT domain).
func MulCoeffsPairInto(o0, o1, x, y0, y1 *Poly) {
	sameShape(x, y0)
	sameShape(x, y1)
	sameShape(o0, x)
	sameShape(o1, x)
	if !x.IsNTT {
		panic("ring: MulCoeffsPairInto requires NTT domain")
	}
	tabs := x.tables()
	engine.DispatchFused(len(x.Moduli), x.ctx.N,
		func(i int) { tabs[i].MulCoeffs(o0.Coeffs[i], x.Coeffs[i], y0.Coeffs[i]) },
		func(i int) { tabs[i].MulCoeffs(o1.Coeffs[i], x.Coeffs[i], y1.Coeffs[i]) },
	)
}

// MulCoeffsPairAdd accumulates o0 += x⊙y0 and o1 += x⊙y1 in one fused
// pass per row (NTT domain).
func MulCoeffsPairAdd(o0, o1, x, y0, y1 *Poly) {
	sameShape(x, y0)
	sameShape(x, y1)
	sameShape(o0, x)
	sameShape(o1, x)
	if !x.IsNTT {
		panic("ring: MulCoeffsPairAdd requires NTT domain")
	}
	tabs := x.tables()
	engine.DispatchFused(len(x.Moduli), x.ctx.N,
		func(i int) { tabs[i].MulCoeffsAdd(o0.Coeffs[i], x.Coeffs[i], y0.Coeffs[i]) },
		func(i int) { tabs[i].MulCoeffsAdd(o1.Coeffs[i], x.Coeffs[i], y1.Coeffs[i]) },
	)
}

// AddPair sets o0 = a0 + b0 and o1 = a1 + b1, batching both component
// sums (2R rows) into one fork/join. Aliasing within a component is fine.
func AddPair(o0, a0, b0, o1, a1, b1 *Poly) {
	sameShape(a0, b0)
	sameShape(o0, a0)
	sameShape(a1, b1)
	sameShape(o1, a1)
	r := len(a0.Moduli)
	engine.Dispatch(r+len(a1.Moduli), a0.ctx.N, func(t int) {
		o, a, b := o0, a0, b0
		i := t
		if t >= r {
			o, a, b = o1, a1, b1
			i = t - r
		}
		q := a.Moduli[i]
		pa, pb, pp := a.Coeffs[i], b.Coeffs[i], o.Coeffs[i]
		for k := range pp {
			pp[k] = nt.AddMod(pa[k], pb[k], q)
		}
	})
}

// SubPair sets o0 = a0 - b0 and o1 = a1 - b1 in one fork/join.
func SubPair(o0, a0, b0, o1, a1, b1 *Poly) {
	sameShape(a0, b0)
	sameShape(o0, a0)
	sameShape(a1, b1)
	sameShape(o1, a1)
	r := len(a0.Moduli)
	engine.Dispatch(r+len(a1.Moduli), a0.ctx.N, func(t int) {
		o, a, b := o0, a0, b0
		i := t
		if t >= r {
			o, a, b = o1, a1, b1
			i = t - r
		}
		q := a.Moduli[i]
		pa, pb, pp := a.Coeffs[i], b.Coeffs[i], o.Coeffs[i]
		for k := range pp {
			pp[k] = nt.SubMod(pa[k], pb[k], q)
		}
	})
}

// NegPair sets o0 = -a0 and o1 = -a1 in one fork/join.
func NegPair(o0, a0, o1, a1 *Poly) {
	sameShape(o0, a0)
	sameShape(o1, a1)
	r := len(a0.Moduli)
	engine.Dispatch(r+len(a1.Moduli), a0.ctx.N, func(t int) {
		o, a := o0, a0
		i := t
		if t >= r {
			o, a = o1, a1
			i = t - r
		}
		q := a.Moduli[i]
		pa, pp := a.Coeffs[i], o.Coeffs[i]
		for k := range pp {
			pp[k] = nt.NegMod(pa[k], q)
		}
	})
}

// AddCopyPair sets o0 = a0 + m and o1 = copy(a1) in one fork/join — the
// plaintext-addition shape, where only the degree-0 component changes.
func AddCopyPair(o0, a0, m, o1, a1 *Poly) {
	sameShape(a0, m)
	sameShape(o0, a0)
	sameShape(o1, a1)
	r := len(a0.Moduli)
	engine.Dispatch(r+len(a1.Moduli), a0.ctx.N, func(t int) {
		if t < r {
			q := a0.Moduli[t]
			pa, pb, pp := a0.Coeffs[t], m.Coeffs[t], o0.Coeffs[t]
			for k := range pp {
				pp[k] = nt.AddMod(pa[k], pb[k], q)
			}
			return
		}
		i := t - r
		copy(o1.Coeffs[i], a1.Coeffs[i])
	})
}

// MulCoeffsPair sets o0 = a0⊙m and o1 = a1⊙m in one fork/join (NTT
// domain) — the plaintext-multiplication shape.
func MulCoeffsPair(o0, a0, o1, a1, m *Poly) {
	sameShape(a0, m)
	sameShape(o0, a0)
	sameShape(a1, m)
	sameShape(o1, a1)
	if !m.IsNTT {
		panic("ring: MulCoeffsPair requires NTT domain")
	}
	tabs := m.tables()
	r := len(a0.Moduli)
	engine.Dispatch(2*r, m.ctx.N, func(t int) {
		o, a := o0, a0
		i := t
		if t >= r {
			o, a = o1, a1
			i = t - r
		}
		tabs[i].MulCoeffs(o.Coeffs[i], a.Coeffs[i], m.Coeffs[i])
	})
}

// MulScalarBigPair sets o0 = a0·c and o1 = a1·c (same moduli) in one
// fork/join, reducing c per modulus once instead of twice.
func MulScalarBigPair(o0, a0, o1, a1 *Poly, c *big.Int) {
	sameShape(o0, a0)
	sameShape(o1, a1)
	sameShape(a0, a1)
	ws := make([]uint64, len(a0.Moduli))
	tmp := new(big.Int)
	for i, q := range a0.Moduli {
		ws[i] = tmp.Mod(c, new(big.Int).SetUint64(q)).Uint64()
	}
	r := len(a0.Moduli)
	engine.Dispatch(2*r, a0.ctx.N, func(t int) {
		o, a := o0, a0
		i := t
		if t >= r {
			o, a = o1, a1
			i = t - r
		}
		q := a.Moduli[i]
		w := ws[i]
		wsh := nt.ShoupPrecomp(w, q)
		pa, pp := a.Coeffs[i], o.Coeffs[i]
		for k := range pp {
			pp[k] = nt.MulModShoup(pa[k], w, wsh, q)
		}
	})
}

// autoPermuteRow applies the cached automorphism permutation (with sign
// bits) of one residue row: dst[tab[j]&mask] = ±src[j].
func autoPermuteRow(dst, src, tab []uint64, q uint64) {
	for j, e := range tab {
		v := src[j]
		if e&autoSignBit != 0 {
			if v != 0 {
				v = q - v
			}
			e &^= autoSignBit
		}
		dst[e] = v
	}
}

// AutomorphismNTT returns NTT(φ_k(p)) for coefficient-domain p, fusing
// the permutation with the forward transform per row — the permuted row
// is transformed while still cache-resident instead of after a full
// second pass. Bit-identical to p.Automorphism(k) followed by NTT().
func (p *Poly) AutomorphismNTT(k uint64) *Poly {
	if p.IsNTT {
		panic("ring: AutomorphismNTT requires coefficient domain")
	}
	tab := p.ctx.AutomorphismTable(k)
	out := p.ctx.GetPoly(p.Moduli)
	out.IsNTT = true
	tabs := p.tables()
	engine.DispatchFused(len(p.Moduli), p.ctx.N,
		func(i int) { autoPermuteRow(out.Coeffs[i], p.Coeffs[i], tab, p.Moduli[i]) },
		func(i int) { tabs[i].Forward(out.Coeffs[i]) },
	)
	return out
}

// AutomorphismFromNTTBatch returns φ_k applied to each NTT-domain input,
// as pooled coefficient-domain polynomials. Per row the chain
// copy→inverse-NTT→permute runs as one work item, and all polynomials'
// rows share a single fork/join. Bit-identical to
// ScratchCopy+INTT+Automorphism per polynomial.
func AutomorphismFromNTTBatch(k uint64, ps ...*Poly) []*Poly {
	outs := make([]*Poly, len(ps))
	for i, p := range ps {
		if !p.IsNTT {
			panic("ring: AutomorphismFromNTTBatch requires NTT domain")
		}
		outs[i] = p.ctx.GetPoly(p.Moduli)
		outs[i].IsNTT = false
	}
	if len(ps) == 0 {
		return outs
	}
	ctx := ps[0].ctx
	tab := ctx.AutomorphismTable(k)
	rows := flatten(ps)
	outRow := make([][]uint64, len(rows))
	pos := 0
	for i, p := range ps {
		for r := range p.Coeffs {
			outRow[pos] = outs[i].Coeffs[r]
			pos++
		}
	}
	engine.Dispatch(len(rows), 3*ctx.N, func(t int) {
		fr := rows[t]
		q := fr.p.Moduli[fr.r]
		scratch := ctx.GetVec()
		copy(scratch, fr.p.Coeffs[fr.r])
		ctx.Table(q).Inverse(scratch)
		autoPermuteRow(outRow[t], scratch, tab, q)
		ctx.PutVec(scratch)
	})
	return outs
}
