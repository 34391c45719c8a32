package ring

import (
	"math/big"
	"slices"

	"bitpacker/internal/engine"
	"bitpacker/internal/nt"
	"bitpacker/internal/ntt"
)

// Row kernels, written once. Every entry point of this package — the Poly
// methods the staged evaluator calls and the …Pair/…Batch/…Seeded
// functions the fused one calls — is an instantiation of the kernels
// below under one of two dispatch shapes:
//
//	each(op), perRow(ops...)  every row of every op is its own task, one fork/join
//	fused(steps...)           the steps run back to back on row i, one task per row
//
// so the two evaluators differ below the evaluator only in how rows are
// batched, and a word type other than uint64 has one place to be written.

// rowOp is a row kernel bound to its operand polynomials: run(i) applies
// it to residue row i and touches no other row of any operand. That is
// engine.DispatchFused's aliasing contract, and it is what makes every
// instantiation bit-identical at every worker count under either shape.
// Constructors check the operands' shapes, so a rowOp that exists is
// well-formed.
type rowOp struct {
	rows int // rows covered; zero when there is nothing to do
	n    int // cost hint per row: the ring degree
	run  func(i int)
}

func (p *Poly) op(run func(i int)) rowOp { return rowOp{len(p.Coeffs), p.ctx.N, run} }

// table is the NTT table of p's row i, looked up by the task that uses it
// (a read-locked map hit; tables are built once per modulus).
func (p *Poly) table(i int) *ntt.Table { return p.ctx.Table(p.Moduli[i]) }

// each runs every row of one op as its own task. It is perRow for a
// single op without the variadic slice and the index-mapping closure,
// which keeps a staged entry point at one allocation (the op's own).
func each(op rowOp) { engine.Dispatch(op.rows, op.n, op.run) }

// perRow is each over several ops at once: their rows are flattened into
// a single fork/join, which matters when the per-polynomial residue count
// is small compared to the worker count. Inline, tasks run in argument
// order.
func perRow(ops ...rowOp) {
	tasks, n := 0, 0
	for _, o := range ops {
		tasks += o.rows
		n = max(n, o.n)
	}
	engine.Dispatch(tasks, n, func(t int) {
		for _, o := range ops {
			if t < o.rows {
				o.run(t)
				return
			}
			t -= o.rows
		}
	})
}

// fused chains the steps into one work item per residue row, so a row's
// coefficients stay in L1/L2 across copy→transform→pointwise→accumulate
// instead of being evicted between full-vector passes. Steps with no
// rows (a transform into the domain the operand is already in) drop out.
func fused(steps ...rowOp) {
	rows, n := 0, 0
	runs := make([]func(int), 0, len(steps))
	for _, s := range steps {
		if s.rows == 0 {
			continue
		}
		if rows != 0 && s.rows != rows {
			panic("ring: residue count mismatch")
		}
		rows, n = s.rows, s.n
		runs = append(runs, s.run)
	}
	engine.DispatchFused(rows, n, runs...)
}

// view wraps rows over the given moduli as a polynomial that aliases
// them; PutPoly refuses to recycle it.
func (c *Context) view(moduli []uint64, rows [][]uint64, isNTT bool) *Poly {
	return &Poly{ctx: c, Moduli: moduli, Coeffs: rows, IsNTT: isNTT, shared: true}
}

// scratchLike returns a pooled polynomial of p's shape and domain with
// unspecified coefficients; release with Context.PutPoly.
func (p *Poly) scratchLike() *Poly {
	q := p.ctx.GetPoly(p.Moduli)
	q.IsNTT = p.IsNTT
	return q
}

// sameShape panics unless a and b have identical moduli and domain.
func sameShape(a, b *Poly) {
	if len(a.Moduli) != len(b.Moduli) {
		panic("ring: residue count mismatch")
	}
	for i := range a.Moduli {
		if a.Moduli[i] != b.Moduli[i] {
			panic("ring: moduli mismatch")
		}
	}
	if a.IsNTT != b.IsNTT {
		panic("ring: NTT domain mismatch")
	}
}

// needNTT panics, in the name of entry point who, unless p is in the
// evaluation domain (want) or the coefficient domain (!want).
func needNTT(who string, p *Poly, want bool) {
	if p.IsNTT != want {
		if want {
			panic("ring: " + who + " requires NTT domain")
		}
		panic("ring: " + who + " requires coefficient domain")
	}
}

// Additive kernels: o = a + b, o = a − b, o = −a. Operands may alias.

func addRow(o, a, b []uint64, q uint64) {
	a, b = a[:len(o)], b[:len(o)]
	for k := range o {
		o[k] = nt.AddMod(a[k], b[k], q)
	}
}

func subRow(o, a, b []uint64, q uint64) {
	a, b = a[:len(o)], b[:len(o)]
	for k := range o {
		o[k] = nt.SubMod(a[k], b[k], q)
	}
}

func binaryOp(kernel func(o, a, b []uint64, q uint64), o, a, b *Poly) rowOp {
	sameShape(a, b)
	sameShape(o, a)
	return o.op(func(i int) { kernel(o.Coeffs[i], a.Coeffs[i], b.Coeffs[i], o.Moduli[i]) })
}

func addOp(o, a, b *Poly) rowOp { return binaryOp(addRow, o, a, b) }
func subOp(o, a, b *Poly) rowOp { return binaryOp(subRow, o, a, b) }

func negOp(o, a *Poly) rowOp {
	sameShape(o, a)
	return o.op(func(i int) {
		q := o.Moduli[i]
		pa, pp := a.Coeffs[i], o.Coeffs[i]
		for k := range pp {
			pp[k] = nt.NegMod(pa[k], q)
		}
	})
}

func copyOp(o, a *Poly) rowOp {
	sameShape(o, a)
	return o.op(func(i int) { copy(o.Coeffs[i], a.Coeffs[i]) })
}

func zeroOp(o *Poly) rowOp {
	return o.op(func(i int) { clear(o.Coeffs[i]) })
}

// Pointwise products, evaluation domain only (where the pointwise product
// is ring multiplication): o = a⊙b, o += a⊙b, o = a0⊙b1 + a1⊙b0, and the
// inner products o0 = Σ φ(x_t)⊙y0_t, o1 = Σ φ(x_t)⊙y1_t. The
// per-coefficient loops are the NTT table's, which reduce through its
// Barrett constants rather than a hardware divide per coefficient.

func productOp(kernel func(t *ntt.Table, o, a, b []uint64), who string, o, a, b *Poly) rowOp {
	sameShape(a, b)
	sameShape(o, a)
	needNTT(who, a, true)
	return o.op(func(i int) { kernel(o.table(i), o.Coeffs[i], a.Coeffs[i], b.Coeffs[i]) })
}

func mulOp(who string, o, a, b *Poly) rowOp {
	return productOp((*ntt.Table).MulCoeffs, who, o, a, b)
}

func mulAddOp(who string, o, a, b *Poly) rowOp {
	return productOp((*ntt.Table).MulCoeffsAdd, who, o, a, b)
}

func crossOp(who string, o, a0, b1, a1, b0 *Poly) rowOp {
	sameShape(a0, b1)
	sameShape(a0, a1)
	sameShape(a0, b0)
	sameShape(o, a0)
	needNTT(who, a0, true)
	return o.op(func(i int) {
		o.table(i).MulCoeffsCross(o.Coeffs[i], a0.Coeffs[i], b1.Coeffs[i], a1.Coeffs[i], b0.Coeffs[i])
	})
}

// innerOp sets o0 = Σ_t φ_k(X_t)⊙Y0_t and o1 = Σ_t φ_k(X_t)⊙Y1_t row by
// row through the table's InnerProduct: one reduction per coefficient
// per group of terms instead of one per product. A term's operands share
// their moduli, which are a prefix of the outputs' (a live-width term
// adds nothing to an extended output's special rows), and an X row's
// length is a power of two dividing N, one word per run; a term without
// Y1 draws it from the row stream of its seed. The Galois map is read in
// place, so no output may alias an X when k != 1.
func innerOp(who string, o0, o1 *Poly, k uint64, terms []Term) rowOp {
	sameShape(o0, o1)
	needNTT(who, o0, true)
	for _, tm := range terms {
		needNTT(who, tm.X, true)
		sameShape(tm.X, tm.Y0)
		if tm.Y1 != nil {
			sameShape(tm.X, tm.Y1)
		}
		if len(tm.X.Moduli) > len(o0.Moduli) || !slices.Equal(tm.X.Moduli, o0.Moduli[:len(tm.X.Moduli)]) {
			panic("ring: " + who + ": term moduli are not a prefix of the output's")
		}
		for _, row := range tm.X.Coeffs {
			if len(row) == 0 || o0.ctx.N%len(row) != 0 {
				panic("ring: " + who + ": X row length does not divide N")
			}
		}
	}
	var gather []uint64
	if k != 1 {
		gather = o0.ctx.AutomorphismNTTTable(k)
	}
	return rowOp{len(o0.Coeffs), o0.ctx.N * max(len(terms), 1), func(i int) {
		var buf [8]ntt.Term // a keyswitch's digits or a giant's diagonals; more go to the heap
		ts := buf[:0]
		for _, tm := range terms {
			if i >= len(tm.X.Coeffs) {
				continue
			}
			r := ntt.Term{X: tm.X.Coeffs[i], Y0: tm.Y0.Coeffs[i]}
			if tm.Y1 != nil {
				r.Y1 = tm.Y1.Coeffs[i]
			} else {
				r.Stream = rowStream(o0.Moduli[i], tm.Seed)
			}
			ts = append(ts, r)
		}
		o0.table(i).InnerProduct(o0.Coeffs[i], o1.Coeffs[i], gather, ts)
	}}
}

// reduceBig reduces an arbitrary (possibly negative) integer modulo each
// modulus. The big.Int reductions run sequentially (big.Int is not
// goroutine-safe to share); only the residue sweeps are fanned out.
func reduceBig(c *big.Int, moduli []uint64) []uint64 {
	ws := make([]uint64, len(moduli))
	tmp := new(big.Int)
	for i, q := range moduli {
		ws[i] = tmp.Mod(c, new(big.Int).SetUint64(q)).Uint64()
	}
	return ws
}

// scalarOp sets o = a·ws[i] on row i by Shoup multiplication; ws comes
// from reduceBig over a's moduli. Shoup multiplication of canonical
// inputs is canonical, in either domain.
func scalarOp(o, a *Poly, ws []uint64) rowOp {
	sameShape(o, a)
	return o.op(func(i int) {
		q, w := o.Moduli[i], ws[i]
		wsh := nt.ShoupPrecomp(w, q)
		pp := o.Coeffs[i]
		for k, x := range a.Coeffs[i][:len(pp)] {
			pp[k] = nt.MulModShoup(x, w, wsh, q)
		}
	})
}

// addScalarOp sets o = a + c for the constant polynomial c, in the
// evaluation domain, where a constant is the same word ws[i] at every
// point of row i; ws comes from reduceBig over a's moduli.
func addScalarOp(who string, o, a *Poly, ws []uint64) rowOp {
	needNTT(who, a, true)
	sameShape(o, a)
	return o.op(func(i int) {
		q, w := o.Moduli[i], ws[i]
		pp := o.Coeffs[i]
		for k, x := range a.Coeffs[i][:len(pp)] {
			pp[k] = nt.AddMod(x, w, q)
		}
	})
}

// uniformOp regenerates every row of p from (seed, modulus).
func uniformOp(p *Poly, seed Seed) rowOp {
	return p.op(func(i int) { UniformRowFromSeed(p.Coeffs[i], p.Moduli[i], seed) })
}

// Transforms. The flag flips when the step is built, the rows follow when
// it runs: later steps of the same chain are thereby checked against the
// domain they will see. A polynomial already in the target domain yields
// the empty step, so the per-residue transforms (independent, on the
// engine's worker pool) are paid only where a row actually moves.

func forwardOp(p *Poly) rowOp {
	if p.IsNTT {
		return rowOp{}
	}
	p.IsNTT = true
	return p.op(func(i int) { p.table(i).Forward(p.Coeffs[i]) })
}

func inverseOp(p *Poly) rowOp {
	if !p.IsNTT {
		return rowOp{}
	}
	p.IsNTT = false
	return p.op(func(i int) { p.table(i).Inverse(p.Coeffs[i]) })
}

// permuteOp sets o = φ_k(a) in the coefficient domain through the cached
// permutation (with sign bits): o[tab[j]&mask] = ±a[j]. Every output slot
// is written exactly once (j -> j*k mod 2N is a bijection on odd k), so a
// pooled non-zeroed o is safe. o must not alias a.
func permuteOp(who string, o, a *Poly, k uint64) rowOp {
	needNTT(who, a, false)
	sameShape(o, a)
	tab := a.ctx.AutomorphismTable(k)
	return o.op(func(i int) {
		q := o.Moduli[i]
		dst, src := o.Coeffs[i], a.Coeffs[i]
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
	})
}

// gatherOp sets o = φ_k(a) in the evaluation domain: a pure gather of
// evaluation points, o[j] = a[tab[j]]. o must not alias a.
func gatherOp(who string, o, a *Poly, k uint64) rowOp {
	needNTT(who, a, true)
	sameShape(o, a)
	tab := a.ctx.AutomorphismNTTTable(k)
	return o.op(func(i int) {
		src, dst := a.Coeffs[i], o.Coeffs[i]
		for j, s := range tab {
			dst[j] = src[s]
		}
	})
}

// gatherAddOp sets o = φ_k(a) + b in the evaluation domain, adding while
// the gathered word is still in a register. o must not alias a.
func gatherAddOp(who string, o, a, b *Poly, k uint64) rowOp {
	needNTT(who, a, true)
	sameShape(a, b)
	sameShape(o, a)
	tab := a.ctx.AutomorphismNTTTable(k)
	return o.op(func(i int) {
		q := o.Moduli[i]
		src, add, dst := a.Coeffs[i], b.Coeffs[i], o.Coeffs[i]
		for j, s := range tab {
			dst[j] = nt.AddMod(src[s], add[j], q)
		}
	})
}
