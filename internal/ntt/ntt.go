// Package ntt implements the negacyclic number-theoretic transform over
// Z_q[X]/(X^N+1) for NTT-friendly primes q ≡ 1 (mod 2N).
//
// The implementation follows Longa & Naehrig's merged-twiddle formulation:
// the forward transform is a decimation-in-time Cooley-Tukey butterfly
// network over powers of ψ (a primitive 2N-th root of unity) stored in
// bit-reversed order, and the inverse is the matching Gentleman-Sande
// network. Twiddle multiplications use Shoup's precomputed-quotient trick.
//
// Both transforms use lazy reduction (Longa–Naehrig / Harvey): butterfly
// operands travel in [0, 4q) forward and [0, 2q) inverse, with a single
// correction pass at the end. This is exactly what nt.MaxModulusBits = 62
// reserves its two slack bits for: 4q < 2^64 keeps every lazy sum inside
// one machine word.
package ntt

import (
	"fmt"
	"math/bits"
	"sync"

	"bitpacker/internal/nt"
)

// Table holds the precomputed twiddle factors for one (q, N) pair.
// Tables are immutable after creation and safe for concurrent use.
type Table struct {
	Q uint64 // modulus, prime, q ≡ 1 mod 2N
	N int    // transform size, power of two

	psi      []uint64 // ψ^bitrev(i), i in [0, N)
	psiShoup []uint64
	inv      []uint64 // ψ^{-bitrev(i)}
	invShoup []uint64
	nInv     uint64 // N^{-1} mod q
	nInvSh   uint64
	// invN1 = inv[1]·N^{-1} mod q: the last inverse stage's single twiddle
	// with the final N^{-1} scaling folded in, so the correction pass
	// disappears into the last butterfly (N >= 2 only).
	invN1   uint64
	invN1Sh uint64

	// Barrett constant floor(2^128/q) for division-free pointwise products.
	brHi, brLo uint64
	// mu = nt.WordBarrett(q), set only when q < 2^32: a product of two
	// residues then fits one word and the pointwise kernels reduce it
	// with nt.ReduceWord. Zero selects the two-word Barrett path.
	mu uint64
}

// NewTable precomputes an NTT table for modulus q and size n (a power of
// two). It returns an error if q is not an NTT-friendly prime for n.
func NewTable(q uint64, n int) (*Table, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ntt: size %d is not a power of two", n)
	}
	if bits.Len64(q) > nt.MaxModulusBits {
		return nil, fmt.Errorf("ntt: modulus %d exceeds %d bits", q, nt.MaxModulusBits)
	}
	if !nt.IsNTTFriendly(q, uint64(2*n)) {
		return nil, fmt.Errorf("ntt: %d is not an NTT-friendly prime for N=%d", q, n)
	}
	psi := nt.PrimitiveNthRoot(uint64(2*n), q)
	psiInv := nt.InvMod(psi, q)

	t := &Table{
		Q:        q,
		N:        n,
		psi:      make([]uint64, n),
		psiShoup: make([]uint64, n),
		inv:      make([]uint64, n),
		invShoup: make([]uint64, n),
	}
	logN := bits.Len(uint(n)) - 1
	fwd, bwd := uint64(1), uint64(1)
	powF := make([]uint64, n)
	powB := make([]uint64, n)
	for i := 0; i < n; i++ {
		powF[i] = fwd
		powB[i] = bwd
		fwd = nt.MulMod(fwd, psi, q)
		bwd = nt.MulMod(bwd, psiInv, q)
	}
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> (64 - logN))
		t.psi[i] = powF[j]
		t.psiShoup[i] = nt.ShoupPrecomp(powF[j], q)
		t.inv[i] = powB[j]
		t.invShoup[i] = nt.ShoupPrecomp(powB[j], q)
	}
	t.nInv = nt.InvMod(uint64(n), q)
	t.nInvSh = nt.ShoupPrecomp(t.nInv, q)
	if n >= 2 {
		t.invN1 = nt.MulMod(t.inv[1], t.nInv, q)
		t.invN1Sh = nt.ShoupPrecomp(t.invN1, q)
	}
	t.brHi, t.brLo = nt.BarrettConstant(q)
	if q < 1<<32 {
		t.mu = nt.WordBarrett(q)
	}
	return t, nil
}

// Forward transforms a (coefficient-domain, values < q) in place into the
// NTT evaluation domain. len(a) must equal t.N. Outputs are fully reduced
// (< q).
//
// The butterfly network is lazy: values stay in [0, 4q) between stages.
// Each butterfly reduces its sum operand into [0, 2q), takes the twiddle
// product in [0, 2q) via the subtraction-free Shoup multiply, and emits
// u+v and u-v+2q, both < 4q. Since q < 2^62 (nt.MaxModulusBits), 4q never
// overflows uint64. The [0, 4q) → [0, q) correction is folded into the
// last butterfly stage (which already writes every word once), so the
// transform makes no separate correction pass over the vector.
func (t *Table) Forward(a []uint64) {
	if len(a) != t.N {
		panic("ntt: length mismatch")
	}
	q := t.Q
	q2 := q << 1
	n := t.N
	step := n
	for m := 1; m < n>>1; m <<= 1 {
		step >>= 1
		for i := 0; i < m; i++ {
			w := t.psi[m+i]
			ws := t.psiShoup[m+i]
			j1 := 2 * i * step
			lo := a[j1 : j1+step : j1+step]
			hi := a[j1+step : j1+2*step : j1+2*step]
			for j := range lo {
				u := lo[j]
				if u >= q2 {
					u -= q2
				}
				v := nt.MulModLazyShoup(hi[j], w, ws, q)
				lo[j] = u + v
				hi[j] = u + q2 - v
			}
		}
	}
	// Last stage (step == 1), with the final correction fused in: the
	// emitted u+v and u+2q-v are reduced from [0, 4q) to [0, q) in
	// registers, exactly as the separate pass would.
	for i, m := 0, n>>1; i < m; i++ {
		w := t.psi[m+i]
		ws := t.psiShoup[m+i]
		u := a[2*i]
		if u >= q2 {
			u -= q2
		}
		v := nt.MulModLazyShoup(a[2*i+1], w, ws, q)
		x := u + v
		if x >= q2 {
			x -= q2
		}
		if x >= q {
			x -= q
		}
		y := u + q2 - v
		if y >= q2 {
			y -= q2
		}
		if y >= q {
			y -= q
		}
		a[2*i] = x
		a[2*i+1] = y
	}
}

// Inverse transforms a (NTT domain, values < q) in place back into
// coefficients, fully reduced (< q).
//
// The Gentleman-Sande network keeps values in [0, 2q): the sum branch is
// reduced with one conditional subtraction, the difference branch feeds
// u-v+2q (< 4q, safe for q < 2^62) into the lazy Shoup multiply which
// lands back in [0, 2q). The final N^{-1} scaling is folded into the last
// stage: its single twiddle becomes inv[1]·N^{-1} (precomputed), and the
// sum branch takes the exact Shoup multiply by N^{-1} directly — both
// branches emit the same fully reduced words the separate scaling pass
// produced, without re-reading the vector. (The exact Shoup multiply
// fully reduces any operand < 4q, since its lazy product lies in [0, 2q)
// for q < 2^62; the lazy transforms rely on the same bound.)
func (t *Table) Inverse(a []uint64) {
	if len(a) != t.N {
		panic("ntt: length mismatch")
	}
	q := t.Q
	q2 := q << 1
	n := t.N
	if n == 1 {
		a[0] = nt.MulModShoup(a[0], t.nInv, t.nInvSh, q)
		return
	}
	step := 1
	for m := n >> 1; m >= 2; m >>= 1 {
		for i := 0; i < m; i++ {
			w := t.inv[m+i]
			ws := t.invShoup[m+i]
			j1 := 2 * i * step
			lo := a[j1 : j1+step : j1+step]
			hi := a[j1+step : j1+2*step : j1+2*step]
			for j := range lo {
				u := lo[j]
				v := hi[j]
				s := u + v
				if s >= q2 {
					s -= q2
				}
				lo[j] = s
				hi[j] = nt.MulModLazyShoup(u+q2-v, w, ws, q)
			}
		}
		step <<= 1
	}
	// Last stage (m == 1) with the N^{-1} scaling fused in.
	half := n >> 1
	w, ws := t.invN1, t.invN1Sh
	nInv, nInvSh := t.nInv, t.nInvSh
	lo := a[:half:half]
	hi := a[half:n:n]
	for j := range lo {
		u := lo[j]
		v := hi[j]
		s := u + v
		if s >= q2 {
			s -= q2
		}
		lo[j] = nt.MulModShoup(s, nInv, nInvSh, q)
		hi[j] = nt.MulModShoup(u+q2-v, w, ws, q)
	}
}

// MulCoeffs stores the pointwise product of a and b (both NTT domain) in
// out. All slices must have length t.N; aliasing is allowed. The product
// uses the precomputed Barrett constant, avoiding the hardware divide
// nt.MulMod pays per coefficient; below 2^32 the product fits one word
// and takes the one-word reduction instead.
func (t *Table) MulCoeffs(out, a, b []uint64) {
	q, bhi, blo := t.Q, t.brHi, t.brLo
	a = a[:len(out)]
	b = b[:len(out)]
	if mu := t.mu; mu != 0 {
		for i := range out {
			out[i] = nt.ReduceWord(a[i]*b[i], q, mu)
		}
		return
	}
	for i := range out {
		out[i] = nt.MulModBarrett(a[i], b[i], q, bhi, blo)
	}
}

// MulCoeffsAdd accumulates the pointwise product of a and b (both NTT
// domain) into out: out[i] = out[i] + a[i]*b[i] mod q.
func (t *Table) MulCoeffsAdd(out, a, b []uint64) {
	q, bhi, blo := t.Q, t.brHi, t.brLo
	a = a[:len(out)]
	b = b[:len(out)]
	if mu := t.mu; mu != 0 {
		// (q−1)² + (q−1) < 2^64: the accumulator rides along in the
		// product word and is reduced with it.
		for i := range out {
			out[i] = nt.ReduceWord(a[i]*b[i]+out[i], q, mu)
		}
		return
	}
	for i := range out {
		out[i] = nt.AddMod(out[i], nt.MulModBarrett(a[i], b[i], q, bhi, blo), q)
	}
}

// MulCoeffsCross stores the cross product out[i] = a0[i]*b1[i] +
// a1[i]*b0[i] mod q (all NTT domain) — the middle term of a degree-1
// ciphertext product, computed in one pass instead of a MulCoeffs
// followed by a MulCoeffsAdd.
func (t *Table) MulCoeffsCross(out, a0, b1, a1, b0 []uint64) {
	q, bhi, blo := t.Q, t.brHi, t.brLo
	a0 = a0[:len(out)]
	b1 = b1[:len(out)]
	a1 = a1[:len(out)]
	b0 = b0[:len(out)]
	if mu := t.mu; mu != 0 {
		// Two raw products can exceed one word at 32 bits, so the first
		// is reduced before it joins the second.
		for i := range out {
			out[i] = nt.ReduceWord(a1[i]*b0[i]+nt.ReduceWord(a0[i]*b1[i], q, mu), q, mu)
		}
		return
	}
	for i := range out {
		x := nt.MulModBarrett(a0[i], b1[i], q, bhi, blo)
		y := nt.MulModBarrett(a1[i], b0[i], q, bhi, blo)
		out[i] = nt.AddMod(x, y, q)
	}
}

// scratch pools the transform-sized temporaries PolyMul needs, so
// repeated schoolbook-replacement multiplies allocate nothing in steady
// state. Slices are keyed by capacity check, not length, so one pool
// serves every table size in the process.
var scratch sync.Pool

func getScratch(n int) []uint64 {
	if p, _ := scratch.Get().(*[]uint64); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]uint64, n)
}

func putScratch(v []uint64) {
	scratch.Put(&v)
}

// PolyMul multiplies two coefficient-domain polynomials negacyclically
// (mod X^N+1, mod q), writing coefficients into out. It is a convenience
// for tests; hot paths keep operands in the NTT domain.
func (t *Table) PolyMul(out, a, b []uint64) {
	ta := getScratch(t.N)
	tb := getScratch(t.N)
	copy(ta, a)
	copy(tb, b)
	t.Forward(ta)
	t.Forward(tb)
	t.MulCoeffs(ta, ta, tb)
	t.Inverse(ta)
	copy(out, ta)
	putScratch(ta)
	putScratch(tb)
}
