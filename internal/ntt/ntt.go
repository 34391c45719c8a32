// Package ntt implements the negacyclic number-theoretic transform over
// Z_q[X]/(X^N+1) for NTT-friendly primes q ≡ 1 (mod 2N).
//
// The implementation follows Longa & Naehrig's merged-twiddle formulation:
// the forward transform is a decimation-in-time Cooley-Tukey butterfly
// network over powers of ψ (a primitive 2N-th root of unity) stored in
// bit-reversed order, and the inverse is the matching Gentleman-Sande
// network. Twiddle multiplications use Shoup's precomputed-quotient trick.
//
// Both transforms use lazy reduction (Longa–Naehrig / Harvey) in one of
// two regimes chosen per table from the modulus: corrected, where operands
// are folded back at every stage and travel in [0, 4q) forward and
// [0, 2q) inverse — what nt.MaxModulusBits = 62 reserves its two slack
// bits for — and correction-free, where a modulus with 2N·q < 2^64 has
// the headroom to skip every intermediate fold. Either way the outputs
// are canonical, so the regime is invisible outside this file.
package ntt

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"bitpacker/internal/nt"
)

// transforms counts Forward and Inverse calls process-wide (one atomic
// add each): a work count that reads the same on every host.
var transforms atomic.Uint64

// Transforms returns the number of Forward and Inverse calls so far.
func Transforms() uint64 { return transforms.Load() }

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
	// group is how many raw products the sums of InnerProduct and
	// MulCoeffsCross accumulate between reductions: nt.NarrowTerms(q) in
	// one word when mu is set, nt.WideTerms(q) in two words otherwise.
	group int
	// lazyMu = nt.WordBarrett(q), set only when 2N·q < 2^64 (every
	// q < 2^32 qualifies): it selects the correction-free regime of
	// Forward and Inverse and finishes Forward's outputs. Zero selects
	// the corrected regime.
	lazyMu uint64
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
		t.mu, t.group = nt.WordBarrett(q), nt.NarrowTerms(q)
	} else {
		t.group = nt.WideTerms(q)
	}
	if hi, _ := bits.Mul64(uint64(2*n), q); hi == 0 {
		t.lazyMu = nt.WordBarrett(q)
	}
	return t, nil
}

// The two lazy regimes. A transform kernel is written once over a regime
// type parameter and compiled once per regime: the array length of R is a
// constant inside each instantiation, so isFree folds away and the
// `corrected` copy carries every conditional subtraction while the
// `correctionFree` copy carries none — a butterfly consults no run-time
// flag.
//
//   - corrected: every modulus up to nt.MaxModulusBits. Operands are
//     folded back below 2q at each stage, so nothing exceeds 4q < 2^64.
//   - correction-free: moduli with 2N·q < 2^64 (NewTable sets t.lazyMu),
//     which includes every q < 2^32 since 2N < q. No intermediate
//     correction is made at all; the proofs that nothing overflows are on
//     Forward and Inverse. This is the narrow word's headroom, spent on
//     the host.
type (
	corrected      = [0]struct{}
	correctionFree = [1]struct{}
	regime         interface{ corrected | correctionFree }
)

func isFree[R regime]() bool {
	var r R
	return len(r) == 1
}

// Forward transforms a (coefficient domain) in place into the NTT
// evaluation domain. len(a) must equal t.N. Inputs may be lazy, in
// [0, 2q); outputs are fully reduced (< q).
//
// Pass structure: the logN butterfly stages run two per sweep over the
// vector (radix-4: four quarter-slices, three twiddles per block), after
// one radix-2 sweep when the count is odd, and the last three stages
// (strides 4, 2, 1) run on eight words held in registers together with
// the final correction, so the vector is read and written ⌈(logN−3)/2⌉+1
// times instead of logN.
//
// Corrected regime: a butterfly folds its sum operand u from [0, 4q) into
// [0, 2q), takes the twiddle product v in [0, 2q) from the
// subtraction-free Shoup multiply (which lands there for any 64-bit
// operand), and emits u+v and u−v+2q, both < 4q. Since q < 2^62
// (nt.MaxModulusBits), 4q never overflows uint64; the last stage reduces
// [0, 4q) → [0, q) with two conditional subtractions.
//
// Correction-free regime: the fold is dropped. With v < 2q whatever its
// operand, u+v and u−v+2q exceed u by at most 2q, so inputs below 2q stay
// below (2·logN+2)·q after logN stages; 2·logN+2 ≤ 2N for every N ≥ 1,
// so the selection rule 2N·q < 2^64 keeps every word inside uint64, and
// each output is finished by one nt.ReduceWord.
func (t *Table) Forward(a []uint64) {
	if len(a) != t.N {
		panic("ntt: length mismatch")
	}
	transforms.Add(1)
	if t.lazyMu != 0 {
		forward[correctionFree](t, a)
	} else {
		forward[corrected](t, a)
	}
}

func forward[R regime](t *Table, a []uint64) {
	// Stages m = 1, 2, …, end/2 are sweeps; the 8-point tail takes the
	// last three when there are that many.
	n, end := t.N, t.N
	if n >= 8 {
		end = n >> 3
	}
	m := 1
	if bits.TrailingZeros(uint(end))&1 == 1 {
		fwdPass2[R](t, a, 1)
		m = 2
	}
	for ; m < end; m <<= 2 {
		fwdPass4[R](t, a, m)
	}
	if n >= 8 {
		fwdTail8[R](t, a)
		return
	}
	for i, x := range a {
		a[i] = finish(x, t.Q, t.lazyMu, isFree[R]())
	}
}

// ct is the Cooley-Tukey butterfly (u, v) → (u + v·w, u − v·w + 2q).
func ct(u, v, w, ws, q, q2 uint64, free bool) (uint64, uint64) {
	if !free && u >= q2 {
		u -= q2
	}
	p := nt.MulModLazyShoup(v, w, ws, q)
	return u + p, u + q2 - p
}

// finish reduces a forward output to [0, q): from [0, 4q) in the
// corrected regime, from anywhere in the word in the free one.
func finish(x, q, mu uint64, free bool) uint64 {
	if free {
		return nt.ReduceWord(x, q, mu)
	}
	if x >= q<<1 {
		x -= q << 1
	}
	if x >= q {
		x -= q
	}
	return x
}

// fwdPass2 runs stage m alone: m blocks of two halves, one twiddle each.
func fwdPass2[R regime](t *Table, a []uint64, m int) {
	free := isFree[R]()
	q, q2 := t.Q, t.Q<<1
	h := t.N / (2 * m)
	for i := 0; i < m; i++ {
		w, ws := t.psi[m+i], t.psiShoup[m+i]
		b := a[2*i*h:]
		lo, hi := b[:h:h], b[h:][:h:h]
		for j := range lo {
			lo[j], hi[j] = ct(lo[j], hi[j], w, ws, q, q2, free)
		}
	}
}

// fwdPass4 runs stages m and 2m in one sweep. Block i of stage m is four
// quarters x0..x3: stage m pairs (x0,x2) and (x1,x3) under ψ[m+i], stage
// 2m pairs (x0,x1) under ψ[2m+2i] and (x2,x3) under ψ[2m+2i+1].
func fwdPass4[R regime](t *Table, a []uint64, m int) {
	free := isFree[R]()
	q, q2 := t.Q, t.Q<<1
	h := t.N / (4 * m)
	for i := 0; i < m; i++ {
		w1, s1 := t.psi[m+i], t.psiShoup[m+i]
		w2, s2 := t.psi[2*m+2*i], t.psiShoup[2*m+2*i]
		w3, s3 := t.psi[2*m+2*i+1], t.psiShoup[2*m+2*i+1]
		b := a[4*i*h:]
		x0, x1, x2, x3 := b[:h:h], b[h:][:h:h], b[2*h:][:h:h], b[3*h:][:h:h]
		for j := range x0 {
			u0, u2 := ct(x0[j], x2[j], w1, s1, q, q2, free)
			u1, u3 := ct(x1[j], x3[j], w1, s1, q, q2, free)
			x0[j], x1[j] = ct(u0, u1, w2, s2, q, q2, free)
			x2[j], x3[j] = ct(u2, u3, w3, s3, q, q2, free)
		}
	}
}

// fwdTail8 runs the last three stages (m = N/8, N/4, N/2; strides 4, 2,
// 1) on each aligned run of eight words in registers — seven twiddles per
// block — and finishes the eight outputs.
func fwdTail8[R regime](t *Table, a []uint64) {
	free := isFree[R]()
	q, q2, mu := t.Q, t.Q<<1, t.lazyMu
	n := t.N
	for i := 0; i < n>>3; i++ {
		w1, s1 := t.psi[n>>3+i], t.psiShoup[n>>3+i]
		w2, s2 := t.psi[n>>2+2*i:][:2:2], t.psiShoup[n>>2+2*i:][:2:2]
		w4, s4 := t.psi[n>>1+4*i:][:4:4], t.psiShoup[n>>1+4*i:][:4:4]
		x := a[8*i:][:8:8]
		x0, x4 := ct(x[0], x[4], w1, s1, q, q2, free)
		x1, x5 := ct(x[1], x[5], w1, s1, q, q2, free)
		x2, x6 := ct(x[2], x[6], w1, s1, q, q2, free)
		x3, x7 := ct(x[3], x[7], w1, s1, q, q2, free)
		x0, x2 = ct(x0, x2, w2[0], s2[0], q, q2, free)
		x1, x3 = ct(x1, x3, w2[0], s2[0], q, q2, free)
		x4, x6 = ct(x4, x6, w2[1], s2[1], q, q2, free)
		x5, x7 = ct(x5, x7, w2[1], s2[1], q, q2, free)
		x0, x1 = ct(x0, x1, w4[0], s4[0], q, q2, free)
		x2, x3 = ct(x2, x3, w4[1], s4[1], q, q2, free)
		x4, x5 = ct(x4, x5, w4[2], s4[2], q, q2, free)
		x6, x7 = ct(x6, x7, w4[3], s4[3], q, q2, free)
		x[0], x[1] = finish(x0, q, mu, free), finish(x1, q, mu, free)
		x[2], x[3] = finish(x2, q, mu, free), finish(x3, q, mu, free)
		x[4], x[5] = finish(x4, q, mu, free), finish(x5, q, mu, free)
		x[6], x[7] = finish(x6, q, mu, free), finish(x7, q, mu, free)
	}
}

// Inverse transforms a (NTT domain) in place back into coefficients.
// Inputs may be lazy, in [0, 2q); outputs are fully reduced (< q).
//
// Pass structure: the mirror of Forward. The first three stages (strides
// 1, 2, 4) run on eight words in registers, the middle stages two per
// sweep after one radix-2 sweep when their count is odd, and the last
// stage has the N^{-1} scaling folded in: its single twiddle becomes
// inv[1]·N^{-1} (precomputed) and the sum branch takes the exact Shoup
// multiply by N^{-1} directly, so no scaling pass re-reads the vector.
// The exact Shoup multiply fully reduces any 64-bit operand (its lazy
// product lies in [0, 2q)), so that stage needs no fold in either regime.
//
// Corrected regime: the Gentleman-Sande butterfly keeps values in
// [0, 2q): the sum u+v < 4q is folded once, the difference u−v+2q < 4q
// feeds the lazy Shoup multiply, which lands back in [0, 2q). Safe for
// q < 2^62.
//
// Correction-free regime: the fold is dropped and the difference is
// offset by the operands' bound instead of 2q. If both operands of stage
// k are below B_k = 2q·2^k (true at k = 0), then u+v < 2·B_k = B_{k+1},
// and u−v+B_k lies in [0, B_{k+1}), congruent to u−v since q | B_k; the
// lazy Shoup multiply returns it to [0, 2q) ⊂ [0, B_{k+1}). The widest
// word is the last stage's, below B_{logN} = 2N·q — the selection rule.
func (t *Table) Inverse(a []uint64) {
	if len(a) != t.N {
		panic("ntt: length mismatch")
	}
	transforms.Add(1)
	if t.lazyMu != 0 {
		inverse[correctionFree](t, a)
	} else {
		inverse[corrected](t, a)
	}
}

func inverse[R regime](t *Table, a []uint64) {
	n := t.N
	if n == 1 {
		a[0] = nt.MulModShoup(a[0], t.nInv, t.nInvSh, t.Q)
		return
	}
	// Stages m = N/2, N/4, …, 2 then the scaled last one; off is the
	// difference branch's offset at the stage about to run.
	m, off := n>>1, t.Q<<1
	if n >= 16 {
		invHead8[R](t, a)
		m, off = n>>4, grow[R](off, 3)
	}
	if bits.TrailingZeros(uint(m))&1 == 1 {
		invPass2[R](t, a, m, off)
		m, off = m>>1, grow[R](off, 1)
	}
	for ; m >= 4; m >>= 2 {
		invPass4[R](t, a, m, off)
		off = grow[R](off, 2)
	}
	invLast(t, a, off)
}

// grow advances the difference offset by the given number of stages: it
// doubles per stage in the free regime and stays 2q in the corrected one.
func grow[R regime](off uint64, stages uint) uint64 {
	if isFree[R]() {
		return off << stages
	}
	return off
}

// gs is the Gentleman-Sande butterfly (u, v) → (u + v, (u − v + off)·w);
// off bounds both operands (2q in the corrected regime).
func gs(u, v, w, ws, q, off uint64, free bool) (uint64, uint64) {
	s := u + v
	if !free && s >= off {
		s -= off
	}
	return s, nt.MulModLazyShoup(u+off-v, w, ws, q)
}

// invHead8 runs the first three stages (m = N/2, N/4, N/8; strides 1, 2,
// 4) on each aligned run of eight words in registers.
func invHead8[R regime](t *Table, a []uint64) {
	free := isFree[R]()
	q := t.Q
	o1 := q << 1
	o2, o4 := grow[R](o1, 1), grow[R](o1, 2)
	n := t.N
	for i := 0; i < n>>3; i++ {
		w1, s1 := t.inv[n>>1+4*i:][:4:4], t.invShoup[n>>1+4*i:][:4:4]
		w2, s2 := t.inv[n>>2+2*i:][:2:2], t.invShoup[n>>2+2*i:][:2:2]
		w4, s4 := t.inv[n>>3+i], t.invShoup[n>>3+i]
		x := a[8*i:][:8:8]
		x0, x1 := gs(x[0], x[1], w1[0], s1[0], q, o1, free)
		x2, x3 := gs(x[2], x[3], w1[1], s1[1], q, o1, free)
		x4, x5 := gs(x[4], x[5], w1[2], s1[2], q, o1, free)
		x6, x7 := gs(x[6], x[7], w1[3], s1[3], q, o1, free)
		x0, x2 = gs(x0, x2, w2[0], s2[0], q, o2, free)
		x1, x3 = gs(x1, x3, w2[0], s2[0], q, o2, free)
		x4, x6 = gs(x4, x6, w2[1], s2[1], q, o2, free)
		x5, x7 = gs(x5, x7, w2[1], s2[1], q, o2, free)
		x[0], x[4] = gs(x0, x4, w4, s4, q, o4, free)
		x[1], x[5] = gs(x1, x5, w4, s4, q, o4, free)
		x[2], x[6] = gs(x2, x6, w4, s4, q, o4, free)
		x[3], x[7] = gs(x3, x7, w4, s4, q, o4, free)
	}
}

// invPass2 runs stage m alone.
func invPass2[R regime](t *Table, a []uint64, m int, off uint64) {
	free := isFree[R]()
	q := t.Q
	h := t.N / (2 * m)
	for i := 0; i < m; i++ {
		w, ws := t.inv[m+i], t.invShoup[m+i]
		b := a[2*i*h:]
		lo, hi := b[:h:h], b[h:][:h:h]
		for j := range lo {
			lo[j], hi[j] = gs(lo[j], hi[j], w, ws, q, off, free)
		}
	}
}

// invPass4 runs stages m and m/2 in one sweep. Block i of stage m/2 is
// four quarters x0..x3: stage m pairs (x0,x1) under inv[m+2i] and (x2,x3)
// under inv[m+2i+1], stage m/2 pairs (x0,x2) and (x1,x3) under inv[m/2+i].
func invPass4[R regime](t *Table, a []uint64, m int, off uint64) {
	free := isFree[R]()
	q, off2 := t.Q, grow[R](off, 1)
	h := t.N / (2 * m)
	for i := 0; i < m>>1; i++ {
		w1, s1 := t.inv[m+2*i], t.invShoup[m+2*i]
		w2, s2 := t.inv[m+2*i+1], t.invShoup[m+2*i+1]
		w3, s3 := t.inv[m>>1+i], t.invShoup[m>>1+i]
		b := a[4*i*h:]
		x0, x1, x2, x3 := b[:h:h], b[h:][:h:h], b[2*h:][:h:h], b[3*h:][:h:h]
		for j := range x0 {
			u0, u1 := gs(x0[j], x1[j], w1, s1, q, off, free)
			u2, u3 := gs(x2[j], x3[j], w2, s2, q, off, free)
			x0[j], x2[j] = gs(u0, u2, w3, s3, q, off2, free)
			x1[j], x3[j] = gs(u1, u3, w3, s3, q, off2, free)
		}
	}
}

// invLast runs stage m = 1 with the N^{-1} scaling folded in; both
// branches take the exact Shoup multiply and emit canonical words.
func invLast(t *Table, a []uint64, off uint64) {
	q, h := t.Q, t.N>>1
	nInv, nInvSh, w, ws := t.nInv, t.nInvSh, t.invN1, t.invN1Sh
	lo, hi := a[:h:h], a[h:][:h:h]
	for j := range lo {
		u, v := lo[j], hi[j]
		lo[j] = nt.MulModShoup(u+v, nInv, nInvSh, q)
		hi[j] = nt.MulModShoup(u+off-v, w, ws, q)
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
// followed by a MulCoeffsAdd. It is a two-term inner product and follows
// InnerProduct's rule: both raw products are summed and reduced once,
// unless one word cannot hold two (a modulus just below 2^32), in which
// case the first is reduced before the second joins it.
func (t *Table) MulCoeffsCross(out, a0, b1, a1, b0 []uint64) {
	q, bhi, blo := t.Q, t.brHi, t.brLo
	a0 = a0[:len(out)]
	b1 = b1[:len(out)]
	a1 = a1[:len(out)]
	b0 = b0[:len(out)]
	switch mu := t.mu; {
	case mu != 0 && t.group >= 2:
		for i := range out {
			out[i] = nt.ReduceWord(a0[i]*b1[i]+a1[i]*b0[i], q, mu)
		}
	case mu != 0:
		for i := range out {
			out[i] = nt.ReduceWord(a1[i]*b0[i]+nt.ReduceWord(a0[i]*b1[i], q, mu), q, mu)
		}
	default:
		for i := range out {
			hi, lo := bits.Mul64(a0[i], b1[i])
			h, l := bits.Mul64(a1[i], b0[i])
			lo, c := bits.Add64(lo, l, 0)
			out[i] = nt.ReduceWide(hi+h+c, lo, q, bhi, blo)
		}
	}
}

// Term is one summand of InnerProduct: X·Y0 goes to the first output and
// X·Y1 to the second. A nil Y1 is drawn from Stream instead — word k of
// the row is the k-th Stream.Uint64N(q) — so a seed-compressed operand
// (the A half of a switching key) is regenerated as it is consumed and
// never materializes.
type Term struct {
	X, Y0, Y1 []uint64
	Stream    *rand.Rand
}

// ipBlock is how many coefficients InnerProduct accumulates at a time:
// the accumulators (four words per coefficient in the wide regime), a
// gathered X block and a streamed Y1 block stay in L1 across the terms.
const ipBlock = 128

// InnerProduct sets o0[k] = Σ_t X_t[j]·Y0_t[k] and o1[k] = Σ_t
// X_t[j]·Y1_t[k] mod q (NTT domain), with j = gather[k] — a Galois
// automorphism read in place, the table of AutomorphismNTTTable — or j = k
// when gather is nil. Raw products are accumulated unreduced: in one word
// when q < 2^32, in two words (bits.Mul64, bits.Add64) above, and each
// sum is reduced once per coefficient per group of t.group terms
// (nt.NarrowTerms, nt.WideTerms), the next group adding onto the reduced
// residue. The outputs are canonical residues of the exact sums, so they
// are bit-identical to a MulCoeffs followed by one MulCoeffsAdd per
// further term. With no terms the outputs are zero. All slices have
// length len(o0); an output may alias a Y operand, or an X operand when
// gather is nil, but not an X operand under a gather.
func (t *Table) InnerProduct(o0, o1, gather []uint64, terms []Term) {
	n := len(o0)
	o1 = o1[:n]
	for b := 0; b < n; b += ipBlock {
		m := min(ipBlock, n-b)
		if t.mu != 0 {
			t.innerNarrow(o0[b:b+m], o1[b:b+m], gather, terms, b)
		} else {
			t.innerWide(o0[b:b+m], o1[b:b+m], gather, terms, b)
		}
	}
}

// operands returns term tm's rows for the block of len(xb) coefficients
// at offset b: X gathered into xb under a map, Y1 streamed into yb when
// the term carries no Y1 row.
func (t *Table) operands(tm *Term, gather []uint64, b int, xb, yb []uint64) (x, y0, y1 []uint64) {
	m := len(xb)
	x, y0, y1 = tm.X[b:b+m], tm.Y0[b:b+m], tm.Y1
	if gather != nil {
		for k, j := range gather[b : b+m] {
			xb[k] = tm.X[j]
		}
		x = xb
	}
	if y1 == nil {
		for k := range yb {
			yb[k] = tm.Stream.Uint64N(t.Q)
		}
		return x, y0, yb
	}
	return x, y0, y1[b : b+m]
}

// innerNarrow is InnerProduct's block kernel for q < 2^32: a product of
// residues fits one word, and so does a group of them.
func (t *Table) innerNarrow(o0, o1, gather []uint64, terms []Term, b int) {
	var acc0, acc1, xbuf, ybuf [ipBlock]uint64
	m := len(o0)
	o1, a0, a1, xb, yb := o1[:m], acc0[:m], acc1[:m], xbuf[:m], ybuf[:m]
	q, mu := t.Q, t.mu
	for i := range terms {
		x, y0, y1 := t.operands(&terms[i], gather, b, xb, yb)
		x, y0, y1 = x[:m], y0[:m], y1[:m]
		for k, xv := range x {
			a0[k] += xv * y0[k]
			a1[k] += xv * y1[k]
		}
		if (i+1)%t.group == 0 && i+1 < len(terms) {
			for k := range a0 {
				a0[k], a1[k] = nt.ReduceWord(a0[k], q, mu), nt.ReduceWord(a1[k], q, mu)
			}
		}
	}
	for k := range o0 {
		o0[k], o1[k] = nt.ReduceWord(a0[k], q, mu), nt.ReduceWord(a1[k], q, mu)
	}
}

// innerWide is InnerProduct's block kernel for q >= 2^32: each sum is a
// (hi, lo) word pair below 2^128 until its group is reduced.
func (t *Table) innerWide(o0, o1, gather []uint64, terms []Term, b int) {
	var lo0, hi0, lo1, hi1, xbuf, ybuf [ipBlock]uint64
	m := len(o0)
	o1, l0, h0, l1, h1, xb, yb := o1[:m], lo0[:m], hi0[:m], lo1[:m], hi1[:m], xbuf[:m], ybuf[:m]
	q, bhi, blo := t.Q, t.brHi, t.brLo
	for i := range terms {
		x, y0, y1 := t.operands(&terms[i], gather, b, xb, yb)
		x, y0, y1 = x[:m], y0[:m], y1[:m]
		for k, xv := range x {
			hi, lo := bits.Mul64(xv, y0[k])
			var c uint64
			l0[k], c = bits.Add64(l0[k], lo, 0)
			h0[k] += hi + c
			hi, lo = bits.Mul64(xv, y1[k])
			l1[k], c = bits.Add64(l1[k], lo, 0)
			h1[k] += hi + c
		}
		if (i+1)%t.group == 0 && i+1 < len(terms) {
			for k := range l0 {
				l0[k], h0[k] = nt.ReduceWide(h0[k], l0[k], q, bhi, blo), 0
				l1[k], h1[k] = nt.ReduceWide(h1[k], l1[k], q, bhi, blo), 0
			}
		}
	}
	for k := range o0 {
		o0[k], o1[k] = nt.ReduceWide(h0[k], l0[k], q, bhi, blo), nt.ReduceWide(h1[k], l1[k], q, bhi, blo)
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
