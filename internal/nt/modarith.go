// Package nt provides the number-theoretic substrate used by the whole
// library: 64-bit modular arithmetic, Shoup multiplication, deterministic
// primality testing, integer factorization, primitive roots, and searches
// for NTT-friendly primes.
//
// All moduli handled by this package are odd primes strictly below 2^62,
// which is the widest word size the accelerator model and the CKKS layer
// ever request (the paper sweeps hardware words from 28 to 64 bits; a
// 64-bit *hardware* word maps to a <2^62 prime so that lazy reductions in
// the NTT never overflow).
package nt

import "math/bits"

// MaxModulusBits is the widest modulus supported by the arithmetic in this
// package. Keeping two slack bits below 64 lets the NTT use lazy reduction.
const MaxModulusBits = 62

// AddMod returns (x + y) mod q. Requires x, y < q.
func AddMod(x, y, q uint64) uint64 {
	s := x + y
	if s >= q {
		s -= q
	}
	return s
}

// SubMod returns (x - y) mod q. Requires x, y < q. Written as a
// conditional correction of one difference (not two returns) so it
// compiles to a conditional move: on residues the borrow is a coin flip,
// and a branch there mispredicts every other word.
func SubMod(x, y, q uint64) uint64 {
	d := x - y
	if x < y {
		d += q
	}
	return d
}

// NegMod returns (-x) mod q. Requires x < q.
func NegMod(x, q uint64) uint64 {
	if x == 0 {
		return 0
	}
	return q - x
}

// MulMod returns (x * y) mod q using a 128-bit intermediate product.
// Requires x, y < q < 2^63.
func MulMod(x, y, q uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	_, rem := bits.Div64(hi, lo, q)
	return rem
}

// ShoupPrecomp returns floor(w * 2^64 / q), the precomputed factor used by
// MulModShoup for fast multiplication by the fixed operand w. Requires w < q.
func ShoupPrecomp(w, q uint64) uint64 {
	quo, _ := bits.Div64(w, 0, q)
	return quo
}

// MulModShoup returns (x * w) mod q where wShoup = ShoupPrecomp(w, q).
// This is Shoup's trick: one high multiply, one low multiply, one
// conditional subtraction. Requires x < q and q < 2^63.
func MulModShoup(x, w, wShoup, q uint64) uint64 {
	hi, _ := bits.Mul64(x, wShoup)
	r := x*w - hi*q
	if r >= q {
		r -= q
	}
	return r
}

// MulModLazyShoup returns (x * w) mod q in the range [0, 2q). It skips the
// final conditional subtraction, which the NTT butterflies exploit.
func MulModLazyShoup(x, w, wShoup, q uint64) uint64 {
	hi, _ := bits.Mul64(x, wShoup)
	return x*w - hi*q
}

// BarrettConstant returns floor(2^128 / q) as a (hi, lo) pair of 64-bit
// words. It is the per-modulus precomputation behind MulModBarrett.
func BarrettConstant(q uint64) (hi, lo uint64) {
	// 2^128 = (floor(2^64/q)*q + r) * 2^64, so
	// floor(2^128/q) = floor(2^64/q)*2^64 + floor(r*2^64/q).
	hi, r := bits.Div64(1, 0, q)
	lo, _ = bits.Div64(r, 0, q)
	return hi, lo
}

// MulModBarrett returns (x * y) mod q where (bhi, blo) = BarrettConstant(q).
// Unlike MulMod it never divides: the quotient floor(x*y/q) is estimated
// from the top 128 bits of the 256-bit product (x*y) * floor(2^128/q),
// which undershoots by at most one, so a single conditional subtraction
// finishes the reduction. Requires x, y < q < 2^63.
func MulModBarrett(x, y, q, bhi, blo uint64) uint64 {
	ahi, alo := bits.Mul64(x, y)
	// t = floor(a*b / 2^128), computed exactly: sum the 2^64-column
	// partial products (carries propagate into the 2^128 column) and the
	// 2^128-column partials. t <= a/q < q, so it fits in 64 bits.
	c1hi, _ := bits.Mul64(alo, blo)
	c2hi, c2lo := bits.Mul64(alo, bhi)
	c3hi, c3lo := bits.Mul64(ahi, blo)
	mid, carry1 := bits.Add64(c1hi, c2lo, 0)
	_, carry2 := bits.Add64(mid, c3lo, 0)
	t := ahi*bhi + c2hi + c3hi + carry1 + carry2
	r := alo - t*q
	if r >= q {
		r -= q
	}
	return r
}

// WordBarrett returns floor(2^64 / q), the one-word Barrett constant
// behind ReduceWord. Requires q > 1.
func WordBarrett(q uint64) uint64 {
	mu, _ := bits.Div64(1, 0, q)
	return mu
}

// ReduceWord returns x mod q for any one-word x, where mu = WordBarrett(q).
// The quotient estimate floor(x·mu / 2^64) undershoots floor(x/q) by at
// most one (x·mu/2^64 > x/q − x/2^64 > x/q − 1), so x − est·q < 2q and a
// single conditional subtraction finishes. This is what a narrow modulus
// buys: when a product (or a whole sum of products) fits one word, it is
// reduced with one high multiply instead of the 256-bit MulModBarrett
// product. Requires q < 2^63.
func ReduceWord(x, q, mu uint64) uint64 {
	hi, _ := bits.Mul64(x, mu)
	r := x - hi*q
	if r >= q {
		r -= q
	}
	return r
}

// PowMod returns x^e mod q by square-and-multiply. Requires x < q.
func PowMod(x, e, q uint64) uint64 {
	result := uint64(1 % q)
	base := x
	for e > 0 {
		if e&1 == 1 {
			result = MulMod(result, base, q)
		}
		base = MulMod(base, base, q)
		e >>= 1
	}
	return result
}

// InvMod returns x^-1 mod q for prime q. Requires 0 < x < q.
// It panics if x is zero since zero has no inverse.
func InvMod(x, q uint64) uint64 {
	if x == 0 {
		panic("nt: inverse of zero")
	}
	return PowMod(x, q-2, q)
}
