// Package rns implements Residue Number System bases over NTT-friendly
// primes: CRT composition/decomposition against math/big integers, and the
// precomputed approximate basis conversions that power RNS-CKKS rescaling,
// BitPacker's scaleUp/scaleDown (paper Listings 3 and 5), and the
// ModUp/ModDown steps of hybrid keyswitching.
package rns

import (
	"fmt"
	"math/big"

	"bitpacker/internal/nt"
)

// Basis is an ordered set of pairwise-coprime NTT-friendly prime moduli for
// polynomials of degree N. It is immutable after creation.
type Basis struct {
	N      int
	Moduli []uint64
	Q      *big.Int // product of all moduli

	// CRT reconstruction constants over the full basis:
	// qhat[i] = Q/q_i, qhatInv[i] = (Q/q_i)^{-1} mod q_i.
	qhat    []*big.Int
	qhatInv []uint64
}

// NewBasis builds a basis over the given moduli. Moduli must be distinct
// primes; N must be a power of two (it is carried for convenience and
// validated by the ring layer against each modulus).
func NewBasis(n int, moduli []uint64) (*Basis, error) {
	if len(moduli) == 0 {
		return nil, fmt.Errorf("rns: empty basis")
	}
	seen := make(map[uint64]bool, len(moduli))
	for _, q := range moduli {
		if !nt.IsPrime(q) {
			return nil, fmt.Errorf("rns: modulus %d is not prime", q)
		}
		if seen[q] {
			return nil, fmt.Errorf("rns: duplicate modulus %d", q)
		}
		seen[q] = true
	}
	b := &Basis{
		N:      n,
		Moduli: append([]uint64(nil), moduli...),
		Q:      big.NewInt(1),
	}
	for _, q := range b.Moduli {
		b.Q.Mul(b.Q, new(big.Int).SetUint64(q))
	}
	b.qhat = make([]*big.Int, len(b.Moduli))
	b.qhatInv = make([]uint64, len(b.Moduli))
	for i, q := range b.Moduli {
		b.qhat[i] = new(big.Int).Div(b.Q, new(big.Int).SetUint64(q))
		r := new(big.Int).Mod(b.qhat[i], new(big.Int).SetUint64(q)).Uint64()
		b.qhatInv[i] = nt.InvMod(r, q)
	}
	return b, nil
}

// Len returns the number of residue moduli.
func (b *Basis) Len() int { return len(b.Moduli) }

// Compose reconstructs the integer in [0, Q) whose residues are xs
// (xs[i] = x mod Moduli[i]) using the CRT.
func (b *Basis) Compose(xs []uint64) *big.Int {
	if len(xs) != len(b.Moduli) {
		panic("rns: residue count mismatch")
	}
	acc := new(big.Int)
	term := new(big.Int)
	for i, x := range xs {
		y := nt.MulMod(x, b.qhatInv[i], b.Moduli[i])
		term.SetUint64(y)
		term.Mul(term, b.qhat[i])
		acc.Add(acc, term)
	}
	return acc.Mod(acc, b.Q)
}

// ComposeCentered reconstructs the integer in (-Q/2, Q/2] with the given
// residues, i.e. the signed value the CKKS layer treats coefficients as.
func (b *Basis) ComposeCentered(xs []uint64) *big.Int {
	v := b.Compose(xs)
	half := new(big.Int).Rsh(b.Q, 1)
	if v.Cmp(half) > 0 {
		v.Sub(v, b.Q)
	}
	return v
}

// Decompose returns the residues of x (any sign) under this basis.
func (b *Basis) Decompose(x *big.Int) []uint64 {
	out := make([]uint64, len(b.Moduli))
	tmp := new(big.Int)
	for i, q := range b.Moduli {
		bq := tmp.SetUint64(q)
		r := new(big.Int).Mod(x, bq) // Mod is Euclidean: result in [0, q)
		out[i] = r.Uint64()
	}
	return out
}
