// Package rns implements Residue Number System bases over NTT-friendly
// primes: CRT composition/decomposition against math/big integers, and the
// precomputed approximate basis conversions that power RNS-CKKS rescaling,
// BitPacker's scaleUp/scaleDown (paper Listings 3 and 5), and the
// ModUp/ModDown steps of hybrid keyswitching.
package rns

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"

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

	// Machine-word composition (ComposeCenteredWord): Shoup factors of
	// qhatInv, one-word Barrett constants and 1/q_i per modulus, and q̂_i
	// reduced mod Q when Q < 2^63 (exact composition mod Q), mod 2^64
	// otherwise (composition mod 2^64 with a float wrap count).
	qhatInvShoup []uint64
	mu           []uint64
	qInv         []float64
	qhatWord     []uint64
	qWord        uint64 // Q when small, Q mod 2^64 otherwise
	small        bool   // Q < 2^63
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
	b.small = b.Q.BitLen() <= 63
	word := new(big.Int).Lsh(big.NewInt(1), 64)
	b.qWord = new(big.Int).Mod(b.Q, word).Uint64() // Q itself when small
	if b.small {
		word = b.Q
	}
	for i, q := range b.Moduli {
		b.qhatInvShoup = append(b.qhatInvShoup, nt.ShoupPrecomp(b.qhatInv[i], q))
		b.mu = append(b.mu, nt.WordBarrett(q))
		b.qInv = append(b.qInv, 1/float64(q))
		b.qhatWord = append(b.qhatWord, new(big.Int).Mod(b.qhat[i], word).Uint64())
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

// ComposeCenteredWord is ComposeCentered in machine words: the centred
// integer with residues xs when it provably fits in 62 bits, ok false
// otherwise (a residue not below its modulus, or a value the caller must
// compose with ComposeCentered). It allocates nothing.
//
// With y_i = xs[i]·(Q/q_i)^{-1} mod q_i the value is Σ y_i·(Q/q_i) − v·Q
// for the wrap count v = round(Σ y_i/q_i). Below Q < 2^63 the sum is
// reduced mod Q exactly and centred. Above, it is taken mod 2^64 with v
// estimated in float64; the candidate r is then checked against every
// residue. A match proves r ≡ x (mod Q), and |r| < 2^62 ≤ Q/2 makes r
// the centred representative, whatever the estimate's rounding did.
func (b *Basis) ComposeCenteredWord(xs []uint64) (v int64, ok bool) {
	if len(xs) != len(b.Moduli) {
		panic("rns: residue count mismatch")
	}
	const limit = 1 << 62
	if b.small {
		// Each product is below Q^2 < 2^126: four of them sum in 128 bits
		// and one remainder reduces them; more take one remainder each.
		var acc, hi, lo uint64
		for i, x := range xs {
			q := b.Moduli[i]
			if x >= q {
				return 0, false
			}
			if len(xs) == 1 {
				acc = x // Q = q: x is the value mod Q
				break
			}
			ph, pl := bits.Mul64(nt.MulModShoup(x, b.qhatInv[i], b.qhatInvShoup[i], q), b.qhatWord[i])
			var c uint64
			lo, c = bits.Add64(lo, pl, 0)
			hi += ph + c
			if i%4 == 3 || i == len(xs)-1 {
				acc = nt.AddMod(acc, bits.Rem64(hi, lo, b.qWord), b.qWord)
				hi, lo = 0, 0
			}
		}
		v = int64(acc)
		if acc > b.qWord>>1 {
			v -= int64(b.qWord) // |v| <= Q/2 < 2^62
		}
		return v, true
	}
	var s uint64
	var f float64
	for i, x := range xs {
		q := b.Moduli[i]
		if x >= q {
			return 0, false
		}
		y := nt.MulModShoup(x, b.qhatInv[i], b.qhatInvShoup[i], q)
		s += y * b.qhatWord[i]
		f += float64(y) * b.qInv[i]
	}
	v = int64(s - uint64(math.Round(f))*b.qWord)
	if v >= limit || v <= -limit {
		return 0, false
	}
	mag := uint64(v)
	if v < 0 {
		mag = -mag
	}
	for i, x := range xs {
		q := b.Moduli[i]
		r := nt.ReduceWord(mag, q, b.mu[i])
		if v < 0 && r != 0 {
			r = q - r
		}
		if r != x {
			return 0, false
		}
	}
	return v, true
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
