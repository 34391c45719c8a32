package ckks

import (
	"math/big"

	"bitpacker/internal/ring"
)

// Key material is derived deterministically from the generator's master
// seed through a per-key label path, never from a shared streaming PRNG:
//
//	secret        <- master / kindSecret
//	pk            <- master / {kindPublicA, kindPublicErr}
//	swk[id][j].A  <- master / kindSwkA   / id / j
//	swk[id][j].e  <- master / kindSwkErr / id / j
//
// where id is the key's Galois element (RelinKeyID = 0 for the
// relinearization key; Galois elements are odd and >= 3, so 0 never
// collides). Two consequences the rest of the subsystem leans on:
//
//  1. Generation order is irrelevant: GenGaloisKey(sk, 5) returns the
//     same bits whether it is the first or the fortieth key generated,
//     so a key evicted to seed form can be regenerated bit-identically.
//  2. The uniform A half of a switching key is redundant given ASeeds:
//     Compress() drops it and any consumer can rebuild exactly the rows
//     it needs with ring.UniformRowFromSeed.

// Seed-derivation kinds (first label of every path).
const (
	seedKindSecret uint64 = iota + 1
	seedKindSecretSparse
	seedKindPublicA
	seedKindPublicErr
	seedKindSwkA
	seedKindSwkErr
)

// RelinKeyID is the key id the relinearization key uses in seed
// derivation and in the key cache. Galois elements are always odd and
// >= 3, so 0 is reserved.
const RelinKeyID uint64 = 0

// SecretKey holds the ternary secret s over the full key basis
// (every chain modulus plus the specials), in the NTT domain.
type SecretKey struct {
	S *ring.Poly
}

// PublicKey is an encryption of zero: (b, a) = (-a*s + e, a) over the full
// key basis, NTT domain.
type PublicKey struct {
	B, A *ring.Poly
}

// SwitchingKey re-encrypts the product with some s' (s^2 for
// relinearization, phi_k(s) for rotations) under s. One (B, A) pair per
// keyswitching digit, over the full key basis, NTT domain. ASeeds[j]
// regenerates A[j]; after Compress, A[j] is nil and the keyswitch inner
// product regenerates rows on the fly.
type SwitchingKey struct {
	B, A   []*ring.Poly
	ASeeds []ring.Seed
}

// Compress drops the dense A halves, keeping only the per-digit seeds.
func (swk *SwitchingKey) Compress() {
	for j := range swk.A {
		swk.A[j] = nil
	}
}

// Compressed reports whether every dense A half has been dropped.
func (swk *SwitchingKey) Compressed() bool {
	for _, a := range swk.A {
		if a != nil {
			return false
		}
	}
	return true
}

// ResidentBytes is the coefficient storage the key currently pins in
// memory (B always, A only while materialized). Seeds and headers are
// negligible and excluded.
func (swk *SwitchingKey) ResidentBytes() int64 {
	var total int64
	for _, b := range swk.B {
		total += polyBytes(b)
	}
	for _, a := range swk.A {
		total += polyBytes(a)
	}
	return total
}

func polyBytes(p *ring.Poly) int64 {
	if p == nil {
		return 0
	}
	var n int64
	for _, row := range p.Coeffs {
		n += int64(len(row)) * 8
	}
	return n
}

// KeyGenerator derives all key material deterministically from a seed.
// Every key gets its own derived PRNG stream, so keys are reproducible
// individually and in any generation order.
type KeyGenerator struct {
	params *Parameters
	master ring.Seed
}

// NewKeyGenerator creates a generator with the given 128-bit master seed.
func NewKeyGenerator(params *Parameters, seed1, seed2 uint64) *KeyGenerator {
	return &KeyGenerator{params: params, master: ring.Seed{seed1, seed2}}
}

// sampler returns a fresh sampler on the derived stream for the given
// label path.
func (kg *KeyGenerator) sampler(labels ...uint64) *ring.Sampler {
	s := kg.master.Derive(labels...)
	return ring.NewSampler(kg.params.Ctx, s[0], s[1])
}

// GenSecretKey samples a uniform-ternary secret.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	s := kg.sampler(seedKindSecret).TernaryPoly(kg.params.KeyBasis())
	s.NTT()
	return &SecretKey{S: s}
}

// GenPublicKey samples a fresh public key for sk.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	basis := kg.params.KeyBasis()
	a := ring.UniformPolyFromSeed(kg.params.Ctx, basis, kg.master.Derive(seedKindPublicA))
	e := kg.sampler(seedKindPublicErr).GaussianPoly(basis, kg.params.Sigma)
	e.NTT()
	b := ring.NewPoly(kg.params.Ctx, basis)
	b.IsNTT = true
	b.MulCoeffs(a, sk.S)
	b.Neg(b)
	b.Add(b, e)
	return &PublicKey{B: b, A: a}
}

// gadget returns g_j for digit j: P * Uhat_j * [Uhat_j^{-1}]_{U_j}, where
// U_j is the product of the union moduli assigned to digit j and
// Uhat_j = U/U_j. g_j is congruent to P modulo every digit-j modulus and
// to 0 modulo every other union modulus — at every level, which is what
// lets one switching key serve the whole chain even though BitPacker
// levels use different terminal moduli.
func (kg *KeyGenerator) gadget(digit int) *big.Int {
	p := kg.params
	bigU := big.NewInt(1)
	uj := big.NewInt(1)
	for _, q := range p.union {
		bq := new(big.Int).SetUint64(q)
		bigU.Mul(bigU, bq)
		if p.digitOf[q] == digit {
			uj.Mul(uj, bq)
		}
	}
	uhat := new(big.Int).Div(bigU, uj)
	uhatInv := new(big.Int).ModInverse(new(big.Int).Mod(uhat, uj), uj)
	bigP := big.NewInt(1)
	for _, q := range p.Chain.Special {
		bigP.Mul(bigP, new(big.Int).SetUint64(q))
	}
	g := new(big.Int).Mul(uhat, uhatInv)
	return g.Mul(g, bigP)
}

// genSwitchingKey builds the key switching sPrime -> sk (both NTT domain
// over the full key basis). id is the key's identity in the seed
// derivation — the Galois element for rotation keys, RelinKeyID for the
// relinearization key — so regenerating the same id reproduces the same
// key bits regardless of what else has been generated.
func (kg *KeyGenerator) genSwitchingKey(sk *SecretKey, sPrime *ring.Poly, id uint64) *SwitchingKey {
	p := kg.params
	basis := p.KeyBasis()
	swk := &SwitchingKey{
		B:      make([]*ring.Poly, p.Dnum),
		A:      make([]*ring.Poly, p.Dnum),
		ASeeds: make([]ring.Seed, p.Dnum),
	}
	for j := 0; j < p.Dnum; j++ {
		aSeed := kg.master.Derive(seedKindSwkA, id, uint64(j))
		a := ring.UniformPolyFromSeed(p.Ctx, basis, aSeed)
		e := kg.sampler(seedKindSwkErr, id, uint64(j)).GaussianPoly(basis, p.Sigma)
		e.NTT()
		// b = -a*s + e + g_j * s'
		b := ring.NewPoly(p.Ctx, basis)
		b.IsNTT = true
		b.MulCoeffs(a, sk.S)
		b.Neg(b)
		b.Add(b, e)
		gs := ring.NewPoly(p.Ctx, basis)
		gs.IsNTT = true
		gs.MulScalarBig(sPrime, kg.gadget(j))
		b.Add(b, gs)
		swk.B[j] = b
		swk.A[j] = a
		swk.ASeeds[j] = aSeed
	}
	return swk
}

// GenRelinKey builds the s^2 -> s switching key.
func (kg *KeyGenerator) GenRelinKey(sk *SecretKey) *SwitchingKey {
	s2 := ring.NewPoly(kg.params.Ctx, kg.params.KeyBasis())
	s2.IsNTT = true
	s2.MulCoeffs(sk.S, sk.S)
	return kg.genSwitchingKey(sk, s2, RelinKeyID)
}

// GenGaloisKey builds the phi_k(s) -> s switching key for Galois element k.
func (kg *KeyGenerator) GenGaloisKey(sk *SecretKey, galEl uint64) *SwitchingKey {
	s := sk.S.Copy()
	s.INTT()
	sk2 := s.Automorphism(galEl)
	sk2.NTT()
	return kg.genSwitchingKey(sk, sk2, galEl)
}

// GenSecretKeySparse samples a secret with Hamming weight h (sparse
// ternary), the distribution bootstrapping uses so the ModRaise overflow
// I(X) stays within the sine approximation's range.
func (kg *KeyGenerator) GenSecretKeySparse(h int) *SecretKey {
	s := kg.sampler(seedKindSecretSparse, uint64(h)).SparseTernaryPoly(kg.params.KeyBasis(), h)
	s.NTT()
	return &SecretKey{S: s}
}
