package ring

import "math/rand/v2"

// Seed-compressed uniform polynomials. A uniform mask (the `A` half of a
// switching or public key) carries no information beyond its PRNG seed,
// so it never needs to be resident: any row can be regenerated on demand,
// bit-identically, from a 128-bit seed. The derivation is arranged so a
// row depends only on (seed, modulus) — NOT on the row's position or on
// which other rows happen to be materialized — which is what lets the
// keyswitch inner product regenerate exactly the live+special rows of a
// key stored over the full key basis, inside the fused dispatch, one
// residue row at a time.
//
// Like Sampler, this is a deterministic research-grade generator, not a
// CSPRNG.

// Seed is a 128-bit seed for deterministic regeneration of uniform
// polynomial rows.
type Seed [2]uint64

// mix64 is the SplitMix64 finalizer: a cheap bijective mixer with good
// avalanche, used to derive statistically independent child seeds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Derive returns a child seed bound to the given domain labels. The
// labels form a path: Derive(a, b) == Derive(a).Derive(b), and distinct
// label paths give (with overwhelming probability) distinct streams.
func (s Seed) Derive(labels ...uint64) Seed {
	h0, h1 := s[0], s[1]
	for _, l := range labels {
		h0 = mix64(h0 ^ mix64(l+0x9e3779b97f4a7c15))
		h1 = mix64(h1 ^ mix64(l+0x6a09e667f3bcc909))
	}
	return Seed{h0, h1}
}

// UniformRowFromSeed fills dst with residues uniform in [0, q), drawn
// from the row stream derived from (seed, q). Regenerating the row for
// the same (seed, q) always reproduces the same words, regardless of
// what other rows exist.
func UniformRowFromSeed(dst []uint64, q uint64, seed Seed) {
	rng := rowStream(q, seed)
	for k := range dst {
		dst[k] = rng.Uint64N(q)
	}
}

// rowStream is the generator of the row for (seed, q): word k of the row
// is its k-th Uint64N(q). InnerProduct consumes it a block at a time.
func rowStream(q uint64, seed Seed) *rand.Rand {
	rs := seed.Derive(q)
	return rand.New(rand.NewPCG(rs[0], rs[1]))
}

// UniformPolyFromSeed returns a freshly allocated uniform polynomial over
// the given moduli, marked NTT-domain (a uniform polynomial is uniform in
// either domain). Row i depends only on (seed, moduli[i]); restricting
// the result to a sub-basis therefore matches regenerating that sub-basis
// directly.
func UniformPolyFromSeed(ctx *Context, moduli []uint64, seed Seed) *Poly {
	p := NewPoly(ctx, moduli)
	p.IsNTT = true
	each(uniformOp(p, seed))
	return p
}

// GetUniformPolyFromSeed is UniformPolyFromSeed backed by the context's
// scratch pool; release with Context.PutPoly.
func GetUniformPolyFromSeed(ctx *Context, moduli []uint64, seed Seed) *Poly {
	p := ctx.GetPoly(moduli)
	p.IsNTT = true
	each(uniformOp(p, seed))
	return p
}
