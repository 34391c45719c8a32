package ring

import (
	"math"
	"math/rand/v2"
)

// Sampler draws the random polynomials CKKS needs: uniform masks, ternary
// secrets, ZO encryption randomness, and discrete Gaussian errors.
//
// The generator is deterministic given its seed, which keeps experiments
// reproducible; it is NOT a CSPRNG and this library is a research artifact,
// not a production cryptosystem.
type Sampler struct {
	ctx *Context
	rng *rand.Rand
}

// NewSampler creates a sampler with the given 128-bit seed.
func NewSampler(ctx *Context, seed1, seed2 uint64) *Sampler {
	return &Sampler{ctx: ctx, rng: rand.New(rand.NewPCG(seed1, seed2))}
}

// UniformPoly returns a polynomial with residues uniform in [0, q_i),
// marked as being in the NTT domain (a uniform polynomial is uniform in
// either domain, and uniform masks are consumed in the NTT domain).
func (s *Sampler) UniformPoly(moduli []uint64) *Poly {
	p := NewPoly(s.ctx, moduli)
	for i, q := range p.Moduli {
		c := p.Coeffs[i]
		for k := range c {
			c[k] = s.rng.Uint64N(q)
		}
	}
	p.IsNTT = true
	return p
}

// signedCoeffs fills a small signed coefficient vector into an RNS poly in
// the coefficient domain.
func (s *Sampler) fromSigned(moduli []uint64, v []int64) *Poly {
	p := NewPoly(s.ctx, moduli)
	for i, q := range p.Moduli {
		c := p.Coeffs[i]
		for k, x := range v {
			if x >= 0 {
				c[k] = uint64(x) % q
			} else {
				c[k] = q - uint64(-x)%q
				if c[k] == q {
					c[k] = 0
				}
			}
		}
	}
	return p
}

// TernaryPoly samples coefficients uniformly from {-1, 0, 1}.
func (s *Sampler) TernaryPoly(moduli []uint64) *Poly {
	v := make([]int64, s.ctx.N)
	for k := range v {
		v[k] = int64(s.rng.IntN(3)) - 1
	}
	return s.fromSigned(moduli, v)
}

// ZOPoly samples the ZO(rho) distribution: 0 with probability 1-rho, and
// ±1 each with probability rho/2 (CKKS uses rho = 1/2 for encryption
// randomness).
func (s *Sampler) ZOPoly(moduli []uint64, rho float64) *Poly {
	v := make([]int64, s.ctx.N)
	for k := range v {
		u := s.rng.Float64()
		switch {
		case u < rho/2:
			v[k] = 1
		case u < rho:
			v[k] = -1
		}
	}
	return s.fromSigned(moduli, v)
}

// GaussianPoly samples a rounded Gaussian with standard deviation sigma,
// truncated at 6 sigma (the HE-standard error distribution).
func (s *Sampler) GaussianPoly(moduli []uint64, sigma float64) *Poly {
	bound := int64(math.Ceil(6 * sigma))
	v := make([]int64, s.ctx.N)
	for k := range v {
		for {
			x := int64(math.Round(s.rng.NormFloat64() * sigma))
			if x >= -bound && x <= bound {
				v[k] = x
				break
			}
		}
	}
	return s.fromSigned(moduli, v)
}

// SparseTernaryPoly samples a ternary secret with exactly h nonzero
// coefficients (Hamming weight h), the distribution CKKS bootstrapping
// uses to keep the ModRaise overflow I(X) small.
func (s *Sampler) SparseTernaryPoly(moduli []uint64, h int) *Poly {
	if h > s.ctx.N {
		h = s.ctx.N
	}
	v := make([]int64, s.ctx.N)
	// Floyd-style sampling of h distinct positions.
	chosen := map[int]bool{}
	for len(chosen) < h {
		pos := s.rng.IntN(s.ctx.N)
		if !chosen[pos] {
			chosen[pos] = true
			if s.rng.IntN(2) == 0 {
				v[pos] = 1
			} else {
				v[pos] = -1
			}
		}
	}
	return s.fromSigned(moduli, v)
}
