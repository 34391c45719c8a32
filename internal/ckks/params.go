// Package ckks implements the CKKS approximate-FHE scheme over the RNS
// representations built by internal/core. It provides encoding (canonical
// embedding), key generation, encryption, and an evaluator with
// homomorphic add/multiply/rotate, hybrid keyswitching, and the two
// level-management backends the paper compares:
//
//   - classic RNS-CKKS rescale/adjust (Listings 1-2), and
//   - BitPacker's bpRescale/bpAdjust built on scaleUp/scaleDown
//     (Listings 3-6).
//
// Which backend runs is decided by the chain's Scheme; all other
// operations are byte-for-byte identical, exactly as the paper argues.
package ckks

import (
	"fmt"
	"math/big"
	"sync"

	"bitpacker/internal/core"
	"bitpacker/internal/ring"
	"bitpacker/internal/rns"
)

// Parameters bundles everything needed to operate on ciphertexts of one
// chain: the ring context, the keyswitching digit layout, and noise
// parameters.
type Parameters struct {
	Chain *core.Chain
	Ctx   *ring.Context

	// Dnum is the number of keyswitching digits (the paper evaluates
	// 1-, 2- and 3-digit keyswitching; len(Chain.Special) must be at
	// least ceil(maxR/Dnum) so the special modulus P dominates every
	// digit product).
	Dnum int
	// Sigma is the encryption error standard deviation (HE standard 3.2).
	Sigma float64

	// union is the canonical ordering of every modulus any level uses.
	union []uint64
	// digitOf assigns each union modulus to a keyswitching digit, by its
	// position within the level where it first appears (mod Dnum), so
	// every level's live moduli spread evenly across digits.
	digitOf map[uint64]int

	// spareMu guards spareProj, the cache of exact CRT projectors the
	// RRNS channel uses (seed/check projectors keyed per level, repair
	// projectors keyed per erased residue). Shared by every evaluator
	// and encryptor over these parameters.
	spareMu   sync.Mutex
	spareProj map[string]*rns.Projector
}

// spareProjector returns (caching) the exact CRT projector from src onto
// dst. Both always derive from the validated chain, so construction
// cannot fail.
func (p *Parameters) spareProjector(src []uint64, dst uint64) *rns.Projector {
	key := string(moduliKey(nil, src, []uint64{dst}))
	p.spareMu.Lock()
	defer p.spareMu.Unlock()
	if p.spareProj == nil {
		p.spareProj = map[string]*rns.Projector{}
	}
	if pr, ok := p.spareProj[key]; ok {
		return pr
	}
	pr, err := rns.NewProjector(p.Chain.N, src, dst)
	if err != nil {
		panic(fmt.Sprintf("ckks: spare projector over chain moduli: %v (unreachable)", err))
	}
	p.spareProj[key] = pr
	return pr
}

// NewParameters validates the chain and computes the keyswitching layout.
func NewParameters(chain *core.Chain, dnum int, sigma float64) (*Parameters, error) {
	if err := chain.Validate(); err != nil {
		return nil, err
	}
	if dnum <= 0 {
		return nil, fmt.Errorf("ckks: dnum must be positive")
	}
	if sigma <= 0 {
		sigma = 3.2
	}
	maxR := 0
	for _, l := range chain.Levels {
		if l.R() > maxR {
			maxR = l.R()
		}
	}
	if dnum > maxR {
		dnum = maxR
	}
	alpha := (maxR + dnum - 1) / dnum
	if len(chain.Special) < alpha {
		return nil, fmt.Errorf("ckks: chain has %d special primes; dnum=%d with max %d residues needs %d",
			len(chain.Special), dnum, maxR, alpha)
	}
	ctx, err := ring.NewContext(chain.N)
	if err != nil {
		return nil, err
	}
	p := &Parameters{
		Chain:   chain,
		Ctx:     ctx,
		Dnum:    dnum,
		Sigma:   sigma,
		digitOf: map[uint64]int{},
	}
	// Canonical union order: walk levels top-down so the widest basis
	// comes first; record first-appearance positions for digit layout.
	seen := map[uint64]bool{}
	for l := chain.MaxLevel(); l >= 0; l-- {
		for pos, q := range chain.Levels[l].Moduli {
			if !seen[q] {
				seen[q] = true
				p.union = append(p.union, q)
				p.digitOf[q] = pos % dnum
			}
		}
	}
	return p, nil
}

// N returns the ring degree.
func (p *Parameters) N() int { return p.Chain.N }

// Slots returns the number of complex slots per ciphertext (N/2).
func (p *Parameters) Slots() int { return p.Chain.N / 2 }

// MaxLevel returns the top level of the chain.
func (p *Parameters) MaxLevel() int { return p.Chain.MaxLevel() }

// LevelModuli returns the residue moduli at a level.
func (p *Parameters) LevelModuli(level int) []uint64 {
	return p.Chain.Levels[level].Moduli
}

// DefaultScale returns the canonical scale at a level.
func (p *Parameters) DefaultScale(level int) *big.Rat {
	return new(big.Rat).Set(p.Chain.Levels[level].Scale)
}

// SpareModulus returns the RRNS spare prime, or zero when the chain was
// built without Options.RedundantResidue.
func (p *Parameters) SpareModulus() uint64 { return p.Chain.Spare }

// KeyBasis returns the basis switching keys live in: every chain modulus
// plus the special primes.
func (p *Parameters) KeyBasis() []uint64 {
	return append(append([]uint64(nil), p.union...), p.Chain.Special...)
}

// DigitOf returns the keyswitching digit a modulus belongs to. Every
// modulus reaching here comes from a chain-derived list, so a miss is an
// unreachable internal state, not a recoverable condition.
func (p *Parameters) DigitOf(q uint64) int {
	d, ok := p.digitOf[q]
	if !ok {
		panic(fmt.Sprintf("ckks: modulus %d not in chain (unreachable)", q))
	}
	return d
}
