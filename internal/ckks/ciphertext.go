package ckks

import (
	"hash/fnv"
	"math"
	"math/big"

	"bitpacker/internal/fherr"
	"bitpacker/internal/ring"
)

// Plaintext is an encoded (unencrypted) polynomial at a given level.
type Plaintext struct {
	Value *ring.Poly
	Level int
	Scale *big.Rat
}

// Ciphertext is a CKKS ciphertext (c0, c1) at a level of the chain. Both
// polynomials are kept in the NTT domain between operations.
//
// A component may be pending: the output of a keyswitch before its
// division, its rows the level's moduli followed by the chain's special
// primes, holding P·c (P their product). Rotations and MulRelin return
// pending components, the linear operations, MulPlain and the level
// changes accept them, and Rescale/AdjustTo shed P with the retired
// moduli in their one division; Evaluator.Settle divides them for every
// other reader. Scale and NoiseBits always describe the divided value.
//
// NoiseBits carries the evaluator's running estimate of log2 of the
// ciphertext's error bound in the coefficient embedding (see
// NoiseModel); it is advisory metadata updated by every homomorphic
// operation and consumed by the noise-budget guard.
//
// meta is a tamper-evidence tag over the bookkeeping fields (level,
// scale, moduli, domain flags, noise estimate), recomputed by every
// library operation via seal(). Validate detects out-of-band mutation
// of any of them — a one-ulp scale skew flips the tag just as loudly as
// a wrong level.
type Ciphertext struct {
	C0, C1    *ring.Poly
	Level     int
	Scale     *big.Rat
	NoiseBits float64

	// Spare0, Spare1 are the RRNS spare residue channels of C0 and C1:
	// the coefficients reduced mod the chain's spare prime, stored in the
	// coefficient domain. They are carried alongside the live
	// residues (never mixed into them) and cross-checked against an exact
	// CRT projection of the live residues at rescale boundaries, and used
	// to reconstruct a single corrupted residue in place. Nil when the
	// chain has no spare or the channel is stale.
	Spare0, Spare1 []uint64
	// SpareDepth is the freshness/width of the spare channel. Zero means
	// absent or stale (reseeded at the next rescale). d >= 1 means the
	// integer view of each coefficient is X = x̃ + m·Q with |m| < d,
	// where x̃ is the canonical lift of the live residues: additions
	// accumulate wraparounds mod Q that the spare channel (mod q_s) sees
	// but the live residues do not, so the checker scans the bounded set
	// of possible m values instead of assuming zero.
	SpareDepth int

	// pend counts, per component (C0, C1), the special rows it carries
	// past the level's moduli: zero when divided.
	pend [2]int

	meta uint64
}

// newCiphertext assembles and seals a ciphertext.
func newCiphertext(c0, c1 *ring.Poly, level int, scale *big.Rat, noiseBits float64) *Ciphertext {
	ct := &Ciphertext{C0: c0, C1: c1, Level: level, Scale: scale, NoiseBits: noiseBits}
	ct.seal()
	return ct
}

// CopyNew returns a deep copy.
func (ct *Ciphertext) CopyNew() *Ciphertext {
	out := newCiphertext(ct.C0.Copy(), ct.C1.Copy(), ct.Level, new(big.Rat).Set(ct.Scale), ct.NoiseBits)
	out.pend = ct.pend
	if ct.SpareDepth > 0 {
		out.Spare0 = append([]uint64(nil), ct.Spare0...)
		out.Spare1 = append([]uint64(nil), ct.Spare1...)
		out.SpareDepth = ct.SpareDepth
	}
	return out
}

// CopyCiphertexts deep-copies a whole state slice at once: every
// component row of every ciphertext is copied in a single fork/join
// (instead of one fork/join pair per ciphertext), which is what
// checkpointing and pipeline retry snapshots want. The copies' rows are
// pool-backed but owned by the returned ciphertexts.
func CopyCiphertexts(cts []*Ciphertext) []*Ciphertext {
	polys := make([]*ring.Poly, 0, 2*len(cts))
	for _, ct := range cts {
		polys = append(polys, ct.C0, ct.C1)
	}
	copies := ring.ScratchCopyBatch(polys...)
	out := make([]*Ciphertext, len(cts))
	for i, ct := range cts {
		c := newCiphertext(copies[2*i], copies[2*i+1], ct.Level, new(big.Rat).Set(ct.Scale), ct.NoiseBits)
		c.pend = ct.pend
		if ct.SpareDepth > 0 {
			c.Spare0 = append([]uint64(nil), ct.Spare0...)
			c.Spare1 = append([]uint64(nil), ct.Spare1...)
			c.SpareDepth = ct.SpareDepth
		}
		out[i] = c
	}
	return out
}

// clearSpare marks the spare channel stale. Operations whose spare
// algebra is not tracked (multiplications, keyswitching, rotations) call
// it on their outputs; the channel is reseeded from trusted state at the
// next rescale.
func (ct *Ciphertext) clearSpare() {
	ct.Spare0, ct.Spare1, ct.SpareDepth = nil, nil, 0
}

// R returns the residue count of the ciphertext's level (paper's R).
func (ct *Ciphertext) R() int { return ct.C0.R() - ct.pend[0] }

// pending reports whether either component is pending.
func (ct *Ciphertext) pending() bool { return ct.pend != [2]int{} }

// metaTag hashes the bookkeeping fields (not the coefficient payload,
// which the range check covers).
func (ct *Ciphertext) metaTag() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(ct.Level))
	put(math.Float64bits(ct.NoiseBits))
	if ct.Scale != nil {
		h.Write(ct.Scale.Num().Bytes())
		h.Write([]byte{'/'})
		h.Write(ct.Scale.Denom().Bytes())
	}
	for _, p := range []*ring.Poly{ct.C0, ct.C1} {
		if p == nil {
			put(0)
			continue
		}
		if p.IsNTT {
			put(1)
		} else {
			put(2)
		}
		for _, q := range p.Moduli {
			put(q)
		}
	}
	return h.Sum64()
}

// seal recomputes the tamper-evidence tag after a library operation
// finished updating the bookkeeping fields.
func (ct *Ciphertext) seal() { ct.meta = ct.metaTag() }

// Validate checks the ciphertext's structural invariants against the
// active chain and returns an error wrapping fherr.ErrInvariant on the
// first violation:
//
//   - both polynomials present (degree-1 ciphertext) with matching
//     moduli and NTT-domain flags (the evaluator keeps ciphertexts in
//     the NTT domain between operations);
//   - level within the chain and moduli exactly the level's canonical
//     list — followed by the special primes for a pending component
//     the evaluator made, never for one that arrives from outside;
//   - scale positive and within the representable window of the level's
//     modulus;
//   - every residue word in [0, q) for its modulus (a corrupted word is
//     overwhelmingly likely to leave the range);
//   - the metadata tag consistent, so any out-of-band mutation of
//     level/scale/noise bookkeeping — even by one ulp — is detected.
//
// Validate is wired behind Config.CheckInvariants and called at
// evaluator entry points; it costs O(R·N) and is meant for debugging,
// canaries, and fault-tolerant deployments.
func (ct *Ciphertext) Validate(params *Parameters) error {
	if err := ct.validateStructure(params); err != nil {
		return err
	}
	return ct.validateCoeffs(params)
}

// validateStructure is Validate without the coefficient scans: shape,
// moduli, scale and metadata tag.
func (ct *Ciphertext) validateStructure(params *Parameters) error {
	if ct == nil {
		return fherr.Wrap(fherr.ErrInvariant, "ckks: nil ciphertext")
	}
	if ct.C0 == nil || ct.C1 == nil {
		return fherr.Wrap(fherr.ErrInvariant, "ckks: incomplete ciphertext (missing polynomial)")
	}
	if !ct.C0.IsNTT || !ct.C1.IsNTT {
		return fherr.Wrap(fherr.ErrInvariant, "ckks: ciphertext polynomials must be in the NTT domain between operations")
	}
	if ct.Level < 0 || ct.Level > params.MaxLevel() {
		return fherr.Wrap(fherr.ErrInvariant, "ckks: level %d outside chain [0, %d]", ct.Level, params.MaxLevel())
	}
	level, special := params.LevelModuli(ct.Level), params.Chain.Special
	for c, p := range []*ring.Poly{ct.C0, ct.C1} {
		if k := ct.pend[c]; k != 0 && k != len(special) {
			return fherr.Wrap(fherr.ErrInvariant, "ckks: c%d pends over %d special rows, chain has %d", c, k, len(special))
		}
		if len(p.Moduli) != len(level)+ct.pend[c] {
			return fherr.Wrap(fherr.ErrInvariant, "ckks: level %d expects %d residues, polynomial has %d",
				ct.Level, len(level)+ct.pend[c], len(p.Moduli))
		}
		for i, q := range p.Moduli {
			var want uint64
			if i < len(level) {
				want = level[i]
			} else {
				want = special[i-len(level)]
			}
			if q != want {
				return fherr.Wrap(fherr.ErrInvariant, "ckks: level %d residue %d modulus %d, canonical chain has %d",
					ct.Level, i, q, want)
			}
		}
	}
	if ct.Scale == nil || ct.Scale.Sign() <= 0 {
		return fherr.Wrap(fherr.ErrInvariant, "ckks: non-positive scale")
	}
	if ct.meta != ct.metaTag() {
		return fherr.Wrap(fherr.ErrInvariant, "ckks: metadata tag mismatch (level/scale/noise bookkeeping tampered)")
	}
	return nil
}

func (ct *Ciphertext) validateCoeffs(params *Parameters) error {
	for pi, p := range []*ring.Poly{ct.C0, ct.C1} {
		for i, q := range p.Moduli {
			for k, c := range p.Coeffs[i] {
				if c >= q {
					return fherr.Wrap(fherr.ErrInvariant, "ckks: c%d residue %d coefficient %d = %d out of range [0, %d)",
						pi, i, k, c, q)
				}
			}
		}
	}
	if ct.SpareDepth > 0 {
		qs := params.SpareModulus()
		if qs == 0 {
			return fherr.Wrap(fherr.ErrInvariant, "ckks: spare channel present but chain has no spare prime")
		}
		for si, sp := range [][]uint64{ct.Spare0, ct.Spare1} {
			if len(sp) != params.N() {
				return fherr.Wrap(fherr.ErrInvariant, "ckks: spare%d has %d words, ring degree is %d", si, len(sp), params.N())
			}
			for k, w := range sp {
				if w >= qs {
					return fherr.Wrap(fherr.ErrInvariant, "ckks: spare%d word %d = %d out of range [0, %d)", si, k, w, qs)
				}
			}
		}
	}
	return nil
}

// scaleAlmostEqual reports whether two scales differ by less than 2^-20
// relatively; canonical-scale bookkeeping should make them exactly equal,
// the tolerance only forgives big.Rat vs target rounding at the top level.
func scaleAlmostEqual(a, b *big.Rat) bool {
	diff := new(big.Rat).Sub(a, b)
	if diff.Sign() == 0 {
		return true
	}
	diff.Abs(diff)
	rel := diff.Quo(diff, a)
	bound := big.NewRat(1, 1<<20)
	return rel.Cmp(bound) < 0
}

// addNoiseBits is log2(2^a + 2^b): combine two independent noise bounds
// additively.
func addNoiseBits(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	return a + math.Log2(1+math.Pow(2, b-a))
}
