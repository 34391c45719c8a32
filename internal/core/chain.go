// Package core implements the paper's primary contribution: the mapping
// from program levels to RNS residue moduli.
//
// Two builders produce a Chain from the same program/hardware/security
// constraints (paper Fig. 8):
//
//   - RNS-CKKS (baseline, Sec. 2.3): one scale per level, each level's
//     scale realized by one residue modulus — or several, via
//     multiple-prime rescaling, when the scale exceeds the hardware word.
//   - BitPacker (Sec. 3): residues decoupled from scales; every level packs
//     as many word-sized non-terminal moduli as fit, topped by one or a few
//     terminal moduli selected by a greedy DFS (Listing 7) so the realized
//     scale lands within 0.5 bits of the target.
//
// A Chain also precomputes the per-level transitions (which moduli are
// introduced and which are shed) that the ckks evaluator's rescale and
// adjust use, for both schemes, through the same scaleUp/scaleDown
// primitives.
package core

import (
	"fmt"
	"math"
	"math/big"
	"strings"

	"bitpacker/internal/nt"
)

// Scheme identifies which representation a chain uses.
type Scheme int

const (
	// RNSCKKS is the baseline representation (Cheon et al. SAC'18).
	RNSCKKS Scheme = iota
	// BitPacker is the paper's packed representation.
	BitPacker
)

func (s Scheme) String() string {
	if s == BitPacker {
		return "BitPacker"
	}
	return "RNS-CKKS"
}

// ProgramSpec captures the program constraints of Fig. 8.
type ProgramSpec struct {
	// MaxLevel is the multiplicative depth (levels run 0..MaxLevel).
	MaxLevel int
	// TargetScaleBits[L] is the program's requested scale at level L,
	// in bits. Length MaxLevel+1; entry 0 is the scale carried by the
	// level-0 ciphertext.
	TargetScaleBits []float64
	// QMinBits is the modulus width required at level 0 (for decryption
	// or bootstrapping).
	QMinBits float64
}

// SecuritySpec captures the security constraints of Fig. 8.
type SecuritySpec struct {
	// LogN is log2 of the ring degree.
	LogN int
	// QMaxBits is the total modulus budget (including keyswitching
	// special primes) allowed at the target security level.
	QMaxBits float64
}

// HWSpec captures the hardware constraint of Fig. 8.
type HWSpec struct {
	// WordBits is the datapath word size w (28..64 in the paper).
	WordBits int
}

// Level describes the modulus and scale at one level of a chain.
type Level struct {
	Index  int
	Moduli []uint64 // ordered: shared prefix first, terminals last
	// NonTerminal counts word-packed moduli (BitPacker) or, for RNS-CKKS,
	// is always len(Moduli) with Terminal 0; kept for reporting.
	NonTerminal int
	Terminal    int
	// Scale is the exact scale S_L ciphertexts carry at this level.
	Scale *big.Rat
	// QBits is log2 of the level modulus Q_L.
	QBits float64
	// TargetScaleBits echoes the program's request for this level.
	TargetScaleBits float64
}

// R returns the residue count at this level (the paper's R).
func (l *Level) R() int { return len(l.Moduli) }

// Q returns the level modulus as a big integer.
func (l *Level) Q() *big.Int {
	q := big.NewInt(1)
	for _, m := range l.Moduli {
		q.Mul(q, new(big.Int).SetUint64(m))
	}
	return q
}

// Transition describes how a ciphertext moves from level From to level
// From-1: scale up by the Up moduli (those in the destination but not the
// source), then scale down by the Down moduli (those in the source but not
// the destination). For RNS-CKKS, Up is always empty.
type Transition struct {
	From int
	Up   []uint64
	Down []uint64
}

// Chain is a complete level-to-modulus map plus keyswitching special
// primes.
type Chain struct {
	Scheme   Scheme
	N        int
	WordBits int
	Levels   []*Level // Levels[L], L = 0..MaxLevel
	// Special holds the keyswitching special primes (the P basis).
	Special []uint64
	// Spare is the redundant-residue (RRNS) check modulus, reserved when
	// Options.RedundantResidue is set and zero otherwise. It is carried
	// as an independent channel alongside the live residues and is never
	// part of any level's modulus. It must be at least as large as every
	// live modulus so a corrupted residue can be reconstructed from the
	// remaining residues plus the spare (erasure repair needs the spare's
	// range to cover the erased modulus).
	Spare uint64
}

// MaxLevel returns the top level index.
func (c *Chain) MaxLevel() int { return len(c.Levels) - 1 }

// AllModuli returns the union of every modulus the chain can touch
// (all levels plus special primes), without duplicates.
func (c *Chain) AllModuli() []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	add := func(qs []uint64) {
		for _, q := range qs {
			if !seen[q] {
				seen[q] = true
				out = append(out, q)
			}
		}
	}
	for _, l := range c.Levels {
		add(l.Moduli)
	}
	add(c.Special)
	if c.Spare != 0 {
		add([]uint64{c.Spare})
	}
	return out
}

// TransitionDown computes the up/down moduli sets for moving from level
// `from` to level `from-1`.
func (c *Chain) TransitionDown(from int) Transition {
	if from <= 0 || from > c.MaxLevel() {
		panic(fmt.Sprintf("core: bad transition from level %d", from))
	}
	src := c.Levels[from].Moduli
	dst := c.Levels[from-1].Moduli
	inSrc := make(map[uint64]bool, len(src))
	for _, q := range src {
		inSrc[q] = true
	}
	inDst := make(map[uint64]bool, len(dst))
	for _, q := range dst {
		inDst[q] = true
	}
	tr := Transition{From: from}
	for _, q := range dst {
		if !inSrc[q] {
			tr.Up = append(tr.Up, q)
		}
	}
	for _, q := range src {
		if !inDst[q] {
			tr.Down = append(tr.Down, q)
		}
	}
	return tr
}

// MeanR returns the average residue count across levels, a headline
// efficiency statistic (fewer residues = less work per homomorphic op).
func (c *Chain) MeanR() float64 {
	total := 0
	for _, l := range c.Levels {
		total += l.R()
	}
	return float64(total) / float64(len(c.Levels))
}

// PackingOverhead returns, for level L, the fraction of datapath bits that
// carry no information: 1 - log2(Q_L) / (R * w). This is the overhead
// highlighted in the paper's Fig. 1.
func (c *Chain) PackingOverhead(level int) float64 {
	l := c.Levels[level]
	used := float64(l.R() * c.WordBits)
	return 1 - l.QBits/used
}

// Describe renders the chain level by level, top level first: residue
// count, modulus bits, scale, packing overhead and the terminal split.
func (c *Chain) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s chain, N=%d, word=%d bits, %d levels\n",
		c.Scheme, c.N, c.WordBits, c.MaxLevel()+1)
	for l := c.MaxLevel(); l >= 0; l-- {
		lv := c.Levels[l]
		fmt.Fprintf(&sb, "  L%-3d R=%-3d logQ=%7.1f  scale=2^%-6.2f  overhead=%4.1f%%  (%d non-terminal + %d terminal)\n",
			l, lv.R(), lv.QBits, RatLog2(lv.Scale), 100*c.PackingOverhead(l), lv.NonTerminal, lv.Terminal)
	}
	fmt.Fprintf(&sb, "  special primes: %d\n", len(c.Special))
	return sb.String()
}

// ratLog2 approximates log2 of a positive rational.
func ratLog2(r *big.Rat) float64 {
	num := r.Num()
	den := r.Denom()
	f := new(big.Float).SetInt(num)
	g := new(big.Float).SetInt(den)
	mantN, mantD := new(big.Float), new(big.Float)
	expN := f.MantExp(mantN)
	expD := g.MantExp(mantD)
	mn, _ := mantN.Float64()
	md, _ := mantD.Float64()
	return float64(expN-expD) + math.Log2(mn) - math.Log2(md)
}

// LimitRat rounds a rational to ~320 bits of precision. Exact scale
// tracking through the recurrence S_{l-1} = S_l^2 / D_l doubles the
// rational's size every level (exponential blowup on 20-level chains);
// capping at 320 bits keeps the relative error below 2^-300, far beneath
// CKKS noise, while keeping arithmetic fast.
func LimitRat(r *big.Rat) *big.Rat {
	const prec = 320
	if r.Num().BitLen() <= prec && r.Denom().BitLen() <= prec {
		return r
	}
	f := new(big.Float).SetPrec(prec).SetRat(r)
	out, _ := f.Rat(nil)
	return out
}

// RatLog2 approximates log2 of a positive rational (exported for
// reporting layers).
func RatLog2(r *big.Rat) float64 { return ratLog2(r) }

// pow2Rat returns 2^bits as an exact rational for integer bits, or the
// nearest representable value for fractional bits (used only for target
// scales, which the builders treat as approximate anyway).
func pow2Rat(bits float64) *big.Rat {
	i, frac := math.Modf(bits)
	r := new(big.Rat)
	exp := int(i)
	mant := math.Exp2(frac)
	// mant in [1,2): represent with 53-bit precision.
	const prec = 1 << 52
	r.SetFrac(big.NewInt(int64(mant*prec)), big.NewInt(prec))
	two := big.NewRat(2, 1)
	half := big.NewRat(1, 2)
	for ; exp > 0; exp-- {
		r.Mul(r, two)
	}
	for ; exp < 0; exp++ {
		r.Mul(r, half)
	}
	return r
}

// Validate checks internal consistency of a chain: distinct moduli within
// each level, NTT-friendliness, word-size fit, and monotone modulus sizes.
func (c *Chain) Validate() error {
	m := uint64(2 * c.N)
	for _, l := range c.Levels {
		seen := map[uint64]bool{}
		for _, q := range l.Moduli {
			if seen[q] {
				return fmt.Errorf("core: level %d repeats modulus %d", l.Index, q)
			}
			seen[q] = true
			if !nt.IsNTTFriendly(q, m) {
				return fmt.Errorf("core: level %d modulus %d not NTT-friendly", l.Index, q)
			}
			if float64(bitsOf(q)) > float64(c.WordBits) {
				return fmt.Errorf("core: level %d modulus %d exceeds word size %d", l.Index, q, c.WordBits)
			}
		}
		if l.Scale.Sign() <= 0 {
			return fmt.Errorf("core: level %d has nonpositive scale", l.Index)
		}
	}
	for i := 1; i < len(c.Levels); i++ {
		if c.Levels[i].QBits <= c.Levels[i-1].QBits {
			return fmt.Errorf("core: modulus not increasing between levels %d and %d", i-1, i)
		}
	}
	for _, q := range c.Special {
		if !nt.IsNTTFriendly(q, m) {
			return fmt.Errorf("core: special prime %d not NTT-friendly", q)
		}
	}
	if c.Spare != 0 {
		if !nt.IsNTTFriendly(c.Spare, m) {
			return fmt.Errorf("core: spare prime %d not NTT-friendly", c.Spare)
		}
		for _, l := range c.Levels {
			for _, q := range l.Moduli {
				if q == c.Spare {
					return fmt.Errorf("core: spare prime %d collides with level %d", c.Spare, l.Index)
				}
				if q > c.Spare {
					return fmt.Errorf("core: spare prime %d below level-%d modulus %d (erasure repair needs spare >= all live moduli)", c.Spare, l.Index, q)
				}
			}
		}
		for _, q := range c.Special {
			if q == c.Spare {
				return fmt.Errorf("core: spare prime %d collides with a special prime", c.Spare)
			}
		}
	}
	return nil
}

func bitsOf(q uint64) int {
	b := 0
	for x := q; x > 0; x >>= 1 {
		b++
	}
	return b
}
