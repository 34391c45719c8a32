package core

import (
	"fmt"
	"math"
	"math/big"
	"sort"

	"bitpacker/internal/nt"
)

// Options tunes chain construction.
type Options struct {
	// SpecialPrimes is the number of keyswitching special primes (the P
	// basis of hybrid keyswitching) to reserve. Zero is allowed for
	// chains used purely for accounting.
	SpecialPrimes int
	// MaxTerminals caps the number of terminal moduli BitPacker may use
	// per level. The paper finds no more than two are typically needed
	// with its idealized prime supply; at N=2^16 the real supply of
	// NTT-friendly primes is sparse enough that up to five are needed to
	// cover every target remainder. Defaults to 5.
	MaxTerminals int
	// RedundantResidue reserves one extra NTT-friendly prime (the RRNS
	// spare channel, Chain.Spare) before any live modulus is chosen. The
	// spare is taken first so it is the largest prime below the word
	// size, guaranteeing spare >= every live modulus — the condition
	// erasure repair needs. Off by default so existing chains are
	// byte-identical.
	RedundantResidue bool
}

func (o Options) withDefaults() Options {
	if o.MaxTerminals == 0 {
		o.MaxTerminals = 5
	}
	return o
}

// effectiveWordBits caps moduli below 2^62 so that the functional layer's
// 64-bit modular arithmetic (with lazy-reduction slack) stays correct even
// on "64-bit word" accelerator configurations.
func effectiveWordBits(w int) int {
	if w > 61 {
		return 61
	}
	return w
}

// primePool hands out distinct NTT-friendly primes.
type primePool struct {
	m    uint64 // 2N
	used map[uint64]bool
}

func newPrimePool(n int) *primePool {
	return &primePool{m: uint64(2 * n), used: map[uint64]bool{}}
}

// minPrimeBits returns the bit width of the smallest NTT-friendly prime.
func (pp *primePool) minPrimeBits() float64 {
	p := nt.NextNTTPrime(pp.m, pp.m)
	return math.Log2(float64(p))
}

// take marks a prime as used.
func (pp *primePool) take(p uint64) { pp.used[p] = true }

// near returns the unused NTT-friendly prime whose size is closest to
// targetBits, not exceeding maxBits. It marks the prime used.
func (pp *primePool) near(targetBits float64, maxBits int) (uint64, error) {
	target := uint64(math.Round(math.Exp2(math.Min(targetBits, 62))))
	limit := uint64(1) << uint(maxBits)
	for _, p := range nt.NTTPrimesNear(target, pp.m, 64) {
		if p >= limit || pp.used[p] {
			continue
		}
		pp.take(p)
		return p, nil
	}
	return 0, fmt.Errorf("core: no unused NTT-friendly prime near 2^%.1f (max %d bits)", targetBits, maxBits)
}

// belowWord returns the largest unused prime strictly below 2^bits.
func (pp *primePool) belowWord(bits int) (uint64, error) {
	p := nt.PreviousNTTPrime(uint64(1)<<uint(bits), pp.m)
	for p != 0 && pp.used[p] {
		p = nt.PreviousNTTPrime(p, pp.m)
	}
	if p == 0 {
		return 0, fmt.Errorf("core: ran out of primes below 2^%d", bits)
	}
	pp.take(p)
	return p, nil
}

func log2u(p uint64) float64 { return math.Log2(float64(p)) }

// reserveSpare takes the RRNS spare prime when the option asks for one.
// It must run before any live modulus is drawn from the pool: taking the
// largest prime below the word size first guarantees spare >= every live
// modulus, which erasure repair relies on.
func reserveSpare(pool *primePool, w int, opts Options) (uint64, error) {
	if !opts.RedundantResidue {
		return 0, nil
	}
	p, err := pool.belowWord(w)
	if err != nil {
		return 0, fmt.Errorf("core: reserving RRNS spare: %w", err)
	}
	return p, nil
}

// validateSpecs performs the shared sanity checks.
func validateSpecs(prog ProgramSpec, sec SecuritySpec, hw HWSpec) error {
	if prog.MaxLevel < 0 {
		return fmt.Errorf("core: negative MaxLevel")
	}
	if len(prog.TargetScaleBits) != prog.MaxLevel+1 {
		return fmt.Errorf("core: TargetScaleBits must have MaxLevel+1=%d entries, got %d",
			prog.MaxLevel+1, len(prog.TargetScaleBits))
	}
	if sec.LogN < 4 || sec.LogN > 17 {
		return fmt.Errorf("core: LogN=%d out of range", sec.LogN)
	}
	if hw.WordBits < 20 || hw.WordBits > 64 {
		return fmt.Errorf("core: WordBits=%d out of range [20,64]", hw.WordBits)
	}
	return nil
}

// ---------------------------------------------------------------------------
// RNS-CKKS baseline builder
// ---------------------------------------------------------------------------

// feasibleScaleBits raises a requested scale to the smallest one RNS-CKKS
// can realize with m = ceil(s/w) primes of at least minPrime bits each
// (paper Sec. 5: at w=28 a 30-bit scale is impossible; the smallest
// realizable is ~35 bits from 17- and 18-bit primes).
func feasibleScaleBits(s float64, w int, minPrime float64) float64 {
	if s <= 0 {
		return minPrime
	}
	m := math.Ceil(s / float64(w))
	// The extra bit of margin keeps the rescale recurrence self-correcting:
	// without it the shed product is pinned at its floor and the realized
	// scale drifts monotonically below the raised target.
	if need := m*minPrime + 1; s < need {
		return need
	}
	return s
}

// BuildRNSCKKS constructs the baseline chain: each level's scale is
// realized by dedicated residue moduli (one per level, or several under
// multiple-prime rescaling when the scale exceeds the word size), and each
// level's modulus is a prefix of the top level's.
func BuildRNSCKKS(prog ProgramSpec, sec SecuritySpec, hw HWSpec, opts Options) (*Chain, error) {
	if err := validateSpecs(prog, sec, hw); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	n := 1 << uint(sec.LogN)
	pool := newPrimePool(n)
	w := effectiveWordBits(hw.WordBits)
	minPrime := pool.minPrimeBits()
	if float64(w) < minPrime {
		return nil, fmt.Errorf("core: word size %d below smallest NTT-friendly prime (%.1f bits) for N=%d", hw.WordBits, minPrime, n)
	}

	spare, err := reserveSpare(pool, w, opts)
	if err != nil {
		return nil, err
	}

	// Special primes first: largest available, so keyswitching digits fit.
	special := make([]uint64, 0, opts.SpecialPrimes)
	for i := 0; i < opts.SpecialPrimes; i++ {
		p, err := pool.belowWord(w)
		if err != nil {
			return nil, err
		}
		special = append(special, p)
	}

	// Candidate primes, sorted descending, filtered against pool usage on
	// every pick.
	allCands := terminalCandidates(pool, w)
	// nearestByBits returns the available prime whose size is closest to
	// bits. RNS-CKKS has no 0.5-bit matching guarantee (that is
	// BitPacker's contribution); real libraries take the nearest prime
	// and let the rescale recurrence absorb the deviation.
	nearestByBits := func(bits float64) (uint64, error) {
		best := uint64(0)
		bestDist := math.Inf(1)
		for _, p := range allCands {
			if pool.used[p] {
				continue
			}
			if d := math.Abs(log2u(p) - bits); d < bestDist {
				best, bestDist = p, d
			}
		}
		if best == 0 {
			return 0, fmt.Errorf("core: prime supply exhausted near 2^%.1f at w=%d", bits, hw.WordBits)
		}
		pool.take(best)
		return best, nil
	}

	// Base moduli covering QMin at level 0: packed word-sized primes.
	// The base has no scale-matching requirement, so it must not consume
	// the scarce small primes that awkward scales need.
	baseCount := int(math.Max(1, math.Ceil(prog.QMinBits/float64(w))))
	base := make([]uint64, 0, baseCount)
	for i := 0; i < baseCount; i++ {
		p, err := pool.belowWord(w)
		if err != nil {
			return nil, err
		}
		base = append(base, p)
	}

	// Realizable target scales.
	targets := make([]float64, prog.MaxLevel+1)
	for l := range targets {
		targets[l] = feasibleScaleBits(prog.TargetScaleBits[l], w, minPrime)
	}

	// Walk top-down choosing each level's shed primes so the realized
	// scale after rescaling matches the next target.
	scales := make([]*big.Rat, prog.MaxLevel+1)
	scales[prog.MaxLevel] = pow2Rat(targets[prog.MaxLevel])
	levelPrimes := make([][]uint64, prog.MaxLevel+1) // primes owned by level l (shed on leaving it)
	for l := prog.MaxLevel; l >= 1; l-- {
		// Shed product target D = S_l^2 / T_{l-1}. The residue count for
		// the level is pinned by its (realizable) target scale — one word
		// per level when the scale fits the word, several under
		// multiple-prime rescaling — exactly the paper's RNS-CKKS
		// structure. The primes are the nearest available; any product
		// deviation feeds back through the recurrence.
		dBits := math.Max(2*ratLog2(scales[l])-targets[l-1], minPrime)
		// Words per level: enough for the shed product (which can exceed
		// the level's scale when adjacent targets differ) and never fewer
		// than the level's scale requires.
		m := int(math.Ceil(dBits / float64(w)))
		if ms := int(math.Ceil(targets[l] / float64(w))); ms > m {
			m = ms
		}
		if m < 1 {
			m = 1
		}
		rem := math.Max(dBits, float64(m)*minPrime)
		ps := make([]uint64, 0, m)
		for i := 0; i < m; i++ {
			per := rem / float64(m-i)
			if per < minPrime {
				per = minPrime
			}
			if per > float64(w) {
				per = float64(w)
			}
			p, err := nearestByBits(per)
			if err != nil {
				return nil, fmt.Errorf("level %d: %w", l, err)
			}
			ps = append(ps, p)
			rem -= log2u(p)
		}
		levelPrimes[l] = ps
		prod := new(big.Rat).SetInt64(1)
		for _, p := range ps {
			prod.Mul(prod, new(big.Rat).SetFrac(new(big.Int).SetUint64(p), big.NewInt(1)))
		}
		s2 := new(big.Rat).Mul(scales[l], scales[l])
		scales[l-1] = LimitRat(s2.Quo(s2, prod))
	}

	// Assemble levels: level l uses base + primes of levels 1..l.
	ch := &Chain{Scheme: RNSCKKS, N: n, WordBits: hw.WordBits, Special: special, Spare: spare}
	cur := append([]uint64(nil), base...)
	for l := 0; l <= prog.MaxLevel; l++ {
		if l > 0 {
			cur = append(cur, levelPrimes[l]...)
		}
		moduli := append([]uint64(nil), cur...)
		var qb float64
		for _, q := range moduli {
			qb += log2u(q)
		}
		ch.Levels = append(ch.Levels, &Level{
			Index:           l,
			Moduli:          moduli,
			NonTerminal:     len(moduli),
			Scale:           scales[l],
			QBits:           qb,
			TargetScaleBits: prog.TargetScaleBits[l],
		})
	}
	top := ch.Levels[prog.MaxLevel]
	var spBits float64
	for _, p := range special {
		spBits += log2u(p)
	}
	if sec.QMaxBits > 0 && top.QBits+spBits > sec.QMaxBits+0.5 {
		return nil, fmt.Errorf("core: RNS-CKKS chain needs %.0f modulus bits (+%.0f special) but security budget is %.0f",
			top.QBits, spBits, sec.QMaxBits)
	}
	return ch, nil
}

// ---------------------------------------------------------------------------
// BitPacker builder (paper Sec. 3.3, Listing 7)
// ---------------------------------------------------------------------------

// termCand pairs a candidate prime with its precomputed size in bits.
type termCand struct {
	p    uint64
	bits float64
}

// greedyTerminals is Listing 7: a depth-first search over candidate primes
// (descending) whose product lands within 0.5 bits of targetBits. cands
// must be sorted descending. Returns nil when no combination exists.
func greedyTerminals(targetBits float64, cands []uint64, maxDepth int) []uint64 {
	return greedyTerminalsTol(targetBits, cands, maxDepth, 0.5)
}

// greedyTerminalsTol is greedyTerminals with an explicit acceptance
// half-width in bits. The paper fixes it at 0.5; BitPacker's builder
// widens it stepwise when the (real, scarce) prime supply at N=2^16
// admits no combination inside the ideal window.
func greedyTerminalsTol(targetBits float64, cands []uint64, maxDepth int, tol float64) []uint64 {
	tc := make([]termCand, 0, len(cands))
	// Bucket near-identical prime sizes (1/64-bit granularity, far finer
	// than the 0.5-bit acceptance window) keeping up to maxDepth per
	// bucket, so failed searches don't retry thousands of equivalent
	// primes.
	counts := map[int]int{}
	for _, p := range cands {
		b := log2u(p)
		bucket := int(b * 64)
		if counts[bucket] >= maxDepth {
			continue
		}
		counts[bucket]++
		tc = append(tc, termCand{p: p, bits: b})
	}
	return greedyDFS(targetBits, tc, maxDepth, tol)
}

func greedyDFS(target float64, cands []termCand, maxDepth int, tol float64) []uint64 {
	if math.Abs(target) <= tol {
		return []uint64{} // already matched; no terminal needed
	}
	if target < -tol || maxDepth == 0 || len(cands) == 0 {
		return nil
	}
	// Even the largest remaining candidates cannot reach the target.
	if target > float64(maxDepth)*cands[0].bits+tol {
		return nil
	}
	// Skip candidates that overshoot (candidates are descending).
	start := sort.Search(len(cands), func(i int) bool { return cands[i].bits <= target+tol })
	if maxDepth == 1 {
		if start < len(cands) && cands[start].bits >= target-tol {
			return []uint64{cands[start].p}
		}
		return nil
	}
	for idx := start; idx < len(cands); idx++ {
		c := cands[idx]
		// Candidates only shrink from here; if even maxDepth copies of
		// this size cannot reach the target, nothing later can.
		if target > float64(maxDepth)*c.bits+tol {
			return nil
		}
		if rest := greedyDFS(target-c.bits, cands[idx+1:], maxDepth-1, tol); rest != nil {
			return append([]uint64{c.p}, rest...)
		}
	}
	return nil
}

// sampledTerminals is how many log-spaced candidate terminal primes are
// sampled when exhaustive enumeration is too large: the paper's 500.
const sampledTerminals = 500

// terminalCandidates samples candidate terminal primes: exhaustive when the
// word size is small (w <= 36 as in the paper), else sampledTerminals
// log-spaced picks.
func terminalCandidates(pp *primePool, w int) []uint64 {
	minBits := pp.minPrimeBits()
	seen := map[uint64]bool{}
	var out []uint64
	add := func(p uint64) {
		if p != 0 && !pp.used[p] && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	// Exhaustive enumeration when the candidate space is small (the paper
	// enumerates exhaustively for w <= 36 at N=64K); otherwise sample
	// log-spaced primes as the paper does for wide words.
	if float64(w)-math.Log2(float64(pp.m)) <= 14 {
		for p := nt.PreviousNTTPrime(uint64(1)<<uint(w), pp.m); p != 0; p = nt.PreviousNTTPrime(p, pp.m) {
			add(p)
		}
	} else {
		step := (float64(w) - minBits) / sampledTerminals
		for b := float64(w); b > minBits; b -= step {
			target := uint64(math.Exp2(b))
			add(nt.PreviousNTTPrime(target, pp.m))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// BuildBitPacker constructs the packed chain: a global descending list of
// word-sized non-terminal moduli shared (as prefixes) by all levels, plus
// per-level terminal moduli chosen by greedy DFS so every level's modulus
// (hence scale) lands within 0.5 bits of its target.
func BuildBitPacker(prog ProgramSpec, sec SecuritySpec, hw HWSpec, opts Options) (*Chain, error) {
	if err := validateSpecs(prog, sec, hw); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	n := 1 << uint(sec.LogN)
	pool := newPrimePool(n)
	w := effectiveWordBits(hw.WordBits)
	minPrime := pool.minPrimeBits()
	if float64(w) < minPrime {
		return nil, fmt.Errorf("core: word size %d below smallest NTT-friendly prime (%.1f bits) for N=%d", hw.WordBits, minPrime, n)
	}

	spare, err := reserveSpare(pool, w, opts)
	if err != nil {
		return nil, err
	}

	// Special primes.
	special := make([]uint64, 0, opts.SpecialPrimes)
	for i := 0; i < opts.SpecialPrimes; i++ {
		p, err := pool.belowWord(w)
		if err != nil {
			return nil, err
		}
		special = append(special, p)
	}

	// Target modulus widths per level (top-down recurrence uses actual
	// scales, computed as we build; here we derive the top target).
	qMaxNeeded := prog.QMinBits
	for l := 1; l <= prog.MaxLevel; l++ {
		qMaxNeeded += 2*prog.TargetScaleBits[l] - prog.TargetScaleBits[l-1]
	}
	var spBits float64
	for _, p := range special {
		spBits += log2u(p)
	}
	if sec.QMaxBits > 0 && qMaxNeeded+spBits > sec.QMaxBits+0.5 {
		return nil, fmt.Errorf("core: BitPacker chain needs %.0f modulus bits (+%.0f special) but security budget is %.0f",
			qMaxNeeded, spBits, sec.QMaxBits)
	}

	// Global non-terminal moduli: largest primes below 2^w, descending.
	ntCount := int(math.Ceil(qMaxNeeded/float64(w))) + 1
	nonTerminals := make([]uint64, 0, ntCount)
	for i := 0; i < ntCount; i++ {
		p, err := pool.belowWord(w)
		if err != nil {
			return nil, err
		}
		nonTerminals = append(nonTerminals, p)
	}
	cands := terminalCandidates(pool, w)

	ch := &Chain{Scheme: BitPacker, N: n, WordBits: hw.WordBits, Special: special, Spare: spare}
	ch.Levels = make([]*Level, prog.MaxLevel+1)

	scales := make([]*big.Rat, prog.MaxLevel+1)
	qActual := make([]*big.Rat, prog.MaxLevel+1)

	prevTerminals := map[uint64]bool{}
	targetQBits := qMaxNeeded
	for l := prog.MaxLevel; l >= 0; l-- {
		// Choose the non-terminal prefix and terminals for targetQBits.
		var moduli []uint64
		var terms []uint64
		found := false
		// Longest prefix whose remainder still admits a terminal match.
		maxJ := 0
		acc := 0.0
		for maxJ < len(nonTerminals) && acc+log2u(nonTerminals[maxJ]) <= targetQBits+0.5 {
			acc += log2u(nonTerminals[maxJ])
			maxJ++
		}
		// Filter candidates: not used by the adjacent (already built)
		// level's terminals, so scale-up moduli are coprime with the
		// source modulus.
		avail := make([]uint64, 0, len(cands))
		for _, p := range cands {
			if !prevTerminals[p] {
				avail = append(avail, p)
			}
		}
		// Ideal 0.5-bit acceptance first; widen only if the prime supply
		// admits no combination at all (possible at N=2^16, where NTT-
		// friendly primes are scarce).
	search:
		for _, tol := range []float64{0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0} {
			for j := maxJ; j >= 0; j-- {
				var ntBits float64
				for i := 0; i < j; i++ {
					ntBits += log2u(nonTerminals[i])
				}
				rem := targetQBits - ntBits
				terms = greedyTerminalsTol(rem, avail, opts.MaxTerminals, tol)
				if terms != nil {
					moduli = append(append([]uint64(nil), nonTerminals[:j]...), terms...)
					found = true
					break search
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("core: no terminal combination for level %d target %.1f bits (w=%d)", l, targetQBits, hw.WordBits)
		}

		q := new(big.Rat).SetInt64(1)
		for _, m := range moduli {
			q.Mul(q, new(big.Rat).SetFrac(new(big.Int).SetUint64(m), big.NewInt(1)))
		}
		qActual[l] = q
		if l == prog.MaxLevel {
			scales[l] = pow2Rat(prog.TargetScaleBits[l])
		}
		ch.Levels[l] = &Level{
			Index:           l,
			Moduli:          moduli,
			NonTerminal:     len(moduli) - len(terms),
			Terminal:        len(terms),
			Scale:           nil, // filled below
			QBits:           ratLog2(q),
			TargetScaleBits: prog.TargetScaleBits[l],
		}

		prevTerminals = map[uint64]bool{}
		for _, p := range terms {
			prevTerminals[p] = true
		}
		if l > 0 {
			// Next target: Q_{l-1} = Q_l * T_{l-1} / S_l^2 where S_l is
			// the actual scale at l. Compute S_l now (it depends on the
			// actual Q ratio from the level above).
			if l < prog.MaxLevel {
				s2 := new(big.Rat).Mul(scales[l+1], scales[l+1])
				ratio := new(big.Rat).Quo(qActual[l], qActual[l+1])
				scales[l] = LimitRat(s2.Mul(s2, ratio))
			}
			targetQBits = ratLog2(qActual[l]) + prog.TargetScaleBits[l-1] - 2*ratLog2(scales[l])
			// Every level must shed at least one residue: clamp the
			// target so pathological schedules (a lower level asking for
			// a larger scale than twice the level above) still produce a
			// strictly decreasing modulus chain.
			if maxNext := ratLog2(qActual[l]) - (minPrime - 0.5); targetQBits > maxNext {
				targetQBits = maxNext
			}
		}
	}
	// Scale at level 0.
	if prog.MaxLevel > 0 {
		s2 := new(big.Rat).Mul(scales[1], scales[1])
		ratio := new(big.Rat).Quo(qActual[0], qActual[1])
		scales[0] = LimitRat(s2.Mul(s2, ratio))
	}
	for l := 0; l <= prog.MaxLevel; l++ {
		ch.Levels[l].Scale = scales[l]
	}
	return ch, nil
}
