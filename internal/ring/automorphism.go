package ring

import "math/bits"

// Automorphisms of Z_q[X]/(X^N+1): the maps φ_k(X) = X^k for odd k,
// which implement CKKS slot rotations (k = 5^r mod 2N) and conjugation
// (k = 2N-1).

// GaloisElementForRotation returns the Galois element 5^steps mod 2N that
// rotates the encrypted slot vector left by steps positions.
func GaloisElementForRotation(steps, n int) uint64 {
	m := uint64(2 * n)
	// Normalize steps into [0, n/2).
	half := n / 2
	s := ((steps % half) + half) % half
	g := uint64(1)
	for i := 0; i < s; i++ {
		g = g * 5 % m
	}
	return g
}

// GaloisElementForConjugation returns the Galois element 2N-1 implementing
// complex conjugation of the slots.
func GaloisElementForConjugation(n int) uint64 {
	return uint64(2*n - 1)
}

// autoSignBit marks, in a cached automorphism table entry, that the
// coefficient picks up a sign flip (its image lands in [N, 2N)).
const autoSignBit = 1 << 63

// AutomorphismTable returns (building and caching lazily) the permutation
// table of φ_k: entry j holds the destination index of coefficient j, with
// autoSignBit set when the coefficient is negated. k must be odd.
func (c *Context) AutomorphismTable(k uint64) []uint64 {
	if k%2 == 0 {
		panic("ring: Galois element must be odd")
	}
	n := uint64(c.N)
	m := 2 * n
	k %= m
	c.autoMu.RLock()
	t, ok := c.autoTabs[k]
	c.autoMu.RUnlock()
	if ok {
		return t
	}
	c.autoMu.Lock()
	defer c.autoMu.Unlock()
	if t, ok := c.autoTabs[k]; ok { // double-checked: another worker won
		return t
	}
	t = make([]uint64, n)
	for j := uint64(0); j < n; j++ {
		idx := j * k % m
		if idx >= n {
			t[j] = (idx - n) | autoSignBit
		} else {
			t[j] = idx
		}
	}
	c.autoTabs[k] = t
	return t
}

// AutomorphismNTTTable returns (building and caching lazily) the gather
// table of φ_k in the NTT evaluation domain: out[j] = in[tab[j]], with no
// sign corrections. k must be odd.
//
// The forward transform (decimation-in-time over ψ powers in bit-reversed
// order) emits out[j] = a(ψ^{e_j}) with e_j = 2·brv(j)+1, where brv is
// the logN-bit reversal. Applying φ_k and evaluating at ψ^{e_j} gives
// a(ψ^{k·e_j mod 2N}) — another primitive 2N-th root, since k is odd —
// so NTT(φ_k(a)) is a pure permutation of NTT(a): tab[j] indexes the
// evaluation point with exponent k·e_j mod 2N. The table depends only on
// the transform's ordering convention, not on the modulus, so one table
// serves every residue row.
func (c *Context) AutomorphismNTTTable(k uint64) []uint64 {
	if k%2 == 0 {
		panic("ring: Galois element must be odd")
	}
	n := uint64(c.N)
	m := 2 * n
	k %= m
	c.autoMu.RLock()
	t, ok := c.autoNTTTabs[k]
	c.autoMu.RUnlock()
	if ok {
		return t
	}
	c.autoMu.Lock()
	defer c.autoMu.Unlock()
	if t, ok := c.autoNTTTabs[k]; ok { // double-checked: another worker won
		return t
	}
	logN := bits.Len64(n) - 1
	brv := func(x uint64) uint64 {
		if logN == 0 {
			return 0
		}
		return bits.Reverse64(x) >> (64 - logN)
	}
	t = make([]uint64, n)
	for j := uint64(0); j < n; j++ {
		e := 2*brv(j) + 1
		t[j] = brv((e*k%m - 1) / 2)
	}
	c.autoNTTTabs[k] = t
	return t
}

// PermuteNTT returns φ_k(p) for NTT-domain p: a pure gather of evaluation
// points, with zero transforms. Bit-identical to INTT+Automorphism+NTT
// because the transform is exact and emits canonical residues, so the
// permuted evaluation values are the same canonical words either way.
func (p *Poly) PermuteNTT(k uint64) *Poly {
	out := p.scratchLike()
	each(gatherOp("PermuteNTT", out, p, k))
	return out
}

// PermuteNTTAdd returns φ_k(p) + b (both NTT domain) in one gather pass
// per row — the hoisted-rotation C0 fold, with the keyswitch correction
// added while the gathered word is still in a register.
func (p *Poly) PermuteNTTAdd(k uint64, b *Poly) *Poly {
	out := p.scratchLike()
	each(gatherAddOp("PermuteNTTAdd", out, p, b, k))
	return out
}

// Automorphism returns φ_k(p): out coefficient at index (i·k mod 2N) gets
// ±p_i, with the sign flipped when i·k mod 2N lands in [N, 2N).
// p must be in the coefficient domain and k must be odd. The index map is
// served from a per-context cache, so repeated applications (hoisted
// rotations apply the same φ_k to every keyswitching digit) only pay the
// permutation itself.
func (p *Poly) Automorphism(k uint64) *Poly {
	out := p.scratchLike()
	each(permuteOp("Automorphism", out, p, k))
	return out
}

// MulByMonomial returns p * X^k (mod X^N+1), an exact, noise-free
// operation. Multiplying by X^{N/2} multiplies every CKKS slot by the
// imaginary unit i (since 5^k ≡ 1 mod 4, all slot evaluation points see
// the same quarter rotation). p must be in the coefficient domain.
func (p *Poly) MulByMonomial(k int) *Poly {
	needNTT("MulByMonomial", p, false)
	n := p.ctx.N
	k = ((k % (2 * n)) + 2*n) % (2 * n)
	// The shift j -> j+k mod 2N is a bijection, so every output slot is
	// written exactly once and the non-zeroed pooled poly is safe.
	out := p.scratchLike()
	each(out.op(func(i int) {
		q := p.Moduli[i]
		src, dst := p.Coeffs[i], out.Coeffs[i]
		for j := 0; j < n; j++ {
			idx := j + k
			v := src[j]
			// Reduce X^{idx} modulo X^N + 1: every wrap over N flips
			// the sign.
			for idx >= n {
				idx -= n
				if v != 0 {
					v = q - v
				}
			}
			dst[idx] = v
		}
	}))
	return out
}
