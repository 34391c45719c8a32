// Package ring implements polynomial arithmetic over rings
// Z_q[X]/(X^N+1) in RNS representation. A Poly carries its own ordered
// list of residue moduli, because BitPacker's level management changes the
// modulus set from level to level (unlike classic RNS-CKKS, which only
// drops a suffix).
package ring

import (
	"fmt"
	"math/big"
	"slices"
	"sync"

	"bitpacker/internal/ntt"
	"bitpacker/internal/rns"
)

// Context caches NTT tables per modulus for one polynomial degree N and
// pools residue-vector scratch memory for the hot paths.
// It is safe for concurrent use.
type Context struct {
	N int

	// tables is read-mostly: every limb op looks its modulus up, but a
	// table is built exactly once per modulus. The RWMutex keeps
	// concurrent engine workers from serializing on the lookup.
	mu     sync.RWMutex
	tables map[uint64]*ntt.Table

	// autoMu guards the automorphism permutation tables, which are
	// read-mostly for the same reason: hoisted keyswitching applies the
	// same Galois map to every decomposition digit of every rotation.
	autoMu      sync.RWMutex
	autoTabs    map[uint64][]uint64
	autoNTTTabs map[uint64][]uint64 // evaluation-domain gather tables

	// vecs pools N-length []uint64 residue vectors (stored as *[]uint64
	// so Put does not allocate an interface header).
	vecs sync.Pool
}

// NewContext creates a context for degree-N polynomials. N must be a power
// of two.
func NewContext(n int) (*Context, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ring: N=%d is not a power of two", n)
	}
	c := &Context{
		N:           n,
		tables:      make(map[uint64]*ntt.Table),
		autoTabs:    make(map[uint64][]uint64),
		autoNTTTabs: make(map[uint64][]uint64),
	}
	c.vecs.New = func() any {
		v := make([]uint64, n)
		return &v
	}
	return c, nil
}

// Table returns (building lazily) the NTT table for modulus q.
func (c *Context) Table(q uint64) *ntt.Table {
	c.mu.RLock()
	t, ok := c.tables[q]
	c.mu.RUnlock()
	if ok {
		return t
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.tables[q]; ok { // double-checked: another worker won
		return t
	}
	t, err := ntt.NewTable(q, c.N)
	if err != nil {
		panic(fmt.Sprintf("ring: %v", err))
	}
	c.tables[q] = t
	return t
}

// GetVec returns an N-length scratch vector from the pool. Its contents
// are unspecified; callers must overwrite every element they read.
func (c *Context) GetVec() []uint64 {
	return *(c.vecs.Get().(*[]uint64))
}

// PutVec returns a vector obtained from GetVec (or any N-length vector
// the caller owns) to the pool.
func (c *Context) PutVec(v []uint64) {
	if cap(v) < c.N {
		return
	}
	v = v[:c.N]
	c.vecs.Put(&v)
}

// GetPoly returns a polynomial over the given moduli whose residue
// vectors come from the scratch pool. Coefficients are UNSPECIFIED: use
// it only where every residue is fully overwritten (copies, MulCoeffs
// destinations, basis-conversion targets), or call GetPolyZero.
func (c *Context) GetPoly(moduli []uint64) *Poly {
	p := &Poly{
		ctx:    c,
		Moduli: append([]uint64(nil), moduli...),
		Coeffs: make([][]uint64, len(moduli)),
	}
	for i := range p.Coeffs {
		p.Coeffs[i] = c.GetVec()
	}
	return p
}

// GetPolyZero is GetPoly with every coefficient cleared, matching
// NewPoly's semantics but reusing pooled memory.
func (c *Context) GetPolyZero(moduli []uint64) *Poly {
	p := c.GetPoly(moduli)
	each(zeroOp(p))
	return p
}

// PutPoly releases a polynomial's residue vectors back to the scratch
// pool. The polynomial must not be used afterwards. It is safe (and
// useful) to release polynomials that were plainly allocated: their
// vectors simply seed the pool.
func (c *Context) PutPoly(p *Poly) {
	if p == nil || p.ctx != c || p.shared {
		return
	}
	for _, row := range p.Coeffs {
		c.PutVec(row)
	}
	p.Coeffs = nil
	p.Moduli = nil
}

// Poly is an RNS polynomial: Coeffs[i] holds the residues of every
// coefficient modulo Moduli[i]. When IsNTT is true the residue vectors are
// in the NTT evaluation domain.
type Poly struct {
	ctx    *Context
	Moduli []uint64
	Coeffs [][]uint64
	IsNTT  bool

	// shared marks view polynomials (RestrictView) whose rows belong to
	// another Poly; PutPoly refuses to recycle them.
	shared bool
}

// NewPoly allocates a zero polynomial over the given moduli.
func NewPoly(ctx *Context, moduli []uint64) *Poly {
	p := &Poly{
		ctx:    ctx,
		Moduli: append([]uint64(nil), moduli...),
		Coeffs: make([][]uint64, len(moduli)),
	}
	for i := range p.Coeffs {
		p.Coeffs[i] = make([]uint64, ctx.N)
	}
	return p
}

// Ctx returns the polynomial's ring context.
func (p *Poly) Ctx() *Context { return p.ctx }

// N returns the polynomial degree.
func (p *Poly) N() int { return p.ctx.N }

// Level returns the number of residues (paper's R).
func (p *Poly) R() int { return len(p.Moduli) }

// Copy returns a deep copy.
func (p *Poly) Copy() *Poly {
	q := &Poly{
		ctx:    p.ctx,
		Moduli: append([]uint64(nil), p.Moduli...),
		Coeffs: make([][]uint64, len(p.Coeffs)),
		IsNTT:  p.IsNTT,
	}
	for i := range p.Coeffs {
		q.Coeffs[i] = append([]uint64(nil), p.Coeffs[i]...)
	}
	return q
}

// ScratchCopy returns a deep copy backed by the context's scratch pool.
// Release it with Context.PutPoly when it dies; the hot paths use this
// for the many short-lived copies key-switching and rescaling take.
func (p *Poly) ScratchCopy() *Poly {
	q := p.scratchLike()
	each(copyOp(q, p))
	return q
}

// RestrictView returns a polynomial over the requested moduli whose
// residue vectors ALIAS p's rows (no copy). The view is read-only by
// contract: writing through it corrupts p. PutPoly on a view is a no-op.
// Every requested modulus must be present in p.
func (p *Poly) RestrictView(moduli []uint64) *Poly { return p.restrictView("RestrictView", moduli) }

// restrictView is RestrictView, panicking in the name of entry point who.
func (p *Poly) restrictView(who string, moduli []uint64) *Poly {
	if n := len(moduli); n <= len(p.Moduli) && slices.Equal(p.Moduli[:n], moduli) {
		// A prefix (live rows of an extended-basis polynomial): slice it.
		return &Poly{ctx: p.ctx, Moduli: p.Moduli[:n:n], Coeffs: p.Coeffs[:n:n], IsNTT: p.IsNTT, shared: true}
	}
	rowOf := make(map[uint64]int, len(p.Moduli))
	for i, q := range p.Moduli {
		rowOf[q] = i
	}
	out := &Poly{ctx: p.ctx, IsNTT: p.IsNTT, shared: true}
	out.Moduli = make([]uint64, 0, len(moduli))
	out.Coeffs = make([][]uint64, 0, len(moduli))
	for _, q := range moduli {
		i, ok := rowOf[q]
		if !ok {
			panic("ring: " + who + ": modulus not present")
		}
		out.Moduli = append(out.Moduli, q)
		out.Coeffs = append(out.Coeffs, p.Coeffs[i])
	}
	return out
}

// Add sets p = a + b. All three may alias.
func (p *Poly) Add(a, b *Poly) { each(addOp(p, a, b)) }

// Sub sets p = a - b.
func (p *Poly) Sub(a, b *Poly) { each(subOp(p, a, b)) }

// Neg sets p = -a.
func (p *Poly) Neg(a *Poly) { each(negOp(p, a)) }

// MulCoeffs sets p = a ⊙ b pointwise. All polynomials must be in the NTT
// domain (where pointwise product is ring multiplication). The per-residue
// product runs through the NTT table's Barrett constant rather than a
// hardware divide per coefficient.
func (p *Poly) MulCoeffs(a, b *Poly) { each(mulOp("MulCoeffs", p, a, b)) }

// MulCoeffsAdd sets p += a ⊙ b pointwise (NTT domain).
func (p *Poly) MulCoeffsAdd(a, b *Poly) { each(mulAddOp("MulCoeffsAdd", p, a, b)) }

// MulScalarBig sets p = a * c where c is an arbitrary (possibly negative)
// integer, reduced modulo each residue modulus. This implements the
// mulConst of the paper's Listings 2, 3 and 6.
func (p *Poly) MulScalarBig(a *Poly, c *big.Int) { each(scalarOp(p, a, reduceBig(c, p.Moduli))) }

// NTT moves p into the evaluation domain (no-op if already there). The
// per-residue transforms are independent and run on the engine's worker
// pool.
func (p *Poly) NTT() { each(forwardOp(p)) }

// INTT moves p into the coefficient domain (no-op if already there).
func (p *Poly) INTT() { each(inverseOp(p)) }

// Equal reports whether two polynomials are identical in moduli, domain
// and coefficients.
func (p *Poly) Equal(o *Poly) bool {
	if p.IsNTT != o.IsNTT || len(p.Moduli) != len(o.Moduli) {
		return false
	}
	for i := range p.Moduli {
		if p.Moduli[i] != o.Moduli[i] {
			return false
		}
		for k := range p.Coeffs[i] {
			if p.Coeffs[i][k] != o.Coeffs[i][k] {
				return false
			}
		}
	}
	return true
}

// Basis builds an rns.Basis over the polynomial's moduli (for CRT
// reconstruction in tests and decryption).
func (p *Poly) Basis() *rns.Basis {
	b, err := rns.NewBasis(p.ctx.N, p.Moduli)
	if err != nil {
		panic(err)
	}
	return b
}

// CoeffBig returns coefficient k as a centered big integer. p must be in
// the coefficient domain.
func (p *Poly) CoeffBig(b *rns.Basis, k int) *big.Int {
	if p.IsNTT {
		panic("ring: CoeffBig requires coefficient domain")
	}
	xs := make([]uint64, len(p.Moduli))
	for i := range p.Moduli {
		xs[i] = p.Coeffs[i][k]
	}
	return b.ComposeCentered(xs)
}

// SetCoeffBig sets coefficient k from a (possibly negative) big integer.
func (p *Poly) SetCoeffBig(k int, v *big.Int) {
	if p.IsNTT {
		panic("ring: SetCoeffBig requires coefficient domain")
	}
	tmp := new(big.Int)
	for i, q := range p.Moduli {
		tmp.SetUint64(q)
		r := new(big.Int).Mod(v, tmp)
		p.Coeffs[i][k] = r.Uint64()
	}
}

// Restrict returns a copy of p containing only the rows for the given
// moduli, in the given order. Every requested modulus must be present.
func (p *Poly) Restrict(moduli []uint64) *Poly {
	return p.restrictView("Restrict", moduli).Copy()
}
