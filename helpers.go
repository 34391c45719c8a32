package bitpacker

import "bitpacker/internal/fherr"

// Higher-level helpers built on the primitive homomorphic operations.
// All of them propagate the typed errors of the primitives they compose.

// Power raises a ciphertext to an integer power k >= 1 by square-and-
// multiply, rescaling after every multiplication and adjusting operands to
// matching levels. It consumes ceil(log2(k)) + popcount-related levels.
func (c *Context) Power(ct *Ciphertext, k int) (*Ciphertext, error) {
	if k < 1 {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: power %d < 1", k)
	}
	var acc *Ciphertext // product of selected squarings
	cur := ct
	for {
		if k&1 == 1 {
			if acc == nil {
				acc = cur
			} else {
				a, b := acc, cur
				var err error
				if a.Level() > b.Level() {
					if a, err = c.Adjust(a, b.Level()); err != nil {
						return nil, err
					}
				} else if b.Level() > a.Level() {
					if b, err = c.Adjust(b, a.Level()); err != nil {
						return nil, err
					}
				}
				prod, err := c.Mul(a, b)
				if err != nil {
					return nil, err
				}
				if acc, err = c.Rescale(prod); err != nil {
					return nil, err
				}
			}
		}
		k >>= 1
		if k == 0 {
			return acc, nil
		}
		if cur.Level() == 0 {
			return nil, fherr.Wrap(fherr.ErrChainExhausted, "bitpacker: chain too shallow for requested power")
		}
		sq, err := c.Mul(cur, cur)
		if err != nil {
			return nil, err
		}
		if cur, err = c.Rescale(sq); err != nil {
			return nil, err
		}
	}
}

// InnerSum folds the first n slots (n a power of two, n <= Slots()) so
// that slot 0 holds their sum, using rotate-and-add. The context must have
// Galois keys for rotations 1, 2, 4, ..., n/2 (Config.Rotations).
func (c *Context) InnerSum(ct *Ciphertext, n int) (*Ciphertext, error) {
	if n <= 0 || n&(n-1) != 0 || n > c.Slots() {
		return nil, fherr.Wrap(fherr.ErrInvalidParams,
			"bitpacker: InnerSum width %d must be a power of two <= %d", n, c.Slots())
	}
	out := ct
	for s := 1; s < n; s <<= 1 {
		rot, err := c.Rotate(out, s)
		if err != nil {
			return nil, err
		}
		if out, err = c.Add(out, rot); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// EvalPolynomial evaluates sum_i coeffs[i] * x^i homomorphically (Horner's
// method), rescaling after each step. coeffs[0] is the constant term. The
// ciphertext must have enough levels (one per multiplication, i.e.
// len(coeffs)-1).
func (c *Context) EvalPolynomial(x *Ciphertext, coeffs []float64) (*Ciphertext, error) {
	if len(coeffs) == 0 {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: empty polynomial")
	}
	if x.Level() < len(coeffs)-1 {
		return nil, fherr.Wrap(fherr.ErrChainExhausted,
			"bitpacker: need %d levels, ciphertext has %d", len(coeffs)-1, x.Level())
	}
	// Horner: acc = c_{d}; acc = acc*x + c_{i}.
	d := len(coeffs) - 1
	if d == 0 {
		enc, err := c.EncryptReal(nil)
		if err != nil {
			return nil, err
		}
		return c.addScalar(enc, coeffs[0])
	}
	prod, err := c.mulScalar(x, coeffs[d])
	if err != nil {
		return nil, err
	}
	acc, err := c.Rescale(prod)
	if err != nil {
		return nil, err
	}
	if acc, err = c.addScalar(acc, coeffs[d-1]); err != nil {
		return nil, err
	}
	for i := d - 2; i >= 0; i-- {
		xa, err := c.Adjust(x, acc.Level())
		if err != nil {
			return nil, err
		}
		if prod, err = c.Mul(acc, xa); err != nil {
			return nil, err
		}
		if acc, err = c.Rescale(prod); err != nil {
			return nil, err
		}
		if acc, err = c.addScalar(acc, coeffs[i]); err != nil {
			return nil, err
		}
	}
	return acc, nil
}
