package ckks

import (
	"math"
	"math/big"
	"math/bits"
	"math/cmplx"

	"bitpacker/internal/fherr"
	"bitpacker/internal/nt"
	"bitpacker/internal/ring"
	"bitpacker/internal/rns"
)

// Encoder maps complex slot vectors to ring plaintexts and back through
// the canonical embedding (the "special FFT" of HEAAN). One Encoder per
// Parameters; safe for concurrent use after creation.
type Encoder struct {
	params *Parameters
	n      int // slots = N/2
	// tw and twInv are the special FFT's twiddles, stage by stage: the
	// stage of butterfly span h reads tw[h-1 : 2h-1], entry j being
	// exp(iπ·idx/N) for idx = (5^j mod 8h)·N/(4h), twInv its inverse.
	tw, twInv []complex128
}

// NewEncoder builds the FFT tables for the parameter set.
func NewEncoder(params *Parameters) *Encoder {
	nh := params.N() / 2
	m := 2 * params.N()
	e := &Encoder{params: params, n: nh}
	// rotGroup[k] = 5^k mod 2N enumerates the orbit the slots live on;
	// ksiPows[j] = exp(iπ·j/N), j in [0, 2N].
	rotGroup := make([]int, nh)
	fivePow := 1
	for i := range rotGroup {
		rotGroup[i] = fivePow
		fivePow = fivePow * 5 % m
	}
	ksiPows := make([]complex128, m+1)
	for j := range ksiPows {
		angle := 2 * math.Pi * float64(j) / float64(m)
		ksiPows[j] = cmplx.Exp(complex(0, angle))
	}
	for length := 2; length <= nh; length <<= 1 {
		lenq := length << 2
		for j := 0; j < length>>1; j++ {
			idx := (rotGroup[j] % lenq) * m / lenq
			e.tw = append(e.tw, ksiPows[idx])
			e.twInv = append(e.twInv, ksiPows[m-idx])
		}
	}
	return e
}

func arrayBitReverse(vals []complex128) {
	n := len(vals)
	logN := bits.Len(uint(n)) - 1
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> (64 - logN))
		if i < j {
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
}

// fftSpecial evaluates the polynomial at the rotation-group roots
// (decode direction).
func (e *Encoder) fftSpecial(vals []complex128) {
	size := len(vals)
	arrayBitReverse(vals)
	for length := 2; length <= size; length <<= 1 {
		lenh := length >> 1
		tw := e.tw[lenh-1 : length-1]
		for i := 0; i < size; i += length {
			lo, hi := vals[i:i+lenh], vals[i+lenh:i+length]
			for j, w := range tw {
				u, v := lo[j], hi[j]*w
				lo[j], hi[j] = u+v, u-v
			}
		}
	}
}

// fftSpecialInv is the encode direction (inverse of fftSpecial).
func (e *Encoder) fftSpecialInv(vals []complex128) {
	size := len(vals)
	for length := size; length >= 2; length >>= 1 {
		lenh := length >> 1
		tw := e.twInv[lenh-1 : length-1]
		for i := 0; i < size; i += length {
			lo, hi := vals[i:i+lenh], vals[i+lenh:i+length]
			for j, w := range tw {
				u, v := lo[j]+hi[j], (lo[j]-hi[j])*w
				lo[j], hi[j] = u, v
			}
		}
	}
	arrayBitReverse(vals)
	inv := complex(1/float64(size), 0)
	for i := range vals {
		vals[i] *= inv
	}
}

// roundToBig rounds a big.Float to the nearest big.Int.
func roundToBig(f *big.Float) *big.Int {
	half := big.NewFloat(0.5)
	if f.Sign() < 0 {
		half.Neg(half)
	}
	g := new(big.Float).SetPrec(f.Prec()).Add(f, half)
	z, _ := g.Int(nil)
	return z
}

// Encode embeds values (up to N/2 complex slots; shorter slices are
// zero-padded) into a coefficient-domain plaintext polynomial over the
// given moduli, multiplied by scale. Oversized inputs, non-positive
// scales and non-finite values fail with fherr.ErrInvalidParams.
//
// Each coefficient is round(v·scale), half away from zero, taken at 256
// bits — the same integer whichever way it is computed: in float64 when
// the scale is a float64 and the product is exact in one (a power-of-two
// scale), else in reused big.Float buffers. A result below 2^62 is
// reduced per modulus in one machine word; only a larger one goes
// through big.Int.
func (e *Encoder) Encode(values []complex128, scale *big.Rat, moduli []uint64) (*ring.Poly, error) {
	if len(values) > e.n {
		return nil, fherr.Wrap(fherr.ErrInvalidParams,
			"ckks: %d values exceed the %d slots", len(values), e.n)
	}
	if scale == nil || scale.Sign() <= 0 {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "ckks: encode scale must be positive")
	}
	for i, v := range values {
		if math.IsNaN(real(v)) || math.IsInf(real(v), 0) ||
			math.IsNaN(imag(v)) || math.IsInf(imag(v), 0) {
			return nil, fherr.Wrap(fherr.ErrInvalidParams, "ckks: value %d is not finite", i)
		}
	}
	vals := make([]complex128, e.n)
	copy(vals, values)
	e.fftSpecialInv(vals)

	p := ring.NewPoly(e.params.Ctx, moduli)
	r := newRounder(scale, moduli)
	for i, v := range vals {
		r.set(p, i, real(v))
		r.set(p, i+e.n, imag(v))
	}
	return p, nil
}

// wordLimit bounds the integers the encoder keeps in machine words.
const wordLimit = 1 << 62

// rounder is Encode's per-coefficient rounding, its buffers allocated
// once per call.
type rounder struct {
	s              float64 // the scale when a float64 holds it exactly, else 0
	sf, x, y, half *big.Float
	z              big.Int
	mu             []uint64 // one-word Barrett constants of the moduli
}

func newRounder(scale *big.Rat, moduli []uint64) *rounder {
	const prec = 256
	r := &rounder{
		sf:   new(big.Float).SetPrec(prec).SetRat(scale),
		x:    new(big.Float).SetPrec(prec),
		y:    new(big.Float).SetPrec(prec),
		half: big.NewFloat(0.5),
		mu:   make([]uint64, len(moduli)),
	}
	if s, exact := scale.Float64(); exact {
		r.s = s
	}
	for i, q := range moduli {
		r.mu[i] = nt.WordBarrett(q)
	}
	return r
}

// set writes round(v·scale) into coefficient k of p's every row.
func (r *rounder) set(p *ring.Poly, k int, v float64) {
	n, ok := r.round(v)
	if !ok {
		r.y.Int(&r.z)
		p.SetCoeffBig(k, &r.z)
		return
	}
	mag := uint64(n)
	if n < 0 {
		mag = -mag
	}
	for i, q := range p.Moduli {
		w := nt.ReduceWord(mag, q, r.mu[i])
		if n < 0 && w != 0 {
			w = q - w
		}
		p.Coeffs[i][k] = w
	}
}

// round returns round(v·scale) when it lies below 2^62 in magnitude;
// otherwise ok is false and r.y holds the rounded value before
// truncation. The float64 route is taken only when v·scale is exact in
// float64 (the fused multiply-add's remainder is zero), so math.Round
// (half away from zero) sees the exact product, as the 256-bit route does.
func (r *rounder) round(v float64) (n int64, ok bool) {
	if r.s != 0 {
		hi := v * r.s
		if math.FMA(v, r.s, -hi) == 0 && math.Abs(hi) < wordLimit {
			return int64(math.Round(hi)), true
		}
	}
	r.x.SetFloat64(v)
	r.y.Mul(r.x, r.sf)
	if r.y.Sign() < 0 {
		r.y.Sub(r.y, r.half)
	} else {
		r.y.Add(r.y, r.half)
	}
	if r.y.MantExp(nil) > 62 {
		return 0, false
	}
	n, _ = r.y.Int64() // truncates toward zero, as big.Float.Int does
	return n, true
}

// Decode reads slots back from a coefficient-domain polynomial carrying
// the given scale. The basis must match the polynomial's moduli.
func (e *Encoder) Decode(p *ring.Poly, basis *rns.Basis, scale *big.Rat) []complex128 {
	vals := make([]complex128, e.n)
	e.decodeCoeffs(vals, p, basis, scale)
	e.fftSpecial(vals)
	return vals
}

// decodeCoeffs sets vals[i] to coefficients i and i+N/2 of p over scale,
// as the real and imaginary part. A coefficient whose centred value
// composes in a machine word (rns.Basis.ComposeCenteredWord: below 2^62
// in magnitude) is converted to float64 and multiplied by a float64 of
// 1/scale: three roundings, within 4 ulp of the correctly rounded
// quotient. Any other, and every coefficient when 1/scale is not a
// normal float64, is composed in big.Int and divided at 256 bits.
func (e *Encoder) decodeCoeffs(vals []complex128, p *ring.Poly, basis *rns.Basis, scale *big.Rat) {
	const prec = 256
	sf := new(big.Float).SetPrec(prec).SetRat(scale)
	tmp := new(big.Float).SetPrec(prec)
	inv, _ := tmp.Quo(big.NewFloat(1), sf).Float64()
	if inv < 0x1p-1022 || math.IsInf(inv, 0) {
		inv = 0
	}
	xs := make([]uint64, len(p.Coeffs))
	coeff := func(k int) float64 {
		for i, row := range p.Coeffs {
			xs[i] = row[k]
		}
		if v, ok := basis.ComposeCenteredWord(xs); ok && inv != 0 {
			return float64(v) * inv
		}
		tmp.SetInt(basis.ComposeCentered(xs))
		f, _ := tmp.Quo(tmp, sf).Float64()
		return f
	}
	for i := range vals {
		vals[i] = complex(coeff(i), coeff(i+e.n))
	}
}
