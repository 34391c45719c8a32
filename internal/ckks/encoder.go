package ckks

import (
	"math"
	"math/big"
	"math/bits"
	"math/cmplx"

	"bitpacker/internal/fherr"
	"bitpacker/internal/ring"
	"bitpacker/internal/rns"
)

// Encoder maps complex slot vectors to ring plaintexts and back through
// the canonical embedding (the "special FFT" of HEAAN). One Encoder per
// Parameters; safe for concurrent use after creation.
type Encoder struct {
	params *Parameters
	n      int // slots = N/2
	m      int // 2N
	// rotGroup[k] = 5^k mod 2N enumerates the orbit the slots live on.
	rotGroup []int
	// ksiPows[j] = exp(i*pi*j/N), j in [0, 2N].
	ksiPows []complex128
}

// NewEncoder builds the FFT tables for the parameter set.
func NewEncoder(params *Parameters) *Encoder {
	nh := params.N() / 2
	m := 2 * params.N()
	e := &Encoder{
		params:   params,
		n:        nh,
		m:        m,
		rotGroup: make([]int, nh),
		ksiPows:  make([]complex128, m+1),
	}
	fivePow := 1
	for i := 0; i < nh; i++ {
		e.rotGroup[i] = fivePow
		fivePow = fivePow * 5 % m
	}
	for j := 0; j <= m; j++ {
		angle := 2 * math.Pi * float64(j) / float64(m)
		e.ksiPows[j] = cmplx.Exp(complex(0, angle))
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
		lenq := length << 2
		for i := 0; i < size; i += length {
			for j := 0; j < lenh; j++ {
				idx := (e.rotGroup[j] % lenq) * e.m / lenq
				u := vals[i+j]
				v := vals[i+j+lenh] * e.ksiPows[idx]
				vals[i+j] = u + v
				vals[i+j+lenh] = u - v
			}
		}
	}
}

// fftSpecialInv is the encode direction (inverse of fftSpecial).
func (e *Encoder) fftSpecialInv(vals []complex128) {
	size := len(vals)
	for length := size; length >= 2; length >>= 1 {
		lenh := length >> 1
		lenq := length << 2
		for i := 0; i < size; i += length {
			for j := 0; j < lenh; j++ {
				idx := (e.rotGroup[j] % lenq) * e.m / lenq
				u := vals[i+j] + vals[i+j+lenh]
				v := (vals[i+j] - vals[i+j+lenh]) * e.ksiPows[e.m-idx]
				vals[i+j] = u
				vals[i+j+lenh] = v
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
	const prec = 256
	sf := new(big.Float).SetPrec(prec).SetRat(scale)
	tmp := new(big.Float).SetPrec(prec)
	for i, v := range vals {
		tmp.SetFloat64(real(v))
		tmp.Mul(tmp, sf)
		p.SetCoeffBig(i, roundToBig(tmp))
		tmp.SetFloat64(imag(v))
		tmp.Mul(tmp, sf)
		p.SetCoeffBig(i+e.n, roundToBig(tmp))
	}
	return p, nil
}

// Decode reads slots back from a coefficient-domain polynomial carrying
// the given scale. The basis must match the polynomial's moduli.
func (e *Encoder) Decode(p *ring.Poly, basis *rns.Basis, scale *big.Rat) []complex128 {
	const prec = 256
	sf := new(big.Float).SetPrec(prec).SetRat(scale)
	vals := make([]complex128, e.n)
	tmp := new(big.Float).SetPrec(prec)
	for i := 0; i < e.n; i++ {
		re := p.CoeffBig(basis, i)
		im := p.CoeffBig(basis, i+e.n)
		tmp.SetInt(re)
		tmp.Quo(tmp, sf)
		rf, _ := tmp.Float64()
		tmp.SetInt(im)
		tmp.Quo(tmp, sf)
		imf, _ := tmp.Float64()
		vals[i] = complex(rf, imf)
	}
	e.fftSpecial(vals)
	return vals
}
