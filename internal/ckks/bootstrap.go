package ckks

import (
	"fmt"
	"math"
	"math/big"

	"bitpacker/internal/fherr"
	"bitpacker/internal/ring"
)

// Functional bootstrapping building blocks (Cheon et al. '18 structure):
//
//	ModRaise    – reinterpret a level-0 ciphertext modulo the top modulus;
//	              decryption gains an unknown multiple-of-Q0 term Q0*I(X).
//	CoeffToSlot – homomorphic DFT putting the plaintext's coefficients
//	              into slots (a LinearTransform with the encoder's inverse
//	              FFT matrix).
//	EvalMod     – remove the Q0*I term by evaluating a polynomial
//	              approximation of (Q0/2pi)*sin(2pi x / Q0) on the slots.
//	SlotToCoeff – the inverse DFT, moving the cleaned coefficients back.
//
// The accelerator experiments use the paper's bootstrap *trace* model;
// these functional pieces exist so the library is complete and the DFT /
// EvalMod machinery is exercised for real at laptop scale.

// ModRaise lifts a ciphertext to the given higher level: each coefficient
// residue vector is CRT-composed modulo the current basis (centered) and
// re-decomposed modulo the target basis. The result decrypts to
// m + e + Q0*I(X) where Q0 is the source modulus and I has small
// coefficients bounded by the secret key's 1-norm.
//
// The noise estimate carries through unchanged: the physical error e is
// untouched, and the deliberate Q0*I overflow is the signal EvalMod
// removes, not noise to guard against.
func (ev *Evaluator) ModRaise(ct *Ciphertext, toLevel int) (*Ciphertext, error) {
	if err := ev.begin("ModRaise", ct); err != nil {
		return nil, err
	}
	if toLevel <= ct.Level {
		return nil, fherr.Wrap(fherr.ErrLevelMismatch,
			"ckks: ModRaise target level %d must be above the current level %d", toLevel, ct.Level)
	}
	if toLevel > ev.params.MaxLevel() {
		return nil, fherr.Wrap(fherr.ErrLevelMismatch,
			"ckks: ModRaise target level %d above chain top %d", toLevel, ev.params.MaxLevel())
	}
	ct, err := ev.Settle(ct)
	if err != nil {
		return nil, err
	}
	p := ev.params
	dstModuli := p.LevelModuli(toLevel)
	lift := func(src *ring.Poly) *ring.Poly {
		c := src.ScratchCopy()
		c.INTT()
		basis := c.Basis()
		out := ring.NewPoly(p.Ctx, dstModuli)
		for k := 0; k < p.N(); k++ {
			out.SetCoeffBig(k, c.CoeffBig(basis, k))
		}
		p.Ctx.PutPoly(c)
		out.NTT()
		return out
	}
	return newCiphertext(lift(ct.C0), lift(ct.C1), toLevel, new(big.Rat).Set(ct.Scale), ct.NoiseBits), nil
}

// encoderMatrix numerically extracts the n x n complex matrix of the
// encoder's special FFT (decode direction when inv is false, encode
// direction when true) by feeding unit vectors through it.
func encoderMatrix(enc *Encoder, inv bool) [][]complex128 {
	n := enc.n
	mat := make([][]complex128, n)
	for i := range mat {
		mat[i] = make([]complex128, n)
	}
	col := make([]complex128, n)
	for j := 0; j < n; j++ {
		for i := range col {
			col[i] = 0
		}
		col[j] = 1
		if inv {
			enc.fftSpecialInv(col)
		} else {
			enc.fftSpecial(col)
		}
		for i := 0; i < n; i++ {
			mat[i][j] = col[i]
		}
	}
	return mat
}

// HomDFT holds the two homomorphic DFT transforms of bootstrapping.
type HomDFT struct {
	// CtS maps slots z -> u where u_i = c_i + i*c_{i+n} are the
	// plaintext's coefficient pairs (scaled by the factor baked in at
	// construction).
	CtS *LinearTransform
	// StC is the inverse map.
	StC *LinearTransform
}

// NewHomDFT builds the CoeffToSlot / SlotToCoeff transforms at the given
// levels, folding scalar factors ctsFactor/stcFactor into the matrices
// (bootstrapping uses them to divide by Q0-related constants for free).
func NewHomDFT(params *Parameters, enc *Encoder, ctsLevel, stcLevel int, ctsFactor, stcFactor complex128) (*HomDFT, error) {
	v := encoderMatrix(enc, true)  // slots -> coefficient pairs
	w := encoderMatrix(enc, false) // coefficient pairs -> slots
	scaleMat := func(m [][]complex128, f complex128) {
		for i := range m {
			for j := range m[i] {
				m[i][j] *= f
			}
		}
	}
	scaleMat(v, ctsFactor)
	scaleMat(w, stcFactor)
	cts, err := NewLinearTransform(params, enc, v, ctsLevel)
	if err != nil {
		return nil, fmt.Errorf("ckks: CoeffToSlot: %w", err)
	}
	stc, err := NewLinearTransform(params, enc, w, stcLevel)
	if err != nil {
		return nil, fmt.Errorf("ckks: SlotToCoeff: %w", err)
	}
	return &HomDFT{CtS: cts, StC: stc}, nil
}

// Rotations returns all rotation amounts the two transforms need.
func (d *HomDFT) Rotations() []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range append(d.CtS.Rotations(), d.StC.Rotations()...) {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// SineCoeffs returns Chebyshev coefficients (on [-1,1]) approximating
// scale * sin(2*pi*kRange*x), computed by Chebyshev interpolation at the
// Chebyshev nodes. Bootstrapping evaluates this on x = coeff/(kRange*Q0)
// to reduce modulo Q0.
func SineCoeffs(degree int, kRange, scale float64) []float64 {
	n := degree + 1
	f := func(x float64) float64 { return scale * math.Sin(2*math.Pi*kRange*x) }
	// Chebyshev interpolation: c_k = (2-delta_k0)/n * sum_j f(x_j) T_k(x_j).
	nodes := make([]float64, n)
	fv := make([]float64, n)
	for j := 0; j < n; j++ {
		nodes[j] = math.Cos(math.Pi * (float64(j) + 0.5) / float64(n))
		fv[j] = f(nodes[j])
	}
	coeffs := make([]float64, n)
	for k := 0; k < n; k++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += fv[j] * math.Cos(float64(k)*math.Pi*(float64(j)+0.5)/float64(n))
		}
		c := 2 * sum / float64(n)
		if k == 0 {
			c /= 2
		}
		coeffs[k] = c
	}
	return coeffs
}
