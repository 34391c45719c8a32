package ckks

import (
	"math"

	"bitpacker/internal/core"
)

// Analytic noise-budget estimation. CKKS noise grows with every
// homomorphic operation; this tracker mirrors the standard (heuristic,
// high-probability) bounds so programs can be validated before running
// them, and tests can assert that measured error stays below the
// analytic envelope.
//
// All quantities are in bits (log2 of the expected noise magnitude in the
// coefficient embedding).

// NoiseModel estimates noise evolution for one parameter set.
type NoiseModel struct {
	params *Parameters
}

// NewNoiseModel builds an estimator for the parameters.
func NewNoiseModel(params *Parameters) *NoiseModel {
	return &NoiseModel{params: params}
}

// n returns the ring degree as a float.
func (nm *NoiseModel) n() float64 { return float64(nm.params.N()) }

// FreshBits is the noise of a fresh public-key encryption:
// |v·e_pk + e0 + e1·s| <~ sigma*(sqrt(2N/3) + N) in magnitude; we use the
// standard sqrt-N heuristic with a safety factor.
func (nm *NoiseModel) FreshBits() float64 {
	sigma := nm.params.Sigma
	return math.Log2(8 * sigma * math.Sqrt(nm.n()))
}

// RescaleFloorBits is the rounding noise of one division (rescale,
// adjust, ModDown): it rounds (rns.ExactDiv), leaving a zero-mean error
// of variance k/12 per coefficient for k shed moduli, seen through
// e0 + e1·s; with ternary s and a few moduli this is ~sqrt(N/3).
func (nm *NoiseModel) RescaleFloorBits() float64 {
	return math.Log2(math.Sqrt(nm.n() / 3))
}

// EncodingBits is the rounding noise of encoding a plaintext: each
// coefficient rounds to the nearest integer, a uniform error of
// magnitude ~sqrt(N/12) in the coefficient embedding.
func (nm *NoiseModel) EncodingBits() float64 {
	return math.Log2(math.Sqrt(nm.n() / 12))
}

// KeySwitchBits is the additive noise of one hybrid keyswitch: the
// inner-product noise dnum*N*sigma*B_digit scaled down by P. With the
// digit products matched to P it is ~sqrt(dnum*N)*sigma plus the ModDown
// rounding.
func (nm *NoiseModel) KeySwitchBits() float64 {
	d := float64(nm.params.Dnum)
	return math.Log2(4*nm.params.Sigma*math.Sqrt(d*nm.n())) + nm.RescaleFloorBits()
}

// MulBits combines operand noise through a multiplication at the given
// scales: e_out ~ S_a*e_b + S_b*e_a (+ keyswitch), all in bits.
func (nm *NoiseModel) MulBits(scaleABits, noiseABits, scaleBBits, noiseBBits float64) float64 {
	t1 := scaleABits + noiseBBits
	t2 := scaleBBits + noiseABits
	m := math.Max(t1, t2) + 0.5 // + for the sum
	return math.Max(m, nm.KeySwitchBits())
}

// EstimateSquaringChain predicts the error (in bits, relative to the
// encrypted values) after `depth` square+rescale steps starting from a
// fresh ciphertext at the top of the chain. Returns the predicted
// error-free mantissa bits (-log2 of relative error), a lower bound on
// what measurements should achieve.
func (nm *NoiseModel) EstimateSquaringChain(depth int) float64 {
	lvl := nm.params.MaxLevel()
	scale := core.RatLog2(nm.params.Chain.Levels[lvl].Scale)
	noise := nm.FreshBits()
	for d := 0; d < depth && lvl > 0; d++ {
		// Square: scale doubles, noise ~ S*e (values <= 1).
		noise = nm.MulBits(scale, noise, scale, noise)
		// Rescale: divide by ~S, add the rounding noise.
		shed := nm.shedBits(lvl)
		noise = math.Max(noise-shed, nm.RescaleFloorBits())
		lvl--
		scale = core.RatLog2(nm.params.Chain.Levels[lvl].Scale)
	}
	// Relative precision = scale - noise bits, less a fixed analysis
	// margin covering the heuristic slack of the bounds above (digit
	// products exceeding P, encoding rounding, embedding factors).
	const marginBits = 7
	return scale - noise - marginBits
}

// shedBits is log2 of the modulus reduction of the transition out of lvl.
func (nm *NoiseModel) shedBits(lvl int) float64 {
	tr := nm.params.Chain.TransitionDown(lvl)
	bits := 0.0
	for _, q := range tr.Down {
		bits += math.Log2(float64(q))
	}
	for _, q := range tr.Up {
		bits -= math.Log2(float64(q))
	}
	return bits
}
