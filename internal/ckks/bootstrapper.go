package ckks

import (
	"math"
	"math/big"

	"bitpacker/internal/core"
	"bitpacker/internal/fherr"
	"bitpacker/internal/ring"
)

// Bootstrapper composes the bootstrapping building blocks into a full
// Refresh: ModRaise -> CoeffToSlot -> EvalMod (sine) -> SlotToCoeff.
//
// EvalMod evaluates the sine series by Paterson–Stockmeyer, so the level
// budget is ChebyshevDepth(SineDegree)+3 = O(log SineDegree)+3 rather
// than SineDegree+3, and CoeffToSlot/SlotToCoeff run baby-step/giant-step
// with hoisted rotations. Practical parameters still need a sparse secret
// (small ModRaise overflow K); the accelerator experiments use the
// paper's bootstrap trace model and published scales.
type Bootstrapper struct {
	params *Parameters
	enc    *Encoder
	dft    *HomDFT
	sine   []float64
	// topLevel is where ModRaise lands; the refreshed output comes out
	// ChebyshevDepth(SineDegree)+3 levels lower.
	topLevel int
}

// BootstrapConfig tunes the pipeline.
type BootstrapConfig struct {
	// KRange bounds the ModRaise overflow |I| (secret Hamming weight
	// dependent; (h+1)/2 is a hard bound). Default 2.
	KRange int
	// SineDegree is the Chebyshev degree of the sine approximation.
	// Default 19. Refresh consumes ChebyshevDepth(SineDegree)+3 levels.
	SineDegree int
}

// MulByI multiplies every slot by i^power exactly (no noise, no scale
// change) via monomial multiplication by X^{power*N/2}.
func (ev *Evaluator) MulByI(ct *Ciphertext, power int) *Ciphertext {
	n := ev.params.N()
	shift := ((power % 4) + 4) % 4 * (n / 2)
	if shift == 0 {
		return ct.CopyNew()
	}
	mul := func(p *ring.Poly) *ring.Poly {
		c := p.ScratchCopy()
		c.INTT()
		m := c.MulByMonomial(shift)
		ev.params.Ctx.PutPoly(c)
		m.NTT()
		return m
	}
	out := newCiphertext(mul(ct.C0), mul(ct.C1), ct.Level, new(big.Rat).Set(ct.Scale), ct.NoiseBits)
	out.pend = ct.pend
	return out
}

// NewBootstrapper precomputes the DFT transforms and sine coefficients.
// The chain must provide at least ChebyshevDepth(cfg.SineDegree)+3
// levels; the secret key must be sparse enough that |I| < KRange holds
// with overwhelming probability ((h+1)/2 <= KRange guarantees it).
func NewBootstrapper(params *Parameters, enc *Encoder, cfg BootstrapConfig) (*Bootstrapper, error) {
	if cfg.KRange == 0 {
		cfg.KRange = 2
	}
	if cfg.SineDegree == 0 {
		cfg.SineDegree = 19
	}
	top := params.MaxLevel()
	need := ChebyshevDepth(cfg.SineDegree) + 3
	if top < need {
		return nil, fherr.Wrap(fherr.ErrInvalidParams,
			"ckks: bootstrapping needs %d levels, chain has %d", need, top)
	}

	q0f, _ := new(big.Float).SetInt(params.Chain.Levels[0].Q()).Float64()
	sTopF, _ := new(big.Float).SetRat(params.Chain.Levels[top].Scale).Float64()
	s0F, _ := new(big.Float).SetRat(params.Chain.Levels[0].Scale).Float64()

	// CoeffToSlot at the top level, folding in the factor
	// S_top / (2 * K * Q0): the post-CtS slots become the coefficient
	// pairs u' = (c + Q0*I) scaled into sine range, already halved for
	// the conjugate split. SlotToCoeff folds S_top/S0, correcting for the
	// (small) difference between the canonical scales at the two ends.
	ctsFactor := complex(sTopF/(2*float64(cfg.KRange)*q0f), 0)
	stcFactor := complex(sTopF/s0F, 0)
	stcLevel := top - 1 - ChebyshevDepth(cfg.SineDegree) - 1
	dft, err := NewHomDFT(params, enc, top, stcLevel+1, ctsFactor, stcFactor)
	if err != nil {
		return nil, err
	}
	// EvalMod amplitude: A*sin(2*pi*K*y) ~ c/S_top for |c| << Q0.
	amp := q0f / (2 * math.Pi * sTopF)
	return &Bootstrapper{
		params:   params,
		enc:      enc,
		dft:      dft,
		sine:     SineCoeffs(cfg.SineDegree, float64(cfg.KRange), amp),
		topLevel: top,
	}, nil
}

// Rotations returns the Galois rotations Refresh needs (generate them,
// plus conjugation, before building the evaluator's key set).
func (bs *Bootstrapper) Rotations() []int { return bs.dft.Rotations() }

// refreshedPrecisionBits is the demonstration-grade precision assumed
// for a bootstrapped ciphertext: the sine-approximation error dominates
// the carried-through noise estimate, so Refresh resets the output's
// NoiseBits to scale − refreshedPrecisionBits rather than propagating
// the (now meaningless) analytic chain.
const refreshedPrecisionBits = 10

// Refresh bootstraps a level-0 ciphertext back up the chain. The output
// lands ChebyshevDepth(SineDegree)+3 levels below the top with the
// original plaintext (to within the sine-approximation precision).
func (bs *Bootstrapper) Refresh(ev *Evaluator, ct *Ciphertext) (*Ciphertext, error) {
	if ct.Level != 0 {
		return nil, fherr.Wrap(fherr.ErrLevelMismatch,
			"ckks: Refresh expects a level-0 ciphertext, got level %d", ct.Level)
	}

	// 1. ModRaise; re-tag with the canonical top scale (the CtS factor
	// was built against it).
	raised, err := ev.ModRaise(ct, bs.topLevel)
	if err != nil {
		return nil, err
	}
	raised.Scale = bs.params.DefaultScale(bs.topLevel)
	raised.seal()

	// 2. CoeffToSlot: slots become y = (c + Q0*I) / (2*K*Q0) pairs.
	yRaw, err := ev.ApplyLinearTransform(raised, bs.dft.CtS)
	if err != nil {
		return nil, err
	}
	y, err := ev.Rescale(yRaw)
	if err != nil {
		return nil, err
	}

	// 3. Conjugate split into the two real coefficient streams.
	yConj, err := ev.Conjugate(y)
	if err != nil {
		return nil, err
	}
	yr, err := ev.Add(y, yConj) // c_lo/(K*Q0) + overflow
	if err != nil {
		return nil, err
	}
	yDiff, err := ev.Sub(y, yConj)
	if err != nil {
		return nil, err
	}
	yi := ev.MulByI(yDiff, 3)                        // c_hi/(K*Q0) + overflow
	gr, err := ev.EvalChebyshev(bs.enc, yr, bs.sine) // ~ c_lo/S_top
	if err != nil {
		return nil, err
	}
	gi, err := ev.EvalChebyshev(bs.enc, yi, bs.sine) // ~ c_hi/S_top
	if err != nil {
		return nil, err
	}

	// 4. Recombine u = c_lo + i*c_hi and SlotToCoeff.
	u, err := ev.Add(gr, ev.MulByI(gi, 1))
	if err != nil {
		return nil, err
	}
	if u.Level != bs.dft.StC.Level {
		if u, err = ev.AdjustTo(u, bs.dft.StC.Level); err != nil {
			return nil, err
		}
	}
	outRaw, err := ev.ApplyLinearTransform(u, bs.dft.StC)
	if err != nil {
		return nil, err
	}
	out, err := ev.Rescale(outRaw)
	if err != nil {
		return nil, err
	}
	out.NoiseBits = core.RatLog2(out.Scale) - refreshedPrecisionBits
	out.seal()
	return out, nil
}
