package ckks

import (
	"math"
	"math/big"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"bitpacker/internal/core"
)

func TestModRaiseCongruence(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		s := newTestSetup(t, scheme, 3, 40, 61, 9, 8, nil)
		rng := rand.New(rand.NewPCG(91, 92))
		vals := randomValues(s.params.Slots(), rng)
		ct := s.ev.MustAdjustTo(s.encryptValues(vals), 0)

		raised := s.ev.MustModRaise(ct, s.params.MaxLevel())
		if raised.Level != s.params.MaxLevel() {
			t.Fatalf("%v: level %d", scheme, raised.Level)
		}

		// Decryptions must agree coefficient-wise modulo Q0.
		low := s.decryptPoly(ct)
		high := s.decryptPoly(raised)
		lowBasis := s.dec.MustBasis(low.Value.Moduli)
		highBasis := s.dec.MustBasis(high.Value.Moduli)
		q0 := lowBasis.Q
		for k := 0; k < s.params.N(); k++ {
			a := low.Value.CoeffBig(lowBasis, k)
			b := high.Value.CoeffBig(highBasis, k)
			diff := new(big.Int).Sub(a, b)
			diff.Mod(diff, q0)
			if diff.Sign() != 0 {
				t.Fatalf("%v: coefficient %d not congruent mod Q0", scheme, k)
			}
			// And the Q0*I overflow must be small relative to Q_top.
			quo := new(big.Int).Quo(b, q0)
			if quo.BitLen() > 16 {
				t.Fatalf("%v: implausible overflow term (%d bits)", scheme, quo.BitLen())
			}
		}
	}
}

func TestHomDFTCoeffToSlot(t *testing.T) {
	// After CtS, the slots must hold the plaintext's coefficient pairs
	// c_lo + i*c_hi (divided by the scale).
	rots := make([]int, 0, 63)
	for r := 1; r < 64; r++ {
		rots = append(rots, r)
	}
	s := newTestSetup(t, core.BitPacker, 3, 40, 61, 7, 8, rots)
	dft, err := NewHomDFT(s.params, s.enc, s.params.MaxLevel(), s.params.MaxLevel()-1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(93, 94))
	vals := randomValues(s.params.Slots(), rng)
	ct := s.encryptValues(vals)

	out := s.ev.MustRescale(s.ev.MustApplyLinearTransform(ct, dft.CtS))
	got := s.decrypt(out)

	// Reference: u = fftSpecialInv(z).
	want := append([]complex128(nil), vals...)
	s.enc.fftSpecialInv(want)
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > 1e-4 {
			t.Fatalf("slot %d: got %v want %v (err %g)", i, got[i], want[i], e)
		}
	}
}

func TestHomDFTRoundTrip(t *testing.T) {
	// StC(CtS(x)) must reproduce x (each transform consumes one level).
	rots := make([]int, 0, 63)
	for r := 1; r < 64; r++ {
		rots = append(rots, r)
	}
	s := newTestSetup(t, core.BitPacker, 3, 40, 61, 7, 8, rots)
	dft, err := NewHomDFT(s.params, s.enc, s.params.MaxLevel(), s.params.MaxLevel()-1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(95, 96))
	vals := randomValues(s.params.Slots(), rng)
	ct := s.encryptValues(vals)

	mid := s.ev.MustRescale(s.ev.MustApplyLinearTransform(ct, dft.CtS))
	back := s.ev.MustRescale(s.ev.MustApplyLinearTransform(mid, dft.StC))
	got := s.decrypt(back)
	if e := maxErr(got, vals); e > 1e-3 {
		t.Fatalf("DFT roundtrip error %g", e)
	}
	if len(dft.Rotations()) == 0 {
		t.Fatal("DFT should need rotations")
	}
}

func TestSineCoeffsApproximation(t *testing.T) {
	// The Chebyshev interpolant of sin(2*pi*K*x) must be accurate on
	// [-1,1] at bootstrap-grade degrees.
	for _, tc := range []struct {
		degree int
		k      float64
		tol    float64
	}{
		{15, 1, 1e-5},
		{31, 2, 1e-9},
		{47, 4, 1e-9},
	} {
		coeffs := SineCoeffs(tc.degree, tc.k, 1.0)
		worst := 0.0
		for i := 0; i <= 400; i++ {
			x := -1 + float64(i)/200
			got := EvalChebyshevAt(coeffs, x)
			want := math.Sin(2 * math.Pi * tc.k * x)
			if e := math.Abs(got - want); e > worst {
				worst = e
			}
		}
		if worst > tc.tol {
			t.Fatalf("degree %d K=%.0f: max err %g > %g", tc.degree, tc.k, worst, tc.tol)
		}
	}
}

func TestEvalChebyshevMatchesReference(t *testing.T) {
	// Homomorphic Chebyshev evaluation of the bootstrap sine polynomial
	// must match the plain evaluation.
	s := newTestSetup(t, core.BitPacker, 8, 40, 61, 9, 8, nil)
	coeffs := SineCoeffs(7, 0.5, 1.0)
	rng := rand.New(rand.NewPCG(97, 98))
	n := s.params.Slots()
	vals := make([]complex128, n)
	for i := range vals {
		vals[i] = complex(2*rng.Float64()-1, 0)
	}
	ct := s.encryptValues(vals)
	out, err := s.ev.EvalChebyshev(s.enc, ct, coeffs)
	if err != nil {
		t.Fatal(err)
	}
	got := s.decrypt(out)
	for i := range vals {
		want := EvalChebyshevAt(coeffs, real(vals[i]))
		if e := math.Abs(real(got[i]) - want); e > 1e-3 {
			t.Fatalf("slot %d: got %v want %v", i, real(got[i]), want)
		}
	}
}

func TestFullBootstrapRefresh(t *testing.T) {
	// End-to-end functional bootstrapping at demonstration parameters:
	// a level-0 ciphertext is refreshed back up the chain and still
	// decrypts to the original values. Uses a sparse secret (h=3) so the
	// ModRaise overflow stays within the K=2 sine range; parameters are
	// toy-scale and insecure by construction.
	const (
		deg = 19
		k   = 2
	)
	// The Paterson–Stockmeyer evaluator needs only ChebyshevDepth(deg)+3
	// levels (= 8 for deg 19) instead of the recurrence's deg+3 = 22; one
	// spare level on top keeps the refreshed output above level 0. A chain
	// this short is itself a regression guard: linear-depth evaluation
	// could not even construct a bootstrapper here.
	lvls := ChebyshevDepth(deg) + 4
	if lvls >= deg+3 {
		t.Fatalf("ChebyshevDepth(%d) = %d did not beat linear depth", deg, ChebyshevDepth(deg))
	}
	targets := make([]float64, lvls+1)
	for i := range targets {
		targets[i] = 40
	}
	prog := core.ProgramSpec{MaxLevel: lvls, TargetScaleBits: targets, QMinBits: 48}
	params, err := BuildParameters(core.BitPacker, prog, core.SecuritySpec{LogN: 8}, core.HWSpec{WordBits: 61}, 8, 3.2)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(params)
	bs, err := NewBootstrapper(params, enc, BootstrapConfig{KRange: k, SineDegree: deg})
	if err != nil {
		t.Fatal(err)
	}

	kg := NewKeyGenerator(params, 101, 102)
	sk := kg.GenSecretKeySparse(3)
	pk := kg.GenPublicKey(sk)
	ev := NewEvaluator(params, NewClosedKeyManager(params, kg, sk, bs.Rotations(), true))
	encr := NewEncryptor(params, pk, 103, 104)
	dec := NewDecryptor(params, sk)

	rng := rand.New(rand.NewPCG(105, 106))
	n := params.Slots()
	vals := make([]complex128, n)
	for i := range vals {
		vals[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	lvl := params.MaxLevel()
	pt := &Plaintext{
		Value: enc.MustEncode(vals, params.DefaultScale(lvl), params.LevelModuli(lvl)),
		Level: lvl,
		Scale: params.DefaultScale(lvl),
	}
	exhausted := ev.MustAdjustTo(encr.MustEncryptAtLevel(pt, lvl), 0)

	refreshed, err := bs.Refresh(ev, exhausted)
	if err != nil {
		t.Fatal(err)
	}
	if refreshed.Level < 1 {
		t.Fatalf("refresh did not regain levels: %d", refreshed.Level)
	}
	got := dec.MustDecryptAndDecode(refreshed, enc)
	// Demonstration-grade precision: ~4-5 error-free bits (the deg-19
	// sine, the 128-term DFT noise, and the A~40 amplitude swamp the
	// usual noise floor at these toy parameters).
	if e := maxErr(got, vals); e > 0.06 {
		t.Fatalf("bootstrap error %g (level regained: %d)", e, refreshed.Level)
	}
	t.Logf("bootstrap: refreshed to level %d with max error %g", refreshed.Level, maxErr(got, vals))
}

func TestMulByI(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 9, 8, nil)
	rng := rand.New(rand.NewPCG(107, 108))
	vals := randomValues(s.params.Slots(), rng)
	ct := s.encryptValues(vals)
	for power := 0; power < 4; power++ {
		out := s.ev.MulByI(ct, power)
		got := s.decrypt(out)
		factor := complex(1, 0)
		for p := 0; p < power; p++ {
			factor *= complex(0, 1)
		}
		want := make([]complex128, len(vals))
		for i := range vals {
			want[i] = vals[i] * factor
		}
		if e := maxErr(got, want); e > 1e-6 {
			t.Fatalf("i^%d: error %g", power, e)
		}
	}
}

// EvalChebyshevAt evaluates a Chebyshev series at a plain float (reference
// helper for tests and calibration).
func EvalChebyshevAt(coeffs []float64, x float64) float64 {
	if len(coeffs) == 0 {
		return 0
	}
	tPrev2, tPrev := 1.0, x
	sum := coeffs[0]
	if len(coeffs) > 1 {
		sum += coeffs[1] * x
	}
	for k := 2; k < len(coeffs); k++ {
		tk := 2*x*tPrev - tPrev2
		sum += coeffs[k] * tk
		tPrev2, tPrev = tPrev, tk
	}
	return sum
}
