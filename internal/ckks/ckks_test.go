package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/cmplx"
	"math/rand/v2"
	"slices"
	"testing"

	"bitpacker/internal/core"
	"bitpacker/internal/ring"
)

// testSetup bundles everything a scheme test needs.
type testSetup struct {
	params *Parameters
	enc    *Encoder
	kg     *KeyGenerator
	sk     *SecretKey
	pk     *PublicKey
	encr   *Encryptor
	dec    *Decryptor
	ev     *Evaluator

	rotations []int // the closed store's rotation steps
}

func newTestSetup(t testing.TB, scheme core.Scheme, levels int, scaleBits float64, w, logN, dnum int, rotations []int) *testSetup {
	t.Helper()
	targets := make([]float64, levels+1)
	for i := range targets {
		targets[i] = scaleBits
	}
	prog := core.ProgramSpec{MaxLevel: levels, TargetScaleBits: targets, QMinBits: scaleBits + 20}
	params, err := BuildParameters(scheme, prog, core.SecuritySpec{LogN: logN}, core.HWSpec{WordBits: w}, dnum, 3.2)
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(params, 11, 22)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	return &testSetup{
		params:    params,
		enc:       NewEncoder(params),
		kg:        kg,
		sk:        sk,
		pk:        pk,
		encr:      NewEncryptor(params, pk, 33, 44),
		dec:       NewDecryptor(params, sk),
		ev:        NewEvaluator(params, NewClosedKeyManager(params, kg, sk, rotations, true)),
		rotations: rotations,
	}
}

// addRotationKeys gives the setup's evaluator a closed store that also
// holds the keys for steps.
func (s *testSetup) addRotationKeys(steps []int) {
	s.rotations = append(s.rotations, steps...)
	s.ev.SetKeyManager(NewClosedKeyManager(s.params, s.kg, s.sk, s.rotations, true))
}

// encryptValues encodes and encrypts at the top level.
// decrypt decodes ct's slots after settling it: the divided value a
// reader outside the evaluator sees (see Ciphertext).
func (s *testSetup) decrypt(ct *Ciphertext) []complex128 {
	return s.dec.MustDecryptAndDecode(s.settled(ct), s.enc)
}

// settled is ct with its pending components divided.
func (s *testSetup) settled(ct *Ciphertext) *Ciphertext {
	out, err := s.ev.Settle(ct)
	if err != nil {
		panic(err)
	}
	return out
}

// decryptPoly is DecryptToPoly of ct settled.
func (s *testSetup) decryptPoly(ct *Ciphertext) *Plaintext {
	pt, err := s.dec.DecryptToPoly(s.settled(ct))
	if err != nil {
		panic(err)
	}
	return pt
}

func (s *testSetup) encryptValues(values []complex128) *Ciphertext {
	lvl := s.params.MaxLevel()
	pt := &Plaintext{
		Value: s.enc.MustEncode(values, s.params.DefaultScale(lvl), s.params.LevelModuli(lvl)),
		Level: lvl,
		Scale: s.params.DefaultScale(lvl),
	}
	return s.encr.MustEncryptAtLevel(pt, lvl)
}

func randomValues(n int, rng *rand.Rand) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	return v
}

// maxErr returns the largest absolute slot error.
func maxErr(got, want []complex128) float64 {
	m := 0.0
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > m {
			m = e
		}
	}
	return m
}

func TestEncoderRoundTrip(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 10, 8, nil)
	rng := rand.New(rand.NewPCG(1, 2))
	vals := randomValues(s.params.Slots(), rng)
	lvl := s.params.MaxLevel()
	pt := s.enc.MustEncode(vals, s.params.DefaultScale(lvl), s.params.LevelModuli(lvl))
	got := s.enc.Decode(pt, s.dec.MustBasis(pt.Moduli), s.params.DefaultScale(lvl))
	if e := maxErr(got, vals); e > 1e-8 {
		t.Fatalf("encode/decode error %g", e)
	}
}

func TestEncryptDecrypt(t *testing.T) {
	for _, scheme := range []core.Scheme{core.RNSCKKS, core.BitPacker} {
		s := newTestSetup(t, scheme, 2, 40, 61, 10, 8, nil)
		rng := rand.New(rand.NewPCG(3, 4))
		vals := randomValues(s.params.Slots(), rng)
		ct := s.encryptValues(vals)
		got := s.decrypt(ct)
		if e := maxErr(got, vals); e > 1e-6 {
			t.Fatalf("%v: encrypt/decrypt error %g", scheme, e)
		}
	}
}

func TestHomomorphicAdd(t *testing.T) {
	for _, scheme := range []core.Scheme{core.RNSCKKS, core.BitPacker} {
		s := newTestSetup(t, scheme, 2, 40, 61, 10, 8, nil)
		rng := rand.New(rand.NewPCG(5, 6))
		a := randomValues(s.params.Slots(), rng)
		b := randomValues(s.params.Slots(), rng)
		ca := s.encryptValues(a)
		cb := s.encryptValues(b)
		sum := s.ev.MustAdd(ca, cb)
		got := s.decrypt(sum)
		want := make([]complex128, len(a))
		for i := range a {
			want[i] = a[i] + b[i]
		}
		if e := maxErr(got, want); e > 1e-6 {
			t.Fatalf("%v: add error %g", scheme, e)
		}
		diff := s.ev.MustSub(sum, cb)
		got = s.decrypt(diff)
		if e := maxErr(got, a); e > 1e-6 {
			t.Fatalf("%v: sub error %g", scheme, e)
		}
	}
}

func TestMulRelinRescale(t *testing.T) {
	for _, scheme := range []core.Scheme{core.RNSCKKS, core.BitPacker} {
		s := newTestSetup(t, scheme, 3, 40, 61, 11, 8, nil)
		rng := rand.New(rand.NewPCG(7, 8))
		a := randomValues(s.params.Slots(), rng)
		b := randomValues(s.params.Slots(), rng)
		ca := s.encryptValues(a)
		cb := s.encryptValues(b)
		prod := s.ev.MustMulRelin(ca, cb)
		prod = s.ev.MustRescale(prod)
		if prod.Level != s.params.MaxLevel()-1 {
			t.Fatalf("%v: level after rescale = %d", scheme, prod.Level)
		}
		got := s.decrypt(prod)
		want := make([]complex128, len(a))
		for i := range a {
			want[i] = a[i] * b[i]
		}
		if e := maxErr(got, want); e > 1e-5 {
			t.Fatalf("%v: mul error %g", scheme, e)
		}
	}
}

func TestDeepMultiplicationChain(t *testing.T) {
	// Repeated squaring down the whole chain: x^(2^L).
	for _, scheme := range []core.Scheme{core.RNSCKKS, core.BitPacker} {
		levels := 4
		s := newTestSetup(t, scheme, levels, 40, 61, 11, 8, nil)
		rng := rand.New(rand.NewPCG(9, 10))
		n := s.params.Slots()
		vals := make([]complex128, n)
		for i := range vals {
			vals[i] = complex(0.5+0.4*rng.Float64(), 0)
		}
		ct := s.encryptValues(vals)
		want := append([]complex128(nil), vals...)
		for l := 0; l < levels; l++ {
			ct = s.ev.MustRescale(s.ev.MustSquare(ct))
			for i := range want {
				want[i] *= want[i]
			}
		}
		if ct.Level != 0 {
			t.Fatalf("%v: expected level 0, got %d", scheme, ct.Level)
		}
		got := s.decrypt(ct)
		if e := maxErr(got, want); e > 1e-4 {
			t.Fatalf("%v: depth-%d chain error %g", scheme, levels, e)
		}
	}
}

func TestAdjustEnablesAddAcrossLevels(t *testing.T) {
	// Paper Sec 2.2 example: x^2 + x needs adjust(x) before the add.
	for _, scheme := range []core.Scheme{core.RNSCKKS, core.BitPacker} {
		s := newTestSetup(t, scheme, 3, 40, 61, 11, 8, nil)
		rng := rand.New(rand.NewPCG(11, 12))
		n := s.params.Slots()
		vals := make([]complex128, n)
		for i := range vals {
			vals[i] = complex(2*rng.Float64()-1, 0)
		}
		ct := s.encryptValues(vals)
		sq := s.ev.MustRescale(s.ev.MustSquare(ct))
		adj := s.ev.MustAdjust(ct)
		if adj.Level != sq.Level {
			t.Fatalf("%v: adjust level %d != %d", scheme, adj.Level, sq.Level)
		}
		res := s.ev.MustAdd(sq, adj)
		got := s.decrypt(res)
		want := make([]complex128, n)
		for i := range vals {
			want[i] = vals[i]*vals[i] + vals[i]
		}
		if e := maxErr(got, want); e > 1e-4 {
			t.Fatalf("%v: x^2+x error %g", scheme, e)
		}
	}
}

func TestAdjustToMultipleLevels(t *testing.T) {
	for _, scheme := range []core.Scheme{core.RNSCKKS, core.BitPacker} {
		s := newTestSetup(t, scheme, 4, 40, 61, 10, 8, nil)
		rng := rand.New(rand.NewPCG(13, 14))
		vals := randomValues(s.params.Slots(), rng)
		ct := s.encryptValues(vals)
		low := s.ev.MustAdjustTo(ct, 1)
		if low.Level != 1 {
			t.Fatalf("%v: level %d", scheme, low.Level)
		}
		got := s.decrypt(low)
		if e := maxErr(got, vals); e > 1e-4 {
			t.Fatalf("%v: adjustTo error %g", scheme, e)
		}
	}
}

// TestAdjustToMatchesChainedAdjusts: AdjustTo is one transition however
// many levels it spans — one scale-up by what the target introduces, one
// division by what it retires. From every level to every lower level of
// the bp28 and rns61 chains it must land where chained one-level adjusts
// land: same level, scale and moduli order (the rows put back in the
// level's canonical order), and decrypted coefficients within 2^-30 of
// the scale. The bp28 chain's terminal primes leave and come back (at
// this logN its 14-bit modulus is at levels 7, 5, 3 and 0; at the
// benchmark's, a 17-bit one at 8, 5, 3 and 1), so spans that cross such
// a prime, which is then neither shed nor introduced, must be among them.
func TestAdjustToMatchesChainedAdjusts(t *testing.T) {
	for _, c := range []struct {
		scheme core.Scheme
		w      int
	}{{core.BitPacker, 28}, {core.RNSCKKS, 61}} {
		s := newTestSetup(t, c.scheme, 8, 40, c.w, 9, 3, nil)
		chain := s.params.Chain
		rng := rand.New(rand.NewPCG(401, uint64(c.w)))
		vals := randomValues(s.params.Slots(), rng)
		returns := 0 // spans a modulus leaves and comes back within
		for from := s.params.MaxLevel(); from >= 1; from-- {
			pt := &Plaintext{Value: s.enc.MustEncode(vals, s.params.DefaultScale(from), s.params.LevelModuli(from)), Level: from, Scale: s.params.DefaultScale(from)}
			ct := s.encr.MustEncryptAtLevel(pt, from)
			chained := ct
			for to := from - 1; to >= 0; to-- {
				tag := fmt.Sprintf("%v %d->%d", c.scheme, from, to)
				chained = s.ev.MustAdjust(chained)
				single := s.ev.MustAdjustTo(ct, to)
				if single.Level != chained.Level || single.Scale.Cmp(chained.Scale) != 0 || !slices.Equal(single.C0.Moduli, chained.C0.Moduli) {
					t.Fatalf("%s: level/scale/moduli %d %v %v, chained adjusts %d %v %v", tag,
						single.Level, single.Scale, single.C0.Moduli, chained.Level, chained.Scale, chained.C0.Moduli)
				}
				if d := phaseDistance(s, single, chained); d > math.Exp2(-30) {
					t.Errorf("%s: decrypted coefficients 2^%.1f of the scale from chained adjusts", tag, math.Log2(d))
				}
				for _, q := range chain.Levels[to].Moduli {
					for m := to + 1; m < from; m++ {
						if slices.Contains(chain.Levels[from].Moduli, q) && !slices.Contains(chain.Levels[m].Moduli, q) {
							returns++
						}
					}
				}
			}
		}
		if c.scheme == core.BitPacker && returns == 0 {
			t.Fatalf("%v: no span where a modulus leaves and comes back", c.scheme)
		}
	}
}

// phaseDistance is the largest coefficient of the difference of a's and
// b's decryptions, relative to a's scale.
func phaseDistance(s *testSetup, a, b *Ciphertext) float64 {
	pa, pb := s.decryptPoly(a).Value.Copy(), s.decryptPoly(b).Value.Copy()
	pa.INTT()
	pb.INTT()
	basis := pa.Basis()
	worst := new(big.Int)
	for k := 0; k < s.params.N(); k++ {
		d := new(big.Int).Sub(pa.CoeffBig(basis, k), pb.CoeffBig(basis, k))
		if d.Abs(d).Cmp(worst) > 0 {
			worst = d
		}
	}
	f, _ := new(big.Rat).Quo(new(big.Rat).SetInt(worst), a.Scale).Float64()
	return f
}

func TestRotateAndConjugate(t *testing.T) {
	for _, scheme := range []core.Scheme{core.RNSCKKS, core.BitPacker} {
		s := newTestSetup(t, scheme, 2, 40, 61, 10, 8, []int{1, 3})
		rng := rand.New(rand.NewPCG(15, 16))
		n := s.params.Slots()
		vals := randomValues(n, rng)
		ct := s.encryptValues(vals)

		rot := s.ev.MustRotate(ct, 1)
		got := s.decrypt(rot)
		want := make([]complex128, n)
		for i := range want {
			want[i] = vals[(i+1)%n]
		}
		if e := maxErr(got, want); e > 1e-5 {
			t.Fatalf("%v: rotate-by-1 error %g", scheme, e)
		}

		conj := s.ev.MustConjugate(ct)
		got = s.decrypt(conj)
		for i := range want {
			want[i] = cmplx.Conj(vals[i])
		}
		if e := maxErr(got, want); e > 1e-5 {
			t.Fatalf("%v: conjugate error %g", scheme, e)
		}
	}
}

func TestMulPlainAndAddPlain(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 10, 8, nil)
	rng := rand.New(rand.NewPCG(17, 18))
	n := s.params.Slots()
	vals := randomValues(n, rng)
	weights := randomValues(n, rng)
	ct := s.encryptValues(vals)
	lvl := ct.Level
	ptW := &Plaintext{
		Value: s.enc.MustEncode(weights, s.params.DefaultScale(lvl), s.params.LevelModuli(lvl)),
		Level: lvl,
		Scale: s.params.DefaultScale(lvl),
	}
	prod := s.ev.MustRescale(s.ev.MustMulPlain(ct, ptW))
	got := s.decrypt(prod)
	want := make([]complex128, n)
	for i := range want {
		want[i] = vals[i] * weights[i]
	}
	if e := maxErr(got, want); e > 1e-5 {
		t.Fatalf("mulPlain error %g", e)
	}

	ptA := &Plaintext{
		Value: s.enc.MustEncode(weights, ct.Scale, s.params.LevelModuli(lvl)),
		Level: lvl,
		Scale: ct.Scale,
	}
	sum := s.ev.MustAddPlain(ct, ptA)
	got = s.decrypt(sum)
	for i := range want {
		want[i] = vals[i] + weights[i]
	}
	if e := maxErr(got, want); e > 1e-6 {
		t.Fatalf("addPlain error %g", e)
	}
}

func TestPrecisionTracksScale(t *testing.T) {
	// Higher scales must give more error-free mantissa bits
	// (paper: log2(S)-20 .. log2(S)-15 usable bits).
	var prec30, prec50 float64
	for _, sb := range []float64{30, 50} {
		s := newTestSetup(t, core.BitPacker, 2, sb, 61, 11, 8, nil)
		rng := rand.New(rand.NewPCG(19, 20))
		vals := randomValues(s.params.Slots(), rng)
		ct := s.encryptValues(vals)
		prod := s.ev.MustRescale(s.ev.MustSquare(ct))
		got := s.decrypt(prod)
		want := make([]complex128, len(vals))
		for i := range vals {
			want[i] = vals[i] * vals[i]
		}
		e := maxErr(got, want)
		bits := -math.Log2(e)
		if sb == 30 {
			prec30 = bits
		} else {
			prec50 = bits
		}
	}
	if prec50 < prec30+10 {
		t.Fatalf("precision did not scale: 30-bit %.1f vs 50-bit %.1f", prec30, prec50)
	}
	if prec30 < 8 {
		t.Fatalf("30-bit scale precision too low: %.1f bits", prec30)
	}
}

func TestDnumVariants(t *testing.T) {
	// Keyswitching must be correct for 1..4 digits.
	for _, dnum := range []int{1, 2, 4} {
		s := newTestSetup(t, core.BitPacker, 2, 40, 61, 10, dnum, nil)
		rng := rand.New(rand.NewPCG(21, 22))
		vals := randomValues(s.params.Slots(), rng)
		ct := s.encryptValues(vals)
		prod := s.ev.MustRescale(s.ev.MustSquare(ct))
		got := s.decrypt(prod)
		want := make([]complex128, len(vals))
		for i := range vals {
			want[i] = vals[i] * vals[i]
		}
		if e := maxErr(got, want); e > 1e-4 {
			t.Fatalf("dnum=%d: error %g", dnum, e)
		}
	}
}

func TestNarrowWordBitPacker(t *testing.T) {
	// BitPacker at a narrow word: residues must pack into 28-bit moduli
	// and arithmetic must still be correct.
	s := newTestSetup(t, core.BitPacker, 3, 40, 28, 11, 8, nil)
	for _, l := range s.params.Chain.Levels {
		for _, q := range l.Moduli {
			if q >= 1<<28 {
				t.Fatalf("modulus %d exceeds 28-bit word", q)
			}
		}
	}
	rng := rand.New(rand.NewPCG(23, 24))
	vals := randomValues(s.params.Slots(), rng)
	ct := s.encryptValues(vals)
	prod := s.ev.MustRescale(s.ev.MustSquare(ct))
	got := s.decrypt(prod)
	want := make([]complex128, len(vals))
	for i := range vals {
		want[i] = vals[i] * vals[i]
	}
	if e := maxErr(got, want); e > 1e-4 {
		t.Fatalf("narrow-word error %g", e)
	}
}

func TestSymmetricEncryption(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 10, 8, nil)
	enc := NewSymmetricEncryptor(s.params, s.sk, 81, 82)
	rng := rand.New(rand.NewPCG(83, 84))
	vals := randomValues(s.params.Slots(), rng)
	lvl := s.params.MaxLevel()
	pt := &Plaintext{
		Value: s.enc.MustEncode(vals, s.params.DefaultScale(lvl), s.params.LevelModuli(lvl)),
		Level: lvl,
		Scale: s.params.DefaultScale(lvl),
	}
	ct := enc.MustEncryptAtLevel(pt, lvl)
	got := s.decrypt(ct)
	if e := maxErr(got, vals); e > 1e-6 {
		t.Fatalf("symmetric roundtrip error %g", e)
	}
	// Symmetric and public-key ciphertexts interoperate.
	ct2 := s.encryptValues(vals)
	sum := s.ev.MustAdd(ct, ct2)
	got = s.decrypt(sum)
	want := make([]complex128, len(vals))
	for i := range vals {
		want[i] = 2 * vals[i]
	}
	if e := maxErr(got, want); e > 1e-5 {
		t.Fatalf("mixed add error %g", e)
	}
}

// SymmetricEncryptor encrypts directly under the secret key, producing
// fresh ciphertexts with slightly less noise than public-key encryption
// (no v*e_pk term). Used server-side or for test vectors.
type SymmetricEncryptor struct {
	params  *Parameters
	sk      *SecretKey
	sampler *ring.Sampler
}

// NewSymmetricEncryptor creates a secret-key encryptor.
func NewSymmetricEncryptor(params *Parameters, sk *SecretKey, seed1, seed2 uint64) *SymmetricEncryptor {
	return &SymmetricEncryptor{params: params, sk: sk, sampler: ring.NewSampler(params.Ctx, seed1, seed2)}
}

// EncryptAtLevel encrypts pt at the given level: c1 uniform, c0 = -c1*s + e + m.
func (enc *SymmetricEncryptor) EncryptAtLevel(pt *Plaintext, level int) (*Ciphertext, error) {
	p := enc.params
	if err := checkEncryptLevel(p, level); err != nil {
		return nil, err
	}
	moduli := p.LevelModuli(level)
	c1 := enc.sampler.UniformPoly(moduli)
	e := enc.sampler.GaussianPoly(moduli, p.Sigma)
	e.NTT()
	m := pt.Value.Copy()
	m.NTT()
	s := enc.sk.S.Restrict(moduli)
	c0 := ring.NewPoly(p.Ctx, moduli)
	c0.IsNTT = true
	c0.MulCoeffs(c1, s)
	c0.Neg(c0)
	c0.Add(c0, e)
	c0.Add(c0, m)
	fresh := NewNoiseModel(p).FreshBits()
	ct := newCiphertext(c0, c1, level, new(big.Rat).Set(pt.Scale), fresh)
	ct.SeedSpare(p)
	return ct, nil
}
