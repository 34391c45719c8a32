package ckks

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/cmplx"
	"math/rand/v2"
	"runtime/debug"
	"slices"
	"testing"

	"bitpacker/internal/core"
	"bitpacker/internal/nt"
	"bitpacker/internal/ring"
	"bitpacker/internal/rns"
)

// The 256-bit encoder the machine-word one replaced, kept as its
// reference: Encode must be bit-identical to refEncode, and every
// coefficient decodeCoeffs produces within 4 ulp of refDecodeCoeffs.

// refFFT is the special FFT with its twiddle index computed per
// butterfly from the rotation group (inverse: the encode direction).
func refFFT(vals []complex128, inverse bool) {
	size, m := len(vals), 4*len(vals)
	rotGroup := make([]int, size)
	for i, p := 0, 1; i < size; i, p = i+1, p*5%m {
		rotGroup[i] = p
	}
	ksi := func(j int) complex128 { return cmplx.Exp(complex(0, 2*math.Pi*float64(j)/float64(m))) }
	if !inverse {
		arrayBitReverse(vals)
		for length := 2; length <= size; length <<= 1 {
			lenh, lenq := length>>1, length<<2
			for i := 0; i < size; i += length {
				for j := 0; j < lenh; j++ {
					u, v := vals[i+j], vals[i+j+lenh]*ksi((rotGroup[j]%lenq)*m/lenq)
					vals[i+j], vals[i+j+lenh] = u+v, u-v
				}
			}
		}
		return
	}
	for length := size; length >= 2; length >>= 1 {
		lenh, lenq := length>>1, length<<2
		for i := 0; i < size; i += length {
			for j := 0; j < lenh; j++ {
				u := vals[i+j] + vals[i+j+lenh]
				v := (vals[i+j] - vals[i+j+lenh]) * ksi(m-(rotGroup[j]%lenq)*m/lenq)
				vals[i+j], vals[i+j+lenh] = u, v
			}
		}
	}
	arrayBitReverse(vals)
	for i := range vals {
		vals[i] *= complex(1/float64(size), 0)
	}
}

// TestSpecialFFTMatchesReference: the tabulated special FFT is the
// per-butterfly one bit for bit, both directions, LogN 2 to 12.
func TestSpecialFFTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(407, 408))
	for logN := 2; logN <= 12; logN++ {
		e := NewEncoder(&Parameters{Chain: &core.Chain{N: 1 << logN}})
		for _, inverse := range []bool{false, true} {
			vals := randomValues(e.n, rng)
			want := slices.Clone(vals)
			refFFT(want, inverse)
			if inverse {
				e.fftSpecialInv(vals)
			} else {
				e.fftSpecial(vals)
			}
			if !slices.Equal(vals, want) {
				t.Fatalf("logN %d inverse=%v: tabulated special FFT differs from the reference", logN, inverse)
			}
		}
	}
}

// refEncode is Encode with every coefficient rounded in big.Float and
// reduced through big.Int.
func refEncode(e *Encoder, values []complex128, scale *big.Rat, moduli []uint64) *ring.Poly {
	vals := make([]complex128, e.n)
	copy(vals, values)
	refFFT(vals, true)
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
	return p
}

// refDecodeCoeffs is decodeCoeffs with every coefficient composed in
// big.Int and divided at 256 bits.
func refDecodeCoeffs(e *Encoder, p *ring.Poly, basis *rns.Basis, scale *big.Rat) []complex128 {
	const prec = 256
	sf := new(big.Float).SetPrec(prec).SetRat(scale)
	vals := make([]complex128, e.n)
	tmp := new(big.Float).SetPrec(prec)
	for i := 0; i < e.n; i++ {
		tmp.SetInt(p.CoeffBig(basis, i))
		tmp.Quo(tmp, sf)
		rf, _ := tmp.Float64()
		tmp.SetInt(p.CoeffBig(basis, i+e.n))
		tmp.Quo(tmp, sf)
		imf, _ := tmp.Float64()
		vals[i] = complex(rf, imf)
	}
	return vals
}

// ulps is the distance between two floats in units in the last place:
// the number of float64 values between them.
func ulps(a, b float64) uint64 {
	ord := func(f float64) int64 {
		u := int64(math.Float64bits(f))
		if u < 0 {
			u = math.MinInt64 - u
		}
		return u
	}
	d := ord(a) - ord(b)
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// encoderScales are the scales a coefficient is tested at: the level's
// own, a power of two (the float64 route) and a rational no float64
// holds (the 256-bit route).
func encoderScales(def *big.Rat) []*big.Rat {
	return []*big.Rat{def, new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 40)), big.NewRat(1<<42+1, 3)}
}

// encoderBases are moduli lists of 1…14 residues at 28 and 61 bits,
// NTT-friendly for the setup's ring.
func encoderBases(t *testing.T, s *testSetup) [][]uint64 {
	m := uint64(2 * s.params.N())
	var out [][]uint64
	for _, b := range []uint64{28, 61} {
		ps := nt.NTTPrimesBelow(uint64(1)<<b, m, 14)
		for r := 1; r <= 14; r++ {
			out = append(out, ps[:r])
		}
	}
	return out
}

// boundaryValues are slot vectors whose encoded coefficients reach the
// edges: tiny values, coefficients just under and past 2^62 at scale
// 2^40, and magnitudes no machine word holds.
func boundaryValues(slots int, rng *rand.Rand) [][]complex128 {
	var out [][]complex128
	for _, mag := range []float64{1e-9, 1, 0x1p21, 0x1p22, 0x1p23, 0x1p60, 0x1p200} {
		v := make([]complex128, slots)
		for i := range v {
			v[i] = complex(mag*(2*rng.Float64()-1), mag*(2*rng.Float64()-1))
		}
		out = append(out, v)
	}
	ties := make([]complex128, slots) // v·2^40 = k + 1/2 exactly
	for i := range ties {
		k := float64(rng.IntN(1<<20) - 1<<19)
		ties[i] = complex((k+0.5)*0x1p-40, -(k+0.5)*0x1p-40)
	}
	return append(out, ties)
}

// TestEncodeMatchesReference: Encode is bit-identical to the 256-bit
// reference on both schemes at every level (over the level's moduli and
// with the special primes appended), over 1…14 residues of 28 and 61
// bits, at the level's scale, a power of two and a non-float rational,
// for random and boundary vectors.
func TestEncodeMatchesReference(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		s := newTestSetup(t, scheme, 4, 40, 28, 8, 3, nil)
		rng := rand.New(rand.NewPCG(401, uint64(scheme)))
		vecs := append(boundaryValues(s.params.Slots(), rng), randomValues(s.params.Slots(), rng))
		check := func(tag string, moduli []uint64, scale *big.Rat) {
			for vi, v := range vecs {
				got := s.enc.MustEncode(v, scale, moduli)
				if want := refEncode(s.enc, v, scale, moduli); !got.Equal(want) {
					t.Fatalf("%v %s scale 2^%.2f vector %d: Encode differs from the 256-bit reference", scheme, tag, core.RatLog2(scale), vi)
				}
			}
		}
		for l := 0; l <= s.params.MaxLevel(); l++ {
			live := s.params.LevelModuli(l)
			for _, scale := range encoderScales(s.params.DefaultScale(l)) {
				check(fmt.Sprintf("level %d", l), live, scale)
				check(fmt.Sprintf("level %d ++ special", l), append(append([]uint64(nil), live...), s.params.Chain.Special...), scale)
			}
		}
		for _, moduli := range encoderBases(t, s) {
			check(fmt.Sprintf("%d×%d-bit", len(moduli), bits.Len64(moduli[0])), moduli, s.params.DefaultScale(0))
		}
	}
}

// TestRounderMatchesReference: one coefficient at a time, the encoder's
// rounding writes the residues of the 256-bit round-half-away integer —
// exact ties k + 1/2 of both signs, products just under and past 2^62,
// in [2^63, 2^64) and far beyond, at a power-of-two scale (the float64
// route) and a non-float one (big.Float) over 28- and 61-bit moduli.
func TestRounderMatchesReference(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 1, 40, 61, 6, 1, nil)
	rng := rand.New(rand.NewPCG(409, 410))
	var vs []float64
	for i := 0; i < 200; i++ {
		k := float64(rng.Int64N(1<<50) - 1<<49)
		vs = append(vs, (k+0.5)*0x1p-40, -(k+0.5)*0x1p-40, (2*rng.Float64()-1)*0x1p10)
	}
	for _, e := range []float64{0x1p21, 0x1p22, 0x1p23, 0x1p24, 0x1p100} {
		vs = append(vs, e, -e, e*(1-0x1p-52), -e*(1-0x1p-52), e*(1+0x1p-52))
	}
	for _, b := range []uint64{28, 61} {
		moduli := nt.NTTPrimesBelow(uint64(1)<<b, uint64(2*s.params.N()), 3)
		for _, scale := range encoderScales(big.NewRat(1, 1))[1:] {
			r := newRounder(scale, moduli)
			sf := new(big.Float).SetPrec(256).SetRat(scale)
			got, want := ring.NewPoly(s.params.Ctx, moduli), ring.NewPoly(s.params.Ctx, moduli)
			for _, v := range vs {
				r.set(got, 0, v)
				x := new(big.Float).SetPrec(256).SetFloat64(v)
				want.SetCoeffBig(0, roundToBig(x.Mul(x, sf)))
				if !got.Equal(want) {
					t.Fatalf("%d-bit moduli, scale 2^%.2f: v = %v rounds to other residues than the 256-bit reference", b, core.RatLog2(scale), v)
				}
			}
		}
	}
}

// decodeWithin4Ulp decodes p both ways and fails on the first
// coefficient more than 4 ulp from the reference.
func decodeWithin4Ulp(t *testing.T, tag string, e *Encoder, p *ring.Poly, basis *rns.Basis, scale *big.Rat) {
	t.Helper()
	got := make([]complex128, e.n)
	e.decodeCoeffs(got, p, basis, scale)
	want := refDecodeCoeffs(e, p, basis, scale)
	for i := range want {
		if d := max(ulps(real(got[i]), real(want[i])), ulps(imag(got[i]), imag(want[i]))); d > 4 {
			t.Fatalf("%s: coefficient %d decodes to %v, reference %v (%d ulp)", tag, i, got[i], want[i], d)
		}
	}
}

// TestDecodeMatchesReference: every decoded coefficient is within 4 ulp
// of the 256-bit reference over 1…14 residues of 28 and 61 bits, for
// centred values of decryption size, values at ±(2^62 − 1) and past 2^62
// (the big.Int fallback), ±Q/2 and uniformly random residues.
func TestDecodeMatchesReference(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 8, 3, nil)
	rng := rand.New(rand.NewPCG(403, 404))
	n := s.params.N()
	for _, moduli := range encoderBases(t, s) {
		basis := s.dec.MustBasis(moduli)
		half := new(big.Int).Rsh(basis.Q, 1)
		edges := []*big.Int{half, new(big.Int).Neg(half), big.NewInt(1<<62 - 1), big.NewInt(-(1<<62 - 1)),
			big.NewInt(1 << 62), big.NewInt(-1 << 62), new(big.Int).Lsh(big.NewInt(1), 70)}
		fill := func(kind string) *ring.Poly {
			p := ring.NewPoly(s.params.Ctx, moduli)
			for k := 0; k < n; k++ {
				var x *big.Int
				switch kind {
				case "small":
					x = big.NewInt(rng.Int64N(1<<52) - 1<<51)
				case "edges":
					x = edges[k%len(edges)]
				default:
					x = randBelow(rng, basis.Q)
				}
				p.SetCoeffBig(k, x)
			}
			return p
		}
		for _, kind := range []string{"small", "edges", "random"} {
			p := fill(kind)
			for _, scale := range encoderScales(s.params.DefaultScale(0)) {
				tag := fmt.Sprintf("%d×%d-bit %s scale 2^%.2f", len(moduli), bits.Len64(moduli[0]), kind, core.RatLog2(scale))
				decodeWithin4Ulp(t, tag, s.enc, p, basis, scale)
			}
		}
	}
}

// randBelow draws an integer in [0, q), uniform up to a 2^-64 bias.
func randBelow(rng *rand.Rand, q *big.Int) *big.Int {
	x := new(big.Int)
	for i := 0; i <= q.BitLen()/64; i++ {
		x.Lsh(x, 64).Or(x, new(big.Int).SetUint64(rng.Uint64()))
	}
	return x.Mod(x.Lsh(x, 64).Or(x, new(big.Int).SetUint64(rng.Uint64())), q)
}

// FuzzDecode: Decode on hostile residues — words at or past their
// modulus, all ones, any bytes — never panics and stays within 4 ulp of
// the reference, over a 1-residue and a 3-residue basis.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(1))
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<63), uint8(1))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<62), 3), uint8(0))
	s := newTestSetup(f, core.RNSCKKS, 2, 40, 61, 6, 3, nil)
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		moduli := s.params.LevelModuli(s.params.MaxLevel())
		if which%2 == 0 {
			moduli = moduli[:1]
		}
		p := ring.NewPoly(s.params.Ctx, moduli)
		for i, row := range p.Coeffs {
			for k := range row {
				if off := 8 * (i*len(row) + k); off+8 <= len(data) {
					row[k] = binary.LittleEndian.Uint64(data[off:])
				} else {
					row[k] = moduli[i] + uint64(k) // at or past the modulus
				}
			}
		}
		basis := s.dec.MustBasis(moduli)
		s.enc.Decode(p, basis, s.params.DefaultScale(0))
		decodeWithin4Ulp(t, "hostile residues", s.enc, p, basis, s.params.DefaultScale(0))
	})
}

// TestEncoderAllocCeiling pins the encoder's allocations at LogN 10 (512
// slots, 3 residues). The 256-bit encoder made about 3 per coefficient
// on either side; the machine-word one reads 17 per Encode (the
// polynomial, the buffers) and 7 per Decode, pinned within 10 %.
func TestEncoderAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := newTestSetup(t, core.RNSCKKS, 2, 40, 61, 10, 3, nil)
	rng := rand.New(rand.NewPCG(405, 406))
	vals := randomValues(s.params.Slots(), rng)
	lvl := s.params.MaxLevel()
	moduli, scale := s.params.LevelModuli(lvl), s.params.DefaultScale(lvl)
	pt := s.enc.MustEncode(vals, scale, moduli)
	basis := s.dec.MustBasis(moduli)
	for _, op := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"Encode", 18, func() { s.enc.MustEncode(vals, scale, moduli) }},
		{"Decode", 7, func() { s.enc.Decode(pt, basis, scale) }},
	} {
		if got := testing.AllocsPerRun(10, op.run); got > op.ceiling {
			t.Errorf("%s: %.0f allocations per call, ceiling %.0f", op.name, got, op.ceiling)
		} else {
			t.Logf("%s: %.0f allocations per call (ceiling %.0f)", op.name, got, op.ceiling)
		}
	}
}
