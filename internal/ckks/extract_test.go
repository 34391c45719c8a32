package ckks

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"slices"
	"testing"

	"bitpacker/internal/core"
)

// encodeExt encodes values at a level's default scale over the level's
// moduli ++ the special primes, in the NTT domain: the plaintext
// RotateHoistedMulRescale multiplies at extended width.
func (s *testSetup) encodeExt(values []complex128, level int) *Plaintext {
	moduli := append(slices.Clone(s.params.LevelModuli(level)), s.params.Chain.Special...)
	p := s.enc.MustEncode(values, s.params.DefaultScale(level), moduli)
	p.NTT()
	return &Plaintext{Value: p, Level: level, Scale: s.params.DefaultScale(level)}
}

// twoStepExtract is the path RotateHoistedMulRescale replaces:
// Rescale(MulPlain(RotateHoisted(ct, steps)[i], pt)).
func (s *testSetup) twoStepExtract(ct *Ciphertext, steps []int, pt *Plaintext) []*Ciphertext {
	outs := s.ev.MustRotateHoisted(ct, steps)
	for i, o := range outs {
		outs[i] = s.ev.MustRescale(s.ev.MustMulPlain(o, pt))
	}
	return outs
}

// extractSteps are zero, duplicated and nonzero amounts, one of them
// past the slot count.
var extractSteps = []int{3, 0, 1, 3, 0, 5}

// extractionMask keeps the leading eighth of the slots, as a served
// reply's window mask keeps [0, Window).
func extractionMask(slots int) []complex128 {
	mask := make([]complex128, slots)
	for i := range slots / 8 {
		mask[i] = 1
	}
	return mask
}

// extractErrors decrypts outs against vals rotated by steps and masked,
// and returns the RMS error over the slots the mask keeps and over the
// slots it zeroes, pooled over every output, and the largest kept-slot
// error.
func (s *testSetup) extractErrors(outs []*Ciphertext, steps []int, vals, mask []complex128) (kept, zeroed, worst float64) {
	slots := len(vals)
	var nk, nz float64
	for i, step := range steps {
		got := s.dec.MustDecryptAndDecode(outs[i], s.enc)
		for k := range got {
			d := cmplx.Abs(got[k] - vals[(k+step)%slots]*mask[k])
			if mask[k] != 0 {
				kept, nk, worst = kept+d*d, nk+1, math.Max(worst, d)
			} else {
				zeroed, nz = zeroed+d*d, nz+1
			}
		}
	}
	return math.Log2(math.Sqrt(kept / nk)), math.Log2(math.Sqrt(zeroed / nz)), math.Log2(worst)
}

// TestRotateHoistedMulRescaleMatchesTwoStep: every output lands where
// the two-step path's does (level, scale, moduli), with a noise estimate
// within 1 bit of it and its own storage; a zero step is the two-step
// path bit for bit, and on a redundant-residue chain every output leaves
// with its spare channel seeded. BitPacker and RNS-CKKS at 28- and
// 61-bit words, with and without the redundant residue, at LogN 10. The
// worst kept-slot error stays within 0.5 bit of the two-step path's:
// at 512 slots it moves by up to ±0.4 bit with the key (the one
// division's rounding error has the secret's slot pattern; see
// TestRotateHoistedMulRescalePrecision for the 0.1-bit bound).
func TestRotateHoistedMulRescaleMatchesTwoStep(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		for _, w := range []int{28, 61} {
			for _, rrns := range []bool{false, true} {
				setup := newTestSetup
				if rrns {
					setup = newRRNSSetup
				}
				steps := append(slices.Clone(extractSteps), 5+512)
				s := setup(t, scheme, 3, 40, w, 10, 3, []int{1, 3, 5})
				tag := fmt.Sprintf("%v w=%d rrns=%v", scheme, w, rrns)
				rng := rand.New(rand.NewPCG(501, uint64(w)))
				slots := s.params.Slots()
				vals, mask := randomValues(slots, rng), extractionMask(slots)
				ct := s.encryptValues(vals)
				pt := s.encodeExt(mask, ct.Level)
				merged := s.ev.MustRotateHoistedMulRescale(ct, steps, pt)
				twoStep := s.twoStepExtract(ct, steps, pt)
				for i, step := range steps {
					m, two := merged[i], twoStep[i]
					if m.Level != two.Level || m.Scale.Cmp(two.Scale) != 0 || !slices.Equal(m.C0.Moduli, two.C0.Moduli) {
						t.Fatalf("%s step %d: output at level %d scale 2^%.3f, two-step at %d 2^%.3f", tag, step,
							m.Level, core.RatLog2(m.Scale), two.Level, core.RatLog2(two.Scale))
					}
					if math.Abs(m.NoiseBits-two.NoiseBits) > 1 {
						t.Errorf("%s step %d: estimate %.2f bits, two-step %.2f", tag, step, m.NoiseBits, two.NoiseBits)
					}
					if normalizeSteps(step, slots) == 0 && !ctEqualNoise(m, two) {
						t.Errorf("%s: the zero step differs from MulPlain+Rescale", tag)
					}
					if rrns && m.SpareDepth != 1 {
						t.Errorf("%s step %d: spare channel left unseeded", tag, step)
					}
					for j := range i {
						if merged[j] == m || merged[j].C0 == m.C0 || &merged[j].C0.Coeffs[0][0] == &m.C0.Coeffs[0][0] {
							t.Fatalf("%s: outputs %d and %d share storage", tag, j, i)
						}
					}
				}
				_, _, wm := s.extractErrors(merged, steps, vals, mask)
				_, _, w2 := s.extractErrors(twoStep, steps, vals, mask)
				if wm > w2+0.5 {
					t.Errorf("%s: worst kept-slot error 2^%.2f, two-step 2^%.2f", tag, wm, w2)
				}
			}
		}
	}
}

// TestRotateHoistedMulRescalePrecision: at LogN 12 the replies decrypt
// over the kept slots within 0.1 bit (RMS) of the two-step path, on both
// schemes at 28- and 61-bit words and on a redundant-residue chain. In
// the slots the mask zeroes the two-step path keeps only its rescale's
// rounding (its ModDown's error is multiplied by the mask's zero), while
// the one division sheds k = S + D moduli at once (S special primes, D
// retired by the level change). The division rounds, so what is left is
// its fast conversion's zero-mean error, of variance k/12 per
// coefficient against D/12: the zeroed slots are held to
// ½·log2((S+D)/D) + 0.1 bit over the two-step path, from each case's
// pinned S and D (0.39-0.76 bit; they read within 0.03 of the ratio). A
// level plan that sheds other counts fails the test rather than moving
// the allowance. A floored division added its k/2 bias there, and they
// read up to 1.4 bits noisier (DESIGN.md, "One division per reply").
func TestRotateHoistedMulRescalePrecision(t *testing.T) {
	if testing.Short() {
		t.Skip("LogN 12 keys")
	}
	for _, c := range []struct {
		scheme core.Scheme
		w      int
		rrns   bool
		s, d   int // special primes; moduli the level change retires
	}{
		{core.BitPacker, 28, false, 2, 2},
		{core.BitPacker, 61, false, 1, 2},
		{core.RNSCKKS, 28, false, 3, 2},
		{core.RNSCKKS, 61, false, 1, 1},
		{core.BitPacker, 61, true, 1, 2},
	} {
		setup := newTestSetup
		if c.rrns {
			setup = newRRNSSetup
		}
		steps := []int{1, 3, 5}
		s := setup(t, c.scheme, 2, 40, c.w, 12, 3, steps)
		rng := rand.New(rand.NewPCG(505, uint64(c.w)))
		slots := s.params.Slots()
		vals, mask := randomValues(slots, rng), extractionMask(slots)
		ct := s.encryptValues(vals)
		pt := s.encodeExt(mask, ct.Level)
		km, zm, _ := s.extractErrors(s.ev.MustRotateHoistedMulRescale(ct, steps, pt), steps, vals, mask)
		k2, z2, _ := s.extractErrors(s.twoStepExtract(ct, steps, pt), steps, vals, mask)
		t.Logf("%v w=%d rrns=%v: kept slots 2^%.2f (two-step 2^%.2f), zeroed 2^%.2f (2^%.2f)", c.scheme, c.w, c.rrns, km, k2, zm, z2)
		if km > k2+0.1 {
			t.Errorf("%v w=%d rrns=%v: kept-slot error 2^%.2f, two-step 2^%.2f", c.scheme, c.w, c.rrns, km, k2)
		}
		one, err := s.ev.levelPlan(append(slices.Clone(ct.C0.Moduli), s.params.Chain.Special...), ct.Level-1)
		if err != nil {
			t.Fatal(err)
		}
		two, err := s.ev.levelPlan(ct.C0.Moduli, ct.Level-1)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.params.Chain.Special) != c.s || len(one.sd.ShedPos) != c.s+c.d || len(two.sd.ShedPos) != c.d {
			t.Fatalf("%v w=%d rrns=%v: %d special primes, the divisions shed %d and %d moduli; pinned S=%d, D=%d",
				c.scheme, c.w, c.rrns, len(s.params.Chain.Special), len(one.sd.ShedPos), len(two.sd.ShedPos), c.s, c.d)
		}
		if allow := 0.5*math.Log2(float64(c.s+c.d)/float64(c.d)) + 0.1; zm > z2+allow {
			t.Errorf("%v w=%d rrns=%v: zeroed-slot error 2^%.2f, two-step 2^%.2f, allowance %.2f bit", c.scheme, c.w, c.rrns, zm, z2, allow)
		}
	}
}

// TestRotateHoistedMulRescaleRefusals: a plaintext at another level,
// one without the special rows, and a level-0 input are refused before
// any work.
func TestRotateHoistedMulRescaleRefusals(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 9, 3, []int{1})
	rng := rand.New(rand.NewPCG(503, 504))
	ct := s.encryptValues(randomValues(s.params.Slots(), rng))
	mask := randomValues(s.params.Slots(), rng)
	live := &Plaintext{
		Value: s.enc.MustEncode(mask, s.params.DefaultScale(ct.Level), s.params.LevelModuli(ct.Level)),
		Level: ct.Level, Scale: s.params.DefaultScale(ct.Level),
	}
	bottom := s.ev.MustAdjustTo(ct, 0)
	for _, c := range []struct {
		name string
		ct   *Ciphertext
		pt   *Plaintext
	}{
		{"plaintext one level down", ct, s.encodeExt(mask, ct.Level-1)},
		{"plaintext without special rows", ct, live},
		{"input at level 0", bottom, s.encodeExt(mask, 0)},
	} {
		if _, err := s.ev.RotateHoistedMulRescale(c.ct, []int{1}, c.pt); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
