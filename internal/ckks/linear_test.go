package ckks

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"

	"bitpacker/internal/core"
	"bitpacker/internal/fherr"
)

func TestLinearTransformIdentity(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 9, 8, nil)
	slots := s.params.Slots()
	id := map[int][]complex128{0: ones(slots)}
	lt, err := NewLinearTransformFromDiags(s.params, s.enc, id, s.params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(61, 62))
	vals := randomValues(slots, rng)
	ct := s.encryptValues(vals)
	out := s.ev.MustRescale(s.ev.MustApplyLinearTransform(ct, lt))
	got := s.decrypt(out)
	if e := maxErr(got, vals); e > 1e-5 {
		t.Fatalf("identity transform error %g", e)
	}
	// Diagonal 0 alone is a plaintext product, fused and staged: no
	// keyswitch, and no division of an exact multiple of P.
	pt := &Plaintext{Value: s.enc.MustEncode(ones(slots), lt.Scale, s.params.LevelModuli(ct.Level)), Level: ct.Level, Scale: lt.Scale}
	want := marshalCt(t, s, s.ev.MustMulPlain(ct, pt))
	for _, fused := range []bool{true, false} {
		if got := withFused(s, fused, func() *Ciphertext { return s.ev.MustApplyLinearTransform(ct, lt) }); !bytes.Equal(marshalCt(t, s, got), want) {
			t.Errorf("fused=%v: identity transform differs from MulPlain by the diagonal", fused)
		}
	}
}

func ones(n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func TestLinearTransformDenseMatrix(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		const dim = 8
		rots := []int{1, 2, 3, 4, 5, 6, 7}
		s := newTestSetup(t, scheme, 2, 40, 61, 9, 8, rots)
		rng := rand.New(rand.NewPCG(63, 64))

		mat := make([][]complex128, dim)
		for i := range mat {
			mat[i] = make([]complex128, dim)
			for j := range mat[i] {
				mat[i][j] = complex(2*rng.Float64()-1, 0)
			}
		}
		lt, err := NewLinearTransform(s.params, s.enc, mat, s.params.MaxLevel())
		if err != nil {
			t.Fatal(err)
		}

		vec := make([]complex128, dim)
		for i := range vec {
			vec[i] = complex(2*rng.Float64()-1, 0)
		}
		replicated := ReplicateBlocks(vec, dim, s.params.Slots())
		ct := s.encryptValues(replicated)
		out := s.ev.MustRescale(s.ev.MustApplyLinearTransform(ct, lt))
		got := s.decrypt(out)

		for i := 0; i < dim; i++ {
			want := complex(0, 0)
			for j := 0; j < dim; j++ {
				want += mat[i][j] * vec[j]
			}
			if e := cmplx.Abs(got[i] - want); e > 1e-4 {
				t.Fatalf("%v: row %d: got %v want %v (err %g)", scheme, i, got[i], want, e)
			}
		}
	}
}

func TestLinearTransformBanded(t *testing.T) {
	// A banded transform (3 diagonals) mimicking a 1-D convolution.
	rots := []int{1, 511} // +1 and -1 (mod slots)
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 10, 8, rots)
	slots := s.params.Slots()
	k := []complex128{0.25, 0.5, 0.25}
	diags := map[int][]complex128{
		-1: constSlice(k[0], slots),
		0:  constSlice(k[1], slots),
		1:  constSlice(k[2], slots),
	}
	lt, err := NewLinearTransformFromDiags(s.params, s.enc, diags, s.params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	if len(lt.Rotations()) != 2 {
		t.Fatalf("expected 2 rotation keys, got %v", lt.Rotations())
	}
	rng := rand.New(rand.NewPCG(65, 66))
	vals := randomValues(slots, rng)
	ct := s.encryptValues(vals)
	out := s.ev.MustRescale(s.ev.MustApplyLinearTransform(ct, lt))
	got := s.decrypt(out)
	for i := range vals {
		want := k[0]*vals[((i-1)+slots)%slots] + k[1]*vals[i] + k[2]*vals[(i+1)%slots]
		if e := cmplx.Abs(got[i] - want); e > 1e-4 {
			t.Fatalf("slot %d: err %g", i, e)
		}
	}
}

func constSlice(v complex128, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestLinearTransformErrors(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 9, 8, nil)
	if _, err := NewLinearTransform(s.params, s.enc, nil, 1); err == nil {
		t.Fatal("empty matrix accepted")
	}
	big := make([][]complex128, s.params.Slots()*2)
	for i := range big {
		big[i] = make([]complex128, s.params.Slots()*2)
	}
	if _, err := NewLinearTransform(s.params, s.enc, big, 1); err == nil {
		t.Fatal("oversized matrix accepted")
	}
	mat3 := [][]complex128{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	if _, err := NewLinearTransform(s.params, s.enc, mat3, 1); err == nil {
		t.Fatal("non-divisor dim accepted")
	}
	if _, err := NewLinearTransformFromDiags(s.params, s.enc, nil, 99); err == nil {
		t.Fatal("bad level accepted")
	}
	// Three indices naming rotation 1: before they were refused, whichever
	// the map yielded last won, and the transform's values changed from
	// build to build.
	slots := s.params.Slots()
	aliased := map[int][]complex128{1: constSlice(1, slots), 1 + slots: constSlice(2, slots), 1 - slots: constSlice(1, slots)}
	for i := 0; i < 20; i++ {
		_, err := NewLinearTransformFromDiags(s.params, s.enc, aliased, 1)
		if !errors.Is(err, fherr.ErrInvalidParams) {
			t.Fatalf("aliased diagonal indices: got %v, want ErrInvalidParams", err)
		}
		if want := fmt.Sprintf("diagonals %d and 1 ", 1-slots); !strings.Contains(err.Error(), want) {
			t.Fatalf("aliased diagonal indices: %q does not name both (%q)", err, want)
		}
	}
}

// parentHoistedApply is the per-diagonal hoisted evaluator the unfactored
// case had to itself before ApplyLinearTransform had one body, kept here
// (with the un-rotated encoding it read) as the value oracle: one
// decomposition shared by the rotations (RotateHoisted, a ModDown each),
// then MulPlain and add per diagonal in ascending order.
func parentHoistedApply(t *testing.T, s *testSetup, ct *Ciphertext, diags map[int][]complex128, level int) *Ciphertext {
	t.Helper()
	ev, scale := s.ev, s.params.DefaultScale(level)
	var ds []int
	for d := range diags {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	terms := ev.MustRotateHoisted(ct, ds)
	var acc *Ciphertext
	for i, d := range ds {
		padded := make([]complex128, s.params.Slots())
		copy(padded, diags[d])
		pt := &Plaintext{Value: s.enc.MustEncode(padded, scale, s.params.LevelModuli(level)), Level: level, Scale: scale}
		pt.Value.NTT()
		term := ev.MustMulPlain(terms[i], pt)
		if acc == nil {
			acc = term
		} else {
			acc.C0.Add(acc.C0, term.C0)
			acc.C1.Add(acc.C1, term.C1)
		}
	}
	acc.NoiseBits = ev.transformNoise(ct, scale, len(ds), ev.nm.KeySwitchBits())
	acc.seal()
	return acc
}

// marshalCt is the encoding of ct settled: the bytes it would travel as.
func marshalCt(t *testing.T, s *testSetup, ct *Ciphertext) []byte {
	t.Helper()
	b, err := s.settled(ct).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestUnfactoredTransformMatchesParentHoisted: a transform no split
// improves (N1 == Slots) goes through the one BSGS body as a single giant
// step. Its baby rotations now stay in the extended basis and one ModDown
// ends the apply, where the parent's hoisted evaluator (parentHoistedApply)
// divided every rotation by P before its product, so the words differ
// except for the identity. The output must keep the parent's level,
// scale and moduli and decrypt as well: inside the tracked bound and no
// more than 0.5 bit worse against the exact product (checkAgainstParent),
// fused and staged.
func TestUnfactoredTransformMatchesParentHoisted(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		for _, w := range []int{28, 61} {
			s := newTestSetup(t, scheme, 2, 40, w, 9, 8, []int{1, 3, -1})
			slots := s.params.Slots()
			level := s.params.MaxLevel()
			vals := randomValues(slots, rand.New(rand.NewPCG(221, uint64(w))))
			ct := s.encryptValues(vals)
			for name, diags := range map[string]map[int][]complex128{
				"identity": {0: ones(slots)},
				"banded":   {slots - 1: constSlice(0.25, slots), 0: constSlice(0.5, slots), 1: constSlice(0.25, slots)},
				"sparse":   {0: constSlice(0.5, slots), 1: constSlice(0.25, slots), 3: constSlice(-0.25, slots)},
			} {
				lt, err := NewLinearTransformFromDiags(s.params, s.enc, diags, level)
				if err != nil {
					t.Fatal(err)
				}
				if lt.N1 != lt.Slots || len(lt.giants) != 1 {
					t.Fatalf("%s: expected an unfactored transform, N1=%d with %d giants", name, lt.N1, len(lt.giants))
				}
				want := make([]complex128, slots)
				for d, diag := range diags {
					for i := range want {
						want[i] += diag[i] * vals[(i+d)%slots]
					}
				}
				for _, fused := range []bool{true, false} {
					tag := fmt.Sprintf("%v w=%d %s fused=%v", scheme, w, name, fused)
					got := withFused(s, fused, func() *Ciphertext { return s.ev.MustApplyLinearTransform(ct, lt) })
					parent := withFused(s, fused, func() *Ciphertext { return parentHoistedApply(t, s, ct, diags, level) })
					checkAgainstParent(t, tag, s, got, parent, want)
				}
			}
		}
	}
}

// checkAgainstParent is the value check that replaces a byte pin when a
// rounding change moves the words: got must have parent's level, scale
// and moduli, decrypt to want within its tracked bound (16·2^-budget, the
// root fuzz target's allowance for the worst slot), and be no more than
// 0.5 bit worse than parent against want.
func checkAgainstParent(t *testing.T, tag string, s *testSetup, got, parent *Ciphertext, want []complex128) {
	t.Helper()
	got = s.settled(got)
	if got.Level != parent.Level || got.Scale.Cmp(parent.Scale) != 0 || !slices.Equal(got.C0.Moduli, parent.C0.Moduli) {
		t.Fatalf("%s: level %d scale 2^%.3f, parent body %d / 2^%.3f (or moduli differ)", tag,
			got.Level, core.RatLog2(got.Scale), parent.Level, core.RatLog2(parent.Scale))
	}
	errOf := func(ct *Ciphertext) float64 {
		return maxErr(s.decrypt(ct)[:len(want)], want)
	}
	e, eParent := errOf(got), errOf(parent)
	if bound := 16 * math.Exp2(-s.ev.NoiseBudget(got)); e > bound {
		t.Errorf("%s: error 2^%.2f above the tracked bound 2^%.2f", tag, math.Log2(e), math.Log2(bound))
	}
	if math.Log2(e) > math.Log2(eParent)+0.5 {
		t.Errorf("%s: error 2^%.2f, parent body's 2^%.2f: more than 0.5 bit worse", tag, math.Log2(e), math.Log2(eParent))
	}
}

// TestDenseTransformMatchesParentBytes: the factored path's output moves
// only when its arithmetic does. The digests are SHA-256 of
// Rescale(ApplyLinearTransform(ct, lt)) for denseTestTransform(16, 81),
// re-recorded when the apply went double-hoisted: baby rotations in the
// extended basis, a ModDown only for each giant's C1 and one to close,
// n1 chosen by cost (the first pins, from before the single stored form
// at 1f9a2a3, held until then), and again when every division started
// rounding (rns.ExactDiv), after the math/big references of the division
// (internal/rns TestExactDivRoundsAgainstBig, internal/ring
// TestEntryPointsMatchIndependentReference) passed, and once more when
// the apply's output began to pend and its rescale to divide once, after
// TestApplyRescaleDividesOnce held the new words within the divisions'
// rounding of the old.
//
// The other rows pin the keyswitching ops on the same input, recorded
// before every rotation became the one extended-basis route, and read
// through the Settle that precedes a marshal: a ModDown reads only the
// shed rows, which are zero in P·a, so carrying P·φ(c0) to the division
// instead of adding φ(c0) after it moves no word.
func TestDenseTransformMatchesParentBytes(t *testing.T) {
	const dim = 16
	rots := make([]int, 0, dim-1)
	for r := 1; r < dim; r++ {
		rots = append(rots, r)
	}
	for _, c := range []struct {
		scheme core.Scheme
		w      int
		sha    map[string]string
	}{
		{core.BitPacker, 28, map[string]string{
			"ApplyLinearTransform":    "8edc1fcd3185786ce6b84dc476b154911b7a3fd0d18393afa059b77b7f11354f",
			"MulRelin":                "9cf152707edbc9bd8d6c99c0f39bd6c3fdd7c8ca02940983f648802915aef95a",
			"MulRescale":              "9ba2c6ccb3a87ea55e05932a57e77ffcf9aff10e48768a425e002bb77137bc35",
			"RotateHoisted":           "8448967c33d1278c32caa44df70c673ac268e7a4564bd5105092bc90c9895021",
			"RotateHoistedMulRescale": "630ca8f0d7f9e9da6d08d6a8a87520f8e7d6f2a7536495d4504483aa8d7f61aa",
			"InnerSum":                "7a401fb0dc1913284d6b5af164b067619345c3698445ba0d9d155ae21e2aa43a",
		}},
		{core.BitPacker, 61, map[string]string{
			"ApplyLinearTransform":    "2c66249726fc3130bf8228fc4884119035a3d49077bc16c75b171a8fc681b8f6",
			"MulRelin":                "537021d591c0b7a159d34939672cc565c451994a2ae1f324a244ea01aff8d042",
			"MulRescale":              "086410c6e16f5c58747eccc77ca9220ec86db55eecc7fc1b1e5a33a08821d056",
			"RotateHoisted":           "d335864fc323fe25b7d274fac43d7752928f32550bbe4ec18a3a4116454b42a6",
			"RotateHoistedMulRescale": "856bcb4236afc9e8c9ef5fbff09693f5d4b27aa3ccf837fd8adde44ee3e0b143",
			"InnerSum":                "53948f1d7913a6e6b4db92ce3de9202a1dae6a094cf0ad07792f9cef690985a8",
		}},
		{core.RNSCKKS, 28, map[string]string{
			"ApplyLinearTransform":    "57152df77d2fddb352ac1699a8440e3b8244bc938f40e0966185a96d4be42333",
			"MulRelin":                "70b2ec1904701fde19a14ee5297586304b36d8c05c2f6a2ae797b23d0666bc8f",
			"MulRescale":              "0b903bf60f302d3f010f89d91bdd420144f1a28a7edcbbc3c3e55b263df5bc65",
			"RotateHoisted":           "06f92fb9191f79bcf73b4c0f62de401700b4beb37f804f1e43a5d6d405990c3f",
			"RotateHoistedMulRescale": "e6786b81709c1bcdb130356e4d1a9820401ea7899f277d3e02ecc75040aa1bfd",
			"InnerSum":                "723ad7442b073ae6163ef9b59ab43ade0000b9a121be74ab4b68aca0afbd605c",
		}},
		{core.RNSCKKS, 61, map[string]string{
			"ApplyLinearTransform":    "edf8cb7437b2a95eadadfd237cfea7955d0aa2b7818794bfa66cb3d83fda26a3",
			"MulRelin":                "0f1793f2dec1cf6e0b95df2ff67863b9fd644dd4215323422753f47421bdccd9",
			"MulRescale":              "247da0517a0a2a3812df815ec63bc3c61a48d6b6800786e0909cb753f911c731",
			"RotateHoisted":           "2fbb053316e908cdc39f9e99d88c2b6eaa3332f3356a5fd9ca48dd0bbe9d068e",
			"RotateHoistedMulRescale": "acd266cb9bda74d714427b91eef9f9e4b922af191166ff468d907801970f7853",
			"InnerSum":                "fbdfee485a15f5e1671a51fa5c9bc4aff360d0908ca2fbb3415a0565d8622282",
		}},
	} {
		s := newTestSetup(t, c.scheme, 2, 40, c.w, 9, 8, rots)
		lt, ct, _ := denseTestTransform(t, s, dim, 81)
		mask := s.encodeExt(extractionMask(s.params.Slots()), ct.Level)
		ev := s.ev
		for op, run := range map[string]func() []*Ciphertext{
			"ApplyLinearTransform": func() []*Ciphertext {
				return []*Ciphertext{ev.MustRescale(ev.MustApplyLinearTransform(ct, lt))}
			},
			"MulRelin":                func() []*Ciphertext { return []*Ciphertext{ev.MustMulRelin(ct, ct)} },
			"MulRescale":              func() []*Ciphertext { return []*Ciphertext{ev.MustMulRescale(ct, ct)} },
			"RotateHoisted":           func() []*Ciphertext { return ev.MustRotateHoisted(ct, []int{1, 5}) },
			"RotateHoistedMulRescale": func() []*Ciphertext { return ev.MustRotateHoistedMulRescale(ct, []int{1, 0}, mask) },
			"InnerSum":                func() []*Ciphertext { return []*Ciphertext{innerSum(t, s, ct, 8)} },
		} {
			h := sha256.New()
			for _, out := range run() {
				h.Write(marshalCt(t, s, out))
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.sha[op] {
				t.Errorf("%v w=%d: %s output digest %s, recorded %s", c.scheme, c.w, op, got, c.sha[op])
			}
		}
	}
}

// TestApplyRescaleDividesOnce is the value check behind the moved
// ApplyLinearTransform digests above: the apply's output pends, so its
// rescale sheds P with the retired moduli in one division, where the
// recorded digests divided by P first (Settle) and then rescaled. The two
// must land at the same level, scale, moduli and noise estimate, and
// their decryptions, composed with math/big (phaseDistance), may differ
// per coefficient by no more than the divisions' rounding: each rounded
// division is within ⌈k/2⌉ + ½ of the exact quotient for k shed moduli
// (internal/rns TestExactDivRoundsAgainstBig), so a component differs
// by at most B = S + D + 3 for S special and D retired moduli, and a
// decryption by B·(1 + ‖s‖₁).
func TestApplyRescaleDividesOnce(t *testing.T) {
	for _, c := range []struct {
		scheme core.Scheme
		w      int
	}{{core.BitPacker, 28}, {core.BitPacker, 61}, {core.RNSCKKS, 28}, {core.RNSCKKS, 61}} {
		tag := fmt.Sprintf("%v w=%d", c.scheme, c.w)
		s := newTestSetup(t, c.scheme, 2, 40, c.w, 9, 8, []int{1, 2, 3, 4, 5, 6, 7, 8, 12})
		lt, ct, _ := denseTestTransform(t, s, 16, 81)
		applied := s.ev.MustApplyLinearTransform(ct, lt)
		once := s.ev.MustRescale(applied)
		twice := s.ev.MustRescale(s.settled(applied))
		if once.Level != twice.Level || once.Scale.Cmp(twice.Scale) != 0 ||
			!slices.Equal(once.C0.Moduli, twice.C0.Moduli) || math.Abs(once.NoiseBits-twice.NoiseBits) > 1e-9 {
			t.Fatalf("%s: one division lands at level %d scale 2^%.3f noise %.3f, two at %d 2^%.3f %.3f", tag,
				once.Level, core.RatLog2(once.Scale), once.NoiseBits, twice.Level, core.RatLog2(twice.Scale), twice.NoiseBits)
		}
		pl, err := s.ev.levelPlan(ct.C0.Moduli, ct.Level-1)
		if err != nil {
			t.Fatal(err)
		}
		retired := len(ct.C0.Moduli) + len(pl.up) - len(once.C0.Moduli)
		sk := s.sk.S.RestrictView(ct.C0.Moduli[:1]).Copy()
		sk.INTT()
		weight := 0
		for _, v := range sk.Coeffs[0] {
			if v != 0 {
				weight++
			}
		}
		bound := float64((len(s.params.Chain.Special) + retired + 3) * (1 + weight))
		scale, _ := once.Scale.Float64()
		d := scale * phaseDistance(s, once, twice)
		t.Logf("%s: decryptions differ by at most %.0f per coefficient (bound %.0f)", tag, d, bound)
		if d > bound {
			t.Errorf("%s: one division's decryption is %.0f from two divisions', above the rounding bound %.0f", tag, d, bound)
		}
	}
}

func chebyshevRef(coeffs []float64, x float64) float64 {
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

func TestEvalChebyshev(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		s := newTestSetup(t, scheme, 6, 40, 61, 10, 8, nil)
		rng := rand.New(rand.NewPCG(67, 68))
		n := s.params.Slots()
		vals := make([]complex128, n)
		for i := range vals {
			vals[i] = complex(2*rng.Float64()-1, 0)
		}
		ct := s.encryptValues(vals)
		// A degree-5 series with a zero coefficient in the middle.
		coeffs := []float64{0.1, 0.8, -0.3, 0, 0.12, -0.05}
		out, err := s.ev.EvalChebyshev(s.enc, ct, coeffs)
		if err != nil {
			t.Fatal(err)
		}
		got := s.decrypt(out)
		for i := range vals {
			want := chebyshevRef(coeffs, real(vals[i]))
			if e := math.Abs(real(got[i]) - want); e > 1e-3 {
				t.Fatalf("%v: slot %d: got %v want %v", scheme, i, real(got[i]), want)
			}
		}
	}
}

func TestEvalChebyshevEdgeCases(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 3, 40, 61, 9, 8, nil)
	ct := s.encryptValues([]complex128{0.5})
	// Degree 0: constant.
	out, err := s.ev.EvalChebyshev(s.enc, ct, []float64{0.75})
	if err != nil {
		t.Fatal(err)
	}
	got := s.decrypt(out)
	if math.Abs(real(got[0])-0.75) > 1e-5 {
		t.Fatalf("constant series: %v", real(got[0]))
	}
	// Degree 1.
	out, err = s.ev.EvalChebyshev(s.enc, ct, []float64{0.1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	got = s.decrypt(out)
	if math.Abs(real(got[0])-0.35) > 1e-4 {
		t.Fatalf("degree-1 series: %v", real(got[0]))
	}
	// Too deep for the chain.
	deep := make([]float64, 20)
	deep[19] = 1
	if _, err := s.ev.EvalChebyshev(s.enc, ct, deep); err == nil {
		t.Fatal("too-deep series accepted")
	}
	if _, err := s.ev.EvalChebyshev(s.enc, ct, nil); err == nil {
		t.Fatal("empty series accepted")
	}
}

// ApplyLinearTransformNaive is the reference per-diagonal evaluation,
// kept for differential testing: Σ_d MulPlain(Rotate(ct, d), encode(diag_d))
// straight from raw diagonals (as NewLinearTransformFromDiags takes them)
// at the level's canonical scale — one full keyswitch per nonzero d, and
// nothing shared with the LinearTransform it is compared against.
func (ev *Evaluator) ApplyLinearTransformNaive(enc *Encoder, ct *Ciphertext, diags map[int][]complex128, level int) (*Ciphertext, error) {
	if err := ev.begin("ApplyLinearTransformNaive", ct); err != nil {
		return nil, err
	}
	if err := checkTransformLevel("ApplyLinearTransformNaive", ct, level); err != nil {
		return nil, err
	}
	scale := ev.params.DefaultScale(level)
	ds := make([]int, 0, len(diags))
	for d := range diags {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	var acc *Ciphertext
	for _, d := range ds {
		val, err := enc.Encode(diags[d], scale, ev.params.LevelModuli(level))
		if err != nil {
			return nil, err
		}
		term, err := ev.Rotate(ct, d)
		if err != nil {
			return nil, err
		}
		term, err = ev.MulPlain(term, &Plaintext{Value: val, Level: level, Scale: scale})
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = term
		} else {
			acc.C0.Add(acc.C0, term.C0)
			acc.C1.Add(acc.C1, term.C1)
		}
	}
	if acc == nil {
		return ev.zeroTransformResult(ct, scale), nil
	}
	// Every rotation divides by P before its product: the whole keyswitch
	// noise, rounding included, reaches each term.
	acc.NoiseBits = ev.transformNoise(ct, scale, len(ds), ev.nm.KeySwitchBits())
	acc.seal()
	return acc, nil
}

// storedWords counts the words a transform's diagonals hold, and the
// words the same diagonals take at dense rows.
func storedWords(lt *LinearTransform, n int) (words, dense int) {
	for _, g := range lt.giants {
		for _, term := range g.terms {
			for _, row := range term.pt.Coeffs {
				words += len(row)
				dense += n
			}
		}
	}
	return words, dense
}

// transformParams builds a chain without keys: storage needs only the
// parameters and an encoder.
func transformParams(t *testing.T, scheme core.Scheme, levels int, qMin float64, w, logN int) (*Parameters, *Encoder) {
	t.Helper()
	targets := make([]float64, levels+1)
	for i := range targets {
		targets[i] = 40
	}
	prog := core.ProgramSpec{MaxLevel: levels, TargetScaleBits: targets, QMinBits: qMin}
	params, err := BuildParameters(scheme, prog, core.SecuritySpec{LogN: logN}, core.HWSpec{WordBits: w}, 3, 3.2)
	if err != nil {
		t.Fatal(err)
	}
	return params, NewEncoder(params)
}

// TestTransformStoresRunsOfPeriodicDiagonals: a diagonal of slot period
// p stores each row as one word per run of slots/p evaluation points,
// N·p/slots words, and an aperiodic one stores N. A matrix of side dim
// replicated across the slot blocks has period dim; sides up to 32 are
// built by NewLinearTransform from a random dense matrix, and slots/2
// and slots from three replicated random diagonals of that side (0, 1
// and dim-1: NewLinearTransform's own extraction, without a dense
// matrix of gigabytes). The bootstrapper's CoeffToSlot and SlotToCoeff
// matrices span all slots and keep dense rows, and the benchmark's
// inference transforms (two 32x32 at the top level and at L3, bp28 at
// LogN 13) shrink from ~62 MB to under 1 MB.
func TestTransformStoresRunsOfPeriodicDiagonals(t *testing.T) {
	rng := rand.New(rand.NewPCG(48, 13))
	check := func(tag string, lt *LinearTransform, want int) {
		t.Helper()
		for _, g := range lt.giants {
			for _, term := range g.terms {
				for _, row := range term.pt.Coeffs {
					if len(row) != want {
						t.Fatalf("%s: a diagonal row holds %d words, want %d", tag, len(row), want)
					}
				}
			}
		}
	}
	for logN := 10; logN <= 13; logN++ {
		params, enc := transformParams(t, core.BitPacker, 3, 60, 28, logN)
		n, slots := params.N(), params.Slots()
		for _, dim := range []int{2, 8, 16, 32, slots / 2, slots} {
			tag := fmt.Sprintf("LogN %d dim %d", logN, dim)
			var lt *LinearTransform
			var err error
			if dim <= 32 {
				lt, err = NewLinearTransform(params, enc, denseTestMatrix(rng, dim), params.MaxLevel())
			} else {
				diags := map[int][]complex128{}
				for _, d := range []int{0, 1, dim - 1} {
					diags[d] = ReplicateBlocks(randomValues(dim, rng), dim, slots)
				}
				lt, err = NewLinearTransformFromDiags(params, enc, diags, params.MaxLevel())
			}
			if err != nil {
				t.Fatal(err)
			}
			check(tag, lt, n*dim/slots)
		}
		lt, err := NewLinearTransformFromDiags(params, enc, map[int][]complex128{3: randomValues(slots, rng)}, params.MaxLevel())
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("LogN %d random diagonal", logN), lt, n)
	}

	params, enc := transformParams(t, core.BitPacker, 3, 60, 61, 7)
	dft, err := NewHomDFT(params, enc, params.MaxLevel(), params.MaxLevel()-1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("CoeffToSlot", dft.CtS, params.N())
	check("SlotToCoeff", dft.StC, params.N())

	params, enc = transformParams(t, core.BitPacker, 8, 60, 28, 13)
	total, dense := 0, 0
	for _, level := range []int{params.MaxLevel(), 3} {
		lt, err := NewLinearTransform(params, enc, denseTestMatrix(rng, 32), level)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("infer L%d", level), lt, params.N()*32/params.Slots())
		w, d := storedWords(lt, params.N())
		total, dense = total+8*w, dense+8*d
	}
	if total > 1e6 {
		t.Errorf("infer shape: diagonals hold %.2f MB, want at most 1 MB", float64(total)/1e6)
	}
	t.Logf("infer shape: diagonals hold %.2f MB, %.1f MB at dense rows", float64(total)/1e6, float64(dense)/1e6)
}
