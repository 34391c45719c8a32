package ckks

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
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
	got := s.dec.MustDecryptAndDecode(out, s.enc)
	if e := maxErr(got, vals); e > 1e-5 {
		t.Fatalf("identity transform error %g", e)
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
		got := s.dec.MustDecryptAndDecode(out, s.enc)

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
	got := s.dec.MustDecryptAndDecode(out, s.enc)
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
// (with the un-rotated encoding it read) as the byte-level oracle: one
// decomposition, then rotate, MulPlain and add per diagonal in ascending
// order.
func parentHoistedApply(t *testing.T, s *testSetup, ct *Ciphertext, diags map[int][]complex128, level int) *Ciphertext {
	t.Helper()
	ev, scale := s.ev, s.params.DefaultScale(level)
	var ds []int
	for d := range diags {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	hd, err := ev.DecomposeModUp(ct)
	if err != nil {
		t.Fatal(err)
	}
	defer hd.Free(s.params.Ctx)
	var acc *Ciphertext
	for _, d := range ds {
		padded := make([]complex128, s.params.Slots())
		copy(padded, diags[d])
		pt := &Plaintext{Value: s.enc.MustEncode(padded, scale, s.params.LevelModuli(level)), Level: level, Scale: scale}
		pt.Value.NTT()
		term := ct
		if d != 0 {
			if term, err = ev.rotateHoisted(hd, d); err != nil {
				t.Fatal(err)
			}
		}
		term = ev.MustMulPlain(term, pt)
		if acc == nil {
			acc = term
		} else {
			acc.C0.Add(acc.C0, term.C0)
			acc.C1.Add(acc.C1, term.C1)
		}
	}
	acc.NoiseBits = ev.transformNoise(ct, scale, len(ds))
	acc.seal()
	return acc
}

func marshalCt(t *testing.T, ct *Ciphertext) []byte {
	t.Helper()
	b, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestUnfactoredTransformMatchesParentHoisted: a transform no split
// improves (N1 == Slots) goes through the one BSGS body as a single giant
// step, and must come out byte for byte what the dedicated hoisted
// evaluator produced.
func TestUnfactoredTransformMatchesParentHoisted(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		for _, w := range []int{28, 61} {
			s := newTestSetup(t, scheme, 2, 40, w, 9, 8, []int{1, 3, -1})
			slots := s.params.Slots()
			level := s.params.MaxLevel()
			ct := s.encryptValues(randomValues(slots, rand.New(rand.NewPCG(221, uint64(w)))))
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
				for _, workers := range []int{1, 4} {
					for _, fused := range []bool{true, false} {
						got := runWithWorkers(t, workers, func() *Ciphertext {
							return withFused(s, fused, func() *Ciphertext { return s.ev.MustApplyLinearTransform(ct, lt) })
						})
						want := runWithWorkers(t, workers, func() *Ciphertext {
							return withFused(s, fused, func() *Ciphertext { return parentHoistedApply(t, s, ct, diags, level) })
						})
						if !bytes.Equal(marshalCt(t, got), marshalCt(t, want)) {
							t.Fatalf("%v w=%d %s workers=%d fused=%v: one-body output differs from the parent's hoisted evaluator",
								scheme, w, name, workers, fused)
						}
					}
				}
			}
		}
	}
}

// TestDenseTransformMatchesParentBytes: the factored path's output did
// not move when the stored form changed. The digests are SHA-256 of
// Rescale(ApplyLinearTransform(ct, lt)) for denseTestTransform(16, 81),
// recorded at the commit before the single stored form (1f9a2a3).
func TestDenseTransformMatchesParentBytes(t *testing.T) {
	const dim = 16
	rots := make([]int, 0, dim-1)
	for r := 1; r < dim; r++ {
		rots = append(rots, r)
	}
	for _, c := range []struct {
		scheme core.Scheme
		w      int
		sha    string
	}{
		{core.BitPacker, 28, "e7198dbf52f3f5a3500a6c6b966b61f6bedd126baef10f58fb5786ebda5a9840"},
		{core.BitPacker, 61, "d659eec9c31b1184df254eff9caa6177016975c8bad8e34a6e4b5c50113f5c03"},
		{core.RNSCKKS, 28, "242037f4e14346b0c501111351c710e2d5a3dd1e54ddc8cc02c77f256ccd031f"},
		{core.RNSCKKS, 61, "36f990616a21a30bb06819698dd2efd5bd9d707049b02550b1c84044a7f5a111"},
	} {
		s := newTestSetup(t, c.scheme, 2, 40, c.w, 9, 8, rots)
		lt, ct, _ := denseTestTransform(t, s, dim, 81)
		out := s.ev.MustRescale(s.ev.MustApplyLinearTransform(ct, lt))
		if got := fmt.Sprintf("%x", sha256.Sum256(marshalCt(t, out))); got != c.sha {
			t.Errorf("%v w=%d: dense transform output digest %s, parent's %s", c.scheme, c.w, got, c.sha)
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
		got := s.dec.MustDecryptAndDecode(out, s.enc)
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
	got := s.dec.MustDecryptAndDecode(out, s.enc)
	if math.Abs(real(got[0])-0.75) > 1e-5 {
		t.Fatalf("constant series: %v", real(got[0]))
	}
	// Degree 1.
	out, err = s.ev.EvalChebyshev(s.enc, ct, []float64{0.1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	got = s.dec.MustDecryptAndDecode(out, s.enc)
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
