package ckks

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"bitpacker/internal/core"
	"bitpacker/internal/ring"
)

// Differential coverage for the hoisted keyswitching paths: the one
// rotation route (Rotate and Conjugate are its one-step case), BSGS vs.
// naive linear transforms, and Paterson–Stockmeyer vs.
// three-term-recurrence Chebyshev evaluation.
//
// Where two paths round differently (BSGS against the per-diagonal
// reference, which divides every rotation), the tests assert matching
// level/scale plus decryption agreement, and separately that each path is
// bit-identical across worker counts.

func TestRotateZeroStepNoKeySwitch(t *testing.T) {
	// The setup deliberately has no rotation keys: if the zero-step
	// shortcut regressed into a keyswitch, Rotate would panic on the
	// missing Galois key.
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 9, 8, nil)
	rng := rand.New(rand.NewPCG(71, 72))
	vals := randomValues(s.params.Slots(), rng)
	ct := s.encryptValues(vals)
	slots := s.params.Slots()
	for _, st := range []int{0, slots, -slots, 3 * slots} {
		out := s.ev.MustRotate(ct, st)
		if !ctEqual(out, ct) {
			t.Fatalf("steps=%d: zero rotation altered the ciphertext", st)
		}
		if out == ct || out.C0 == ct.C0 {
			t.Fatalf("steps=%d: zero rotation must return a copy", st)
		}
	}
}

// TestRotateHoistedMatchesRotate: every hoisted rotation and a
// conjugation decrypt to the rotated (conjugated) slots. Their bytes are
// TestRotateIsOneStepHoisted's.
func TestRotateHoistedMatchesRotate(t *testing.T) {
	steps := []int{1, 2, 5}
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		s := newTestSetup(t, scheme, 3, 40, 61, 9, 8, steps)
		rng := rand.New(rand.NewPCG(73, 74))
		slots := s.params.Slots()
		vals := randomValues(slots, rng)
		ct := s.encryptValues(vals)

		hoisted := s.ev.MustRotateHoisted(ct, steps)
		if len(hoisted) != len(steps) {
			t.Fatalf("%v: got %d results for %d steps", scheme, len(hoisted), len(steps))
		}
		for i, st := range steps {
			if hoisted[i].Level != ct.Level || hoisted[i].Scale.Cmp(ct.Scale) != 0 {
				t.Fatalf("%v steps=%d: level/scale moved", scheme, st)
			}
			got := s.decrypt(hoisted[i])
			for j := range got {
				if e := cmplx.Abs(got[j] - vals[(j+st)%slots]); e > 1e-5 {
					t.Fatalf("%v steps=%d slot %d: hoisted err %g", scheme, st, j, e)
				}
			}
		}
		got := s.decrypt(s.ev.MustConjugate(ct))
		for j := range got {
			if e := cmplx.Abs(got[j] - cmplx.Conj(vals[j])); e > 1e-5 {
				t.Fatalf("%v: conjugate slot %d: err %g", scheme, j, e)
			}
		}
	}
}

// TestRotateIsOneStepHoisted: Rotate and Conjugate are the one-step case
// of the hoisted rotation — byte-equal to RotateHoisted(ct, {k})[0] and
// to the hoisted route over the conjugation element — fused and staged,
// at workers 1 and 4, on both schemes at 28- and 61-bit words.
func TestRotateIsOneStepHoisted(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		for _, w := range []int{28, 61} {
			s := newTestSetup(t, scheme, 3, 40, w, 9, 3, []int{1, 5, -3})
			ct := s.encryptValues(randomValues(s.params.Slots(), rand.New(rand.NewPCG(79, uint64(w)))))
			conj := ring.GaloisElementForConjugation(s.params.N())
			var want []*Ciphertext // fused at one worker
			for _, workers := range []int{1, 4} {
				for _, fused := range []bool{true, false} {
					var got []*Ciphertext
					runWithWorkers(t, workers, func() *Ciphertext {
						return withFused(s, fused, func() *Ciphertext {
							for _, k := range []int{1, 5, -3} {
								got = append(got, s.ev.MustRotate(ct, k), s.ev.MustRotateHoisted(ct, []int{k})[0])
							}
							hoisted, err := s.ev.rotations("Conjugate", ct, []uint64{conj})
							if err != nil {
								t.Fatal(err)
							}
							got = append(got, s.ev.MustConjugate(ct), hoisted[0])
							return nil
						})
					})
					tag := fmt.Sprintf("%v w=%d workers=%d fused=%v", scheme, w, workers, fused)
					for i := 0; i < len(got); i += 2 {
						if !ctEqualNoise(got[i], got[i+1]) {
							t.Errorf("%s: one-step op %d differs from its hoisted route", tag, i/2)
						}
					}
					if want == nil {
						want = got
					}
					for i := range got {
						if !ctEqualNoise(got[i], want[i]) {
							t.Errorf("%s: output %d differs from fused at one worker", tag, i)
						}
					}
				}
			}
		}
	}
}

func TestRotateHoistedDedupeNormalize(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 9, 8, []int{1})
	rng := rand.New(rand.NewPCG(75, 76))
	slots := s.params.Slots()
	vals := randomValues(slots, rng)
	ct := s.encryptValues(vals)

	// 0, 1, 1, 1, 0 after normalization: one keyswitch total, and only a
	// single Galois key (for step 1) exists, so any failure to normalize
	// would panic on a missing key.
	steps := []int{0, 1, 1 + slots, -(slots - 1), slots}
	outs := s.ev.MustRotateHoisted(ct, steps)
	if len(outs) != len(steps) {
		t.Fatalf("got %d results for %d steps", len(outs), len(steps))
	}
	for _, i := range []int{0, 4} {
		if !ctEqual(outs[i], ct) {
			t.Fatalf("steps[%d]=%d should be an identity copy", i, steps[i])
		}
	}
	for _, i := range []int{2, 3} {
		if !ctEqual(outs[i], outs[1]) {
			t.Fatalf("steps[%d]=%d should dedupe to the step-1 rotation", i, steps[i])
		}
	}
}

func TestRotateHoistedDifferentialWorkers(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		pipeline := func() *Ciphertext {
			steps := []int{1, 3, 7}
			s := newTestSetup(t, scheme, 3, 40, 61, 9, 8, steps)
			rng := rand.New(rand.NewPCG(77, 78))
			vals := randomValues(s.params.Slots(), rng)
			ct := s.encryptValues(vals)
			outs := s.ev.MustRotateHoisted(ct, steps)
			acc := outs[0]
			for _, o := range outs[1:] {
				acc = s.ev.MustAdd(acc, o)
			}
			return acc
		}
		seq := runWithWorkers(t, 1, pipeline)
		par := runWithWorkers(t, 4, pipeline)
		if !ctEqual(seq, par) {
			t.Fatalf("%v: hoisted rotations differ between worker counts", scheme)
		}
	}
}

// denseTestMatrix draws a random real dim x dim matrix.
func denseTestMatrix(rng *rand.Rand, dim int) [][]complex128 {
	mat := make([][]complex128, dim)
	for i := range mat {
		mat[i] = make([]complex128, dim)
		for j := range mat[i] {
			mat[i][j] = complex(2*rng.Float64()-1, 0)
		}
	}
	return mat
}

// denseTestTransform builds a random dim x dim matrix transform plus the
// replicated input vector and its expected product.
func denseTestTransform(t *testing.T, s *testSetup, dim int, seed uint64) (*LinearTransform, *Ciphertext, []complex128) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+1))
	mat := denseTestMatrix(rng, dim)
	lt, err := NewLinearTransform(s.params, s.enc, mat, s.params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]complex128, dim)
	for i := range vec {
		vec[i] = complex(2*rng.Float64()-1, 0)
	}
	ct := s.encryptValues(ReplicateBlocks(vec, dim, s.params.Slots()))
	want := make([]complex128, dim)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			want[i] += mat[i][j] * vec[j]
		}
	}
	return lt, ct, want
}

func TestLinearTransformBSGSMatchesNaive(t *testing.T) {
	const dim = 16
	rots := make([]int, 0, dim-1)
	for r := 1; r < dim; r++ {
		rots = append(rots, r)
	}
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		s := newTestSetup(t, scheme, 2, 40, 61, 9, 8, rots)
		lt, ct, want := denseTestTransform(t, s, dim, 81)
		if lt.N1 == lt.Slots {
			t.Fatalf("%v: BSGS not active for a dense %d-diagonal transform", scheme, dim)
		}
		naive, active := lt.KeySwitchCounts()
		if active >= naive {
			t.Fatalf("%v: BSGS costs %d keyswitches vs naive %d", scheme, active, naive)
		}

		fast := s.ev.MustRescale(s.ev.MustApplyLinearTransform(ct, lt))
		// The reference reads the matrix, not the transform under test.
		mat := denseTestMatrix(rand.New(rand.NewPCG(81, 82)), dim)
		naiveOut, err := s.ev.ApplyLinearTransformNaive(s.enc, ct, matrixDiagonals(mat, s.params.Slots()), lt.Level)
		if err != nil {
			t.Fatal(err)
		}
		ref := s.ev.MustRescale(naiveOut)
		if fast.Level != ref.Level || fast.Scale.Cmp(ref.Scale) != 0 {
			t.Fatalf("%v: BSGS level/scale mismatch vs naive", scheme)
		}
		gotF := s.decrypt(fast)
		gotR := s.decrypt(ref)
		for i := 0; i < dim; i++ {
			if e := cmplx.Abs(gotF[i] - want[i]); e > 1e-4 {
				t.Fatalf("%v row %d: BSGS err %g vs expected product", scheme, i, e)
			}
			if e := cmplx.Abs(gotF[i] - gotR[i]); e > 1e-4 {
				t.Fatalf("%v row %d: BSGS vs naive differ by %g", scheme, i, e)
			}
		}
	}
}

func TestLinearTransformBSGSDifferentialWorkers(t *testing.T) {
	const dim = 16
	rots := make([]int, 0, dim-1)
	for r := 1; r < dim; r++ {
		rots = append(rots, r)
	}
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		pipeline := func() *Ciphertext {
			s := newTestSetup(t, scheme, 2, 40, 61, 9, 8, rots)
			lt, ct, _ := denseTestTransform(t, s, dim, 83)
			return s.ev.MustRescale(s.ev.MustApplyLinearTransform(ct, lt))
		}
		seq := runWithWorkers(t, 1, pipeline)
		par := runWithWorkers(t, 4, pipeline)
		if !ctEqual(seq, par) {
			t.Fatalf("%v: BSGS transform differs between worker counts", scheme)
		}
	}
}

func TestEvalChebyshevPSMatchesNaive(t *testing.T) {
	const deg = 13
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		s := newTestSetup(t, scheme, deg+1, 40, 61, 9, 8, nil)
		rng := rand.New(rand.NewPCG(85, 86))
		vals := make([]complex128, s.params.Slots())
		for i := range vals {
			vals[i] = complex(2*rng.Float64()-1, 0)
		}
		ct := s.encryptValues(vals)

		// Dense coefficients (all nonzero) pin the worst-case depth; the
		// bootstrap sine series (odd, every even coefficient zero) covers
		// the sparse case.
		dense := make([]float64, deg+1)
		for i := range dense {
			dense[i] = (2*rng.Float64() - 1) / float64(deg)
		}
		if dense[deg] == 0 {
			dense[deg] = 0.1
		}
		for name, coeffs := range map[string][]float64{
			"dense": dense,
			"sine":  SineCoeffs(deg, 1, 1.0),
		} {
			ps, err := s.ev.EvalChebyshev(s.enc, ct, coeffs)
			if err != nil {
				t.Fatalf("%v/%s: %v", scheme, name, err)
			}
			naive, err := s.ev.EvalChebyshevNaive(s.enc, ct, coeffs)
			if err != nil {
				t.Fatalf("%v/%s: %v", scheme, name, err)
			}
			psUsed := ct.Level - ps.Level
			naiveUsed := ct.Level - naive.Level
			if bound := ChebyshevDepth(deg); psUsed > bound {
				t.Fatalf("%v/%s: PS consumed %d levels, bound %d", scheme, name, psUsed, bound)
			}
			if name == "dense" && naiveUsed != deg {
				t.Fatalf("%v: naive consumed %d levels for dense degree %d", scheme, naiveUsed, deg)
			}
			gotP := s.decrypt(ps)
			gotN := s.decrypt(naive)
			for i := range vals {
				want := chebyshevRef(coeffs, real(vals[i]))
				if e := math.Abs(real(gotP[i]) - want); e > 1e-3 {
					t.Fatalf("%v/%s slot %d: PS err %g", scheme, name, i, e)
				}
				if e := math.Abs(real(gotP[i]) - real(gotN[i])); e > 1e-3 {
					t.Fatalf("%v/%s slot %d: PS vs naive differ by %g", scheme, name, i, e)
				}
			}
		}
	}
}

func TestChebyshevDepthValues(t *testing.T) {
	// Hand-checked depths; the point is O(log deg) growth vs the naive
	// recurrence's deg.
	for deg, want := range map[int]int{
		1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 7: 4, 13: 4, 19: 5, 31: 6,
	} {
		if got := ChebyshevDepth(deg); got != want {
			t.Fatalf("ChebyshevDepth(%d) = %d, want %d", deg, got, want)
		}
	}
	for _, deg := range []int{5, 7, 13, 19, 31, 63} {
		if d := ChebyshevDepth(deg); d >= deg {
			t.Fatalf("ChebyshevDepth(%d) = %d did not beat linear depth", deg, d)
		}
	}
}

func TestEvalChebyshevZeroCoeffNoWaste(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 3, 40, 61, 9, 8, nil)
	rng := rand.New(rand.NewPCG(87, 88))
	vals := make([]complex128, s.params.Slots())
	for i := range vals {
		vals[i] = complex(2*rng.Float64()-1, 0)
	}
	ct := s.encryptValues(vals)

	// Regression: {c0, 0} used to burn a MulPlain+Rescale (and a level)
	// on the zero T_1 coefficient; it must now consume no levels at all.
	for name, eval := range map[string]func(*Encoder, *Ciphertext, []float64) (*Ciphertext, error){
		"naive": s.ev.EvalChebyshevNaive,
		"ps":    s.ev.EvalChebyshev,
	} {
		out, err := eval(s.enc, ct, []float64{0.7, 0})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Level != ct.Level {
			t.Fatalf("%s: constant-after-trim series consumed %d levels", name, ct.Level-out.Level)
		}
		got := s.decrypt(out)
		if e := math.Abs(real(got[0]) - 0.7); e > 1e-5 {
			t.Fatalf("%s: constant series decoded to %v", name, real(got[0]))
		}

		// Interior zero: {0.5, 0, 0.3} needs exactly the 2 levels of T_2.
		out, err = eval(s.enc, ct, []float64{0.5, 0, 0.3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if used := ct.Level - out.Level; used != 2 {
			t.Fatalf("%s: degree-2 series with zero c1 consumed %d levels, want 2", name, used)
		}
		got = s.decrypt(out)
		for i := range vals {
			want := chebyshevRef([]float64{0.5, 0, 0.3}, real(vals[i]))
			if e := math.Abs(real(got[i]) - want); e > 1e-4 {
				t.Fatalf("%s slot %d: err %g", name, i, e)
			}
		}
	}
}
