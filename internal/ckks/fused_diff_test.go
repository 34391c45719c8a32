package ckks

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand/v2"
	"runtime/debug"
	"slices"
	"testing"

	"bitpacker/internal/core"
	"bitpacker/internal/engine"
)

// Differential tests for the fused hot path: every fused kernel must be
// bit-identical to its staged (unfused) twin — same residue words, same
// level, same scale, same noise estimate — on both schemes, under both
// sequential and parallel dispatch. The evaluator consumes no randomness,
// so one setup can serve both runs: only the fusion toggle changes.

// ctEqualNoise is ctEqual plus the noise-estimate bookkeeping, which the
// fused paths compute without materializing the staged intermediates.
func ctEqualNoise(a, b *Ciphertext) bool {
	return ctEqual(a, b) && a.NoiseBits == b.NoiseBits
}

// spareEqual compares the RRNS spare channels word for word.
func spareEqual(a, b *Ciphertext) bool {
	if a.SpareDepth != b.SpareDepth || len(a.Spare0) != len(b.Spare0) || len(a.Spare1) != len(b.Spare1) {
		return false
	}
	for i := range a.Spare0 {
		if a.Spare0[i] != b.Spare0[i] {
			return false
		}
	}
	for i := range a.Spare1 {
		if a.Spare1[i] != b.Spare1[i] {
			return false
		}
	}
	return true
}

// steps returns the rotation amounts lo, lo+1, ..., hi-1.
func steps(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		out = append(out, r)
	}
	return out
}

// withFused runs fn with the evaluator's fusion toggle forced, restoring
// the previous setting afterwards.
// Fused reports whether the fused hot paths are active.
func (ev *Evaluator) Fused() bool { return ev.fused }

func withFused(s *testSetup, on bool, fn func() *Ciphertext) *Ciphertext {
	prev := s.ev.Fused()
	s.ev.SetFused(on)
	defer s.ev.SetFused(prev)
	return fn()
}

// TestFusedDifferentialOps: each rewritten evaluator op, fused vs
// unfused, workers 1 and 4, both schemes.
func TestFusedDifferentialOps(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		s := newTestSetup(t, scheme, 4, 40, 61, 9, 8, []int{1, 3})
		rng := rand.New(rand.NewPCG(201, 202))
		a := s.encryptValues(randomValues(s.params.Slots(), rng))
		b := s.encryptValues(randomValues(s.params.Slots(), rng))

		ops := []struct {
			name string
			run  func() *Ciphertext
		}{
			{"Add", func() *Ciphertext { return s.ev.MustAdd(a, b) }},
			{"Sub", func() *Ciphertext { return s.ev.MustSub(a, b) }},
			{"Neg", func() *Ciphertext { return s.ev.MustNeg(a) }},
			{"MulScalarInt", func() *Ciphertext { return s.ev.MustMulScalarInt(a, -7) }},
			{"MulRelin", func() *Ciphertext { return s.ev.MustMulRelin(a, b) }},
			{"Rescale", func() *Ciphertext { return s.ev.MustRescale(s.ev.MustMulRelin(a, b)) }},
			{"Adjust", func() *Ciphertext { return s.ev.MustAdjust(s.ev.MustMulRelin(a, b)) }},
			{"MulRescale", func() *Ciphertext { return s.ev.MustMulRescale(a, b) }},
			{"Rotate", func() *Ciphertext { return s.ev.MustRotate(a, 3) }},
			{"Conjugate", func() *Ciphertext { return s.ev.MustConjugate(a) }},
		}
		for _, workers := range []int{1, 4} {
			for _, op := range ops {
				fused := runWithWorkers(t, workers, func() *Ciphertext { return withFused(s, true, op.run) })
				staged := runWithWorkers(t, workers, func() *Ciphertext { return withFused(s, false, op.run) })
				if !ctEqualNoise(fused, staged) {
					t.Fatalf("%v workers=%d: fused %s differs from staged twin", scheme, workers, op.name)
				}
			}
		}
	}
}

// TestFusedMulRescaleMatchesTwoCall: MulRescale divides once — the
// special primes shed with the retired moduli — where MulRelin, Settle
// and Rescale divide twice, so the two are value-equivalent, not
// bit-identical. Fused and staged MulRescale stay bit-identical to each
// other at workers 1 and 4, the output lands where the two-call
// sequence's does (level, scale, moduli, noise estimate), and it
// decrypts no more than 0.1 bit (RMS over the slots) worse than the
// two-call sequence: on both schemes at 28- and 61-bit words, at LogN 9
// with 8 digits and LogN 10 with 3. A division that floored fell short
// by k/2 per coefficient and made the merged op 0.5-1.5 bits worse.
func TestFusedMulRescaleMatchesTwoCall(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		for _, w := range []int{28, 61} {
			for _, shape := range []struct{ logN, dnum int }{{9, 8}, {10, 3}} {
				tag := fmt.Sprintf("%v w=%d logN=%d dnum=%d", scheme, w, shape.logN, shape.dnum)
				s := newTestSetup(t, scheme, 3, 40, w, shape.logN, shape.dnum, nil)
				rng := rand.New(rand.NewPCG(203, uint64(w)))
				va, vb := randomValues(s.params.Slots(), rng), randomValues(s.params.Slots(), rng)
				a, b := s.encryptValues(va), s.encryptValues(vb)
				var first *Ciphertext
				for _, workers := range []int{1, 4} {
					fused := runWithWorkers(t, workers, func() *Ciphertext {
						return withFused(s, true, func() *Ciphertext { return s.ev.MustMulRescale(a, b) })
					})
					staged := runWithWorkers(t, workers, func() *Ciphertext {
						return withFused(s, false, func() *Ciphertext { return s.ev.MustMulRescale(a, b) })
					})
					if first == nil {
						first = fused
					}
					if !ctEqualNoise(fused, staged) || !ctEqualNoise(fused, first) {
						t.Fatalf("%s workers=%d: fused MulRescale differs from staged or from workers=1", tag, workers)
					}
				}
				twoCall := s.ev.MustRescale(s.settled(s.ev.MustMulRelin(a, b)))
				if first.Level != twoCall.Level || first.Scale.Cmp(twoCall.Scale) != 0 ||
					!slices.Equal(first.C0.Moduli, twoCall.C0.Moduli) || math.Abs(first.NoiseBits-twoCall.NoiseBits) > 1e-9 {
					t.Fatalf("%s: MulRescale lands at level %d scale 2^%.3f noise %.3f, MulRelin+Rescale at %d 2^%.3f %.3f", tag,
						first.Level, core.RatLog2(first.Scale), first.NoiseBits, twoCall.Level, core.RatLog2(twoCall.Scale), twoCall.NoiseBits)
				}
				want := make([]complex128, len(va))
				for i := range want {
					want[i] = va[i] * vb[i]
				}
				rms := func(ct *Ciphertext) float64 {
					got, sum := s.decrypt(ct), 0.0
					for i := range want {
						d := cmplx.Abs(got[i] - want[i])
						sum += d * d
					}
					return math.Log2(math.Sqrt(sum / float64(len(want))))
				}
				em, e2 := rms(first), rms(twoCall)
				t.Logf("%s: MulRescale 2^%.2f, MulRelin+Rescale 2^%.2f", tag, em, e2)
				if em > e2+0.1 {
					t.Errorf("%s: MulRescale error 2^%.2f, MulRelin+Rescale 2^%.2f: more than 0.1 bit worse", tag, em, e2)
				}
			}
		}
	}
}

// TestFusedDifferentialRotateHoisted: the shared-decomposition rotation
// fan-out (one fork/join across all steps) and the one-division
// extraction built on it vs the staged serial path, including a
// duplicate and a zero step; and the same outputs at workers 1 and 4.
func TestFusedDifferentialRotateHoisted(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		s := newTestSetup(t, scheme, 3, 40, 61, 9, 8, []int{1, 3})
		rng := rand.New(rand.NewPCG(205, 206))
		ct := s.encryptValues(randomValues(s.params.Slots(), rng))
		pt := s.encodeExt(extractionMask(s.params.Slots()), ct.Level)
		steps := []int{3, 1, 0, 3}
		for _, op := range []struct {
			name string
			run  func() []*Ciphertext
		}{
			{"RotateHoisted", func() []*Ciphertext { return s.ev.MustRotateHoisted(ct, steps) }},
			{"RotateHoistedMulRescale", func() []*Ciphertext { return s.ev.MustRotateHoistedMulRescale(ct, steps, pt) }},
		} {
			var first []*Ciphertext
			for _, workers := range []int{1, 4} {
				engine.SetWorkers(workers)
				engine.SetMinParallelOps(1)
				s.ev.SetFused(true)
				fused := op.run()
				s.ev.SetFused(false)
				staged := op.run()
				s.ev.SetFused(true)
				engine.SetWorkers(0)
				engine.SetMinParallelOps(0)
				if first == nil {
					first = fused
				}
				for i := range steps {
					if !ctEqualNoise(fused[i], staged[i]) {
						t.Fatalf("%v workers=%d: %s by %d differs fused vs staged", scheme, workers, op.name, steps[i])
					}
					if !ctEqualNoise(fused[i], first[i]) {
						t.Fatalf("%v: %s by %d differs between workers 1 and %d", scheme, op.name, steps[i], workers)
					}
				}
			}
		}
	}
}

// TestFusedDifferentialLinearTransform: the BSGS path (dense matrix,
// baby-rotation fan-out + pair-kernel giant accumulation) and the
// per-diagonal hoisted path (sparse diagonals), fused vs staged.
func TestFusedDifferentialLinearTransform(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		const dim = 16
		s := newTestSetup(t, scheme, 2, 40, 61, 9, 8, steps(1, dim))
		rng := rand.New(rand.NewPCG(207, 208))

		mat := make([][]complex128, dim)
		for i := range mat {
			mat[i] = make([]complex128, dim)
			for j := range mat[i] {
				mat[i][j] = complex(2*rng.Float64()-1, 0)
			}
		}
		dense, err := NewLinearTransform(s.params, s.enc, mat, s.params.MaxLevel())
		if err != nil {
			t.Fatal(err)
		}
		if dense.N1 == dense.Slots {
			t.Fatalf("%v: dense transform did not take the BSGS path", scheme)
		}
		slots := s.params.Slots()
		sparseDiags := map[int][]complex128{
			0: constSlice(0.5, slots),
			1: constSlice(0.25, slots),
			3: constSlice(-0.25, slots),
		}
		sparse, err := NewLinearTransformFromDiags(s.params, s.enc, sparseDiags, s.params.MaxLevel())
		if err != nil {
			t.Fatal(err)
		}
		if sparse.N1 != sparse.Slots {
			t.Fatalf("%v: sparse transform unexpectedly took the BSGS path", scheme)
		}

		ct := s.encryptValues(ReplicateBlocks(randomValues(dim, rng), dim, slots))
		for _, lt := range []*LinearTransform{dense, sparse} {
			kind := "BSGS"
			if lt.N1 == lt.Slots {
				kind = "hoisted"
			}
			for _, workers := range []int{1, 4} {
				fused := runWithWorkers(t, workers, func() *Ciphertext {
					return withFused(s, true, func() *Ciphertext { return s.ev.MustApplyLinearTransform(ct, lt) })
				})
				staged := runWithWorkers(t, workers, func() *Ciphertext {
					return withFused(s, false, func() *Ciphertext { return s.ev.MustApplyLinearTransform(ct, lt) })
				})
				if !ctEqualNoise(fused, staged) {
					t.Fatalf("%v workers=%d: %s linear transform differs fused vs staged", scheme, workers, kind)
				}
			}
		}
	}
}

// TestFusedDifferentialRRNS: over a redundant-residue chain, the fused
// paths must reproduce not just the live residues but the spare channel
// bookkeeping (words and depth) of the staged paths — additions
// accumulate tracked spare algebra, rescales cross-check and reseed.
func TestFusedDifferentialRRNS(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		s := newRRNSSetup(t, scheme, 3, 40, 61, 9, 8, nil)
		rng := rand.New(rand.NewPCG(209, 210))
		a := s.encryptValues(randomValues(s.params.Slots(), rng))
		b := s.encryptValues(randomValues(s.params.Slots(), rng))

		pipeline := func() *Ciphertext {
			sum := s.ev.MustAdd(a, b)
			sum = s.ev.MustMulScalarInt(sum, -3)
			sum = s.ev.MustSub(sum, a)
			return s.ev.MustRescale(s.ev.MustMulRelin(sum, sum))
		}
		for _, workers := range []int{1, 4} {
			fused := runWithWorkers(t, workers, func() *Ciphertext { return withFused(s, true, pipeline) })
			staged := runWithWorkers(t, workers, func() *Ciphertext { return withFused(s, false, pipeline) })
			if !ctEqualNoise(fused, staged) {
				t.Fatalf("%v workers=%d: RRNS pipeline live residues differ fused vs staged", scheme, workers)
			}
			if !spareEqual(fused, staged) {
				t.Fatalf("%v workers=%d: RRNS spare channel differs fused vs staged", scheme, workers)
			}
		}
	}
}

// TestFusedRepairHealsInFusedKernels: a bit-flipped residue word (the
// chaos injector's fault signature; the chaos package itself imports
// ckks, so the flip is applied directly here) must be repaired in place
// by the RRNS rung inside the fused kernels, and the healed output must
// be bit-identical to the fault-free fused run — at workers 1 and 4, for
// both the two-call sequence and the MulRescale macro op.
func TestFusedRepairHealsInFusedKernels(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		s := newRRNSSetup(t, scheme, 3, 40, 61, 9, 8, nil)
		rng := rand.New(rand.NewPCG(211, 212))
		a := s.encryptValues(randomValues(s.params.Slots(), rng))
		b := s.encryptValues(randomValues(s.params.Slots(), rng))

		ops := []struct {
			name string
			run  func(x, y *Ciphertext) *Ciphertext
		}{
			{"Rescale(MulRelin)", func(x, y *Ciphertext) *Ciphertext { return s.ev.MustRescale(s.ev.MustMulRelin(x, y)) }},
			{"MulRescale", func(x, y *Ciphertext) *Ciphertext { return s.ev.MustMulRescale(x, y) }},
		}
		frng := rand.New(rand.NewPCG(213, 214))
		for _, workers := range []int{1, 4} {
			for _, op := range ops {
				clean := runWithWorkers(t, workers, func() *Ciphertext {
					return op.run(a.CopyNew(), b.CopyNew())
				})
				for trial := 0; trial < 3; trial++ {
					ri := frng.IntN(a.C0.R())
					ci := frng.IntN(s.params.N())
					healed := runWithWorkers(t, workers, func() *Ciphertext {
						ca := a.CopyNew()
						ca.C0.Coeffs[ri][ci] ^= 1 << 63
						return op.run(ca, b.CopyNew())
					})
					if !ctEqual(clean, healed) {
						t.Fatalf("%v workers=%d %s trial %d: healed run not bit-identical to fault-free run",
							scheme, workers, op.name, trial)
					}
				}
			}
		}
	}
}

// TestFusedDifferentialWordSizes: the evaluation-domain level management,
// the one-transform digits and the narrow-modulus kernels all sit under
// the fused seam, and which of them engage depends on the word size (28:
// every product fits a word; 36: none does; 61 under BitPacker: narrow
// terminal primes beside wide ones) and on the spare channel (with it,
// rescales go through the coefficient domain). So every level-management
// and keyswitch op is byte-compared fused vs staged across that grid, at
// workers 1 and 4; on the redundant-residue chains the spare channel must
// come out seeded and equal, and an injected residue flip must still be
// repaired to the fault-free bits.
func TestFusedDifferentialWordSizes(t *testing.T) {
	const dim = 16
	rots := steps(1, dim)
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		for _, w := range []int{28, 36, 61} {
			for _, rrns := range []bool{false, true} {
				setup := newTestSetup
				if rrns {
					setup = newRRNSSetup
				}
				s := setup(t, scheme, 4, 40, w, 9, 3, rots)
				tag := fmt.Sprintf("%v w=%d rrns=%v", scheme, w, rrns)
				rng := rand.New(rand.NewPCG(215, uint64(w)))
				slots := s.params.Slots()
				a := s.encryptValues(randomValues(slots, rng))
				b := s.encryptValues(randomValues(slots, rng))
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
				if lt.N1 == lt.Slots {
					t.Fatalf("%s: dense transform did not take the BSGS path", tag)
				}
				blocks := s.encryptValues(ReplicateBlocks(randomValues(dim, rng), dim, slots))
				mask := s.encodeExt(extractionMask(slots), a.Level)

				one := func(ct *Ciphertext) []*Ciphertext { return []*Ciphertext{ct} }
				ops := []struct {
					name string
					run  func(x, y *Ciphertext) []*Ciphertext
				}{
					{"Rescale", func(x, y *Ciphertext) []*Ciphertext { return one(s.ev.MustRescale(s.ev.MustMulRelin(x, y))) }},
					{"MulRescale", func(x, y *Ciphertext) []*Ciphertext { return one(s.ev.MustMulRescale(x, y)) }},
					{"Adjust", func(x, y *Ciphertext) []*Ciphertext { return one(s.ev.MustAdjust(s.ev.MustMulRelin(x, y))) }},
					{"AdjustTo", func(x, y *Ciphertext) []*Ciphertext { return one(s.ev.MustAdjustTo(x, 1)) }},
					{"Rotate", func(x, y *Ciphertext) []*Ciphertext { return one(s.ev.MustRotate(x, 3)) }},
					{"RotateHoisted", func(x, y *Ciphertext) []*Ciphertext { return s.ev.MustRotateHoisted(x, []int{3, 1, 0, 3}) }},
					{"BSGS", func(x, y *Ciphertext) []*Ciphertext { return one(s.ev.MustApplyLinearTransform(blocks, lt)) }},
					{"RotateHoistedMulRescale", func(x, y *Ciphertext) []*Ciphertext {
						return s.ev.MustRotateHoistedMulRescale(x, []int{3, 1, 0, 3}, mask)
					}},
					{"InnerSum", func(x, y *Ciphertext) []*Ciphertext { return one(innerSum(t, s, x, dim)) }},
				}
				run := func(workers int, fused bool, f func() []*Ciphertext) (outs []*Ciphertext) {
					runWithWorkers(t, workers, func() *Ciphertext {
						return withFused(s, fused, func() *Ciphertext { outs = f(); return nil })
					})
					return outs
				}
				for _, workers := range []int{1, 4} {
					for i, op := range ops {
						fused := run(workers, true, func() []*Ciphertext { return op.run(a, b) })
						staged := run(workers, false, func() []*Ciphertext { return op.run(a, b) })
						for k := range fused {
							if !ctEqualNoise(fused[k], staged[k]) || !spareEqual(fused[k], staged[k]) {
								t.Fatalf("%s workers=%d: fused %s[%d] differs from staged twin", tag, workers, op.name, k)
							}
						}
						if !rrns || i > 1 {
							continue
						}
						// Rescale and MulRescale on a spare-carrying chain:
						// the output is reseeded, and a flipped input word
						// heals to the same bits.
						if fused[0].SpareDepth != 1 {
							t.Fatalf("%s workers=%d: %s left the spare channel unseeded", tag, workers, op.name)
						}
						healed := run(workers, true, func() []*Ciphertext {
							ca := a.CopyNew()
							ca.C0.Coeffs[rng.IntN(ca.C0.R())][rng.IntN(s.params.N())] ^= 1 << 63
							return op.run(ca, b.CopyNew())
						})
						if !ctEqual(fused[0], healed[0]) {
							t.Fatalf("%s workers=%d: %s with a flipped residue word not healed to the fault-free bits", tag, workers, op.name)
						}
					}
				}
			}
		}
	}
}

// TestWideChainsHaveNoNarrowModulus: the narrow-modulus kernels key on
// q < 2^32 (ntt.Table) and on a whole conversion sum fitting a word
// (rns.Conv), so an RNS-CKKS chain at 61-bit words — primes at the scale,
// 40 bits and up — must keep them off by construction.
func TestWideChainsHaveNoNarrowModulus(t *testing.T) {
	s := newTestSetup(t, core.RNSCKKS, 8, 40, 61, 9, 3, nil)
	for _, q := range s.params.KeyBasis() {
		if q < 1<<32 {
			t.Fatalf("RNS-CKKS at 61-bit words carries the %d-bit modulus %d", bits.Len64(q), q)
		}
	}
}

// TestFusedHotPathAllocCeiling pins the allocation count of the two fused
// ops every program leans on. The conversion matrix is column-major and
// the per-basis keyswitch layout (digit rows, conversions, ModDown
// transition) is cached, so a keyswitch no longer rebuilds maps, modulus
// lists or cache-key strings; what remains is pooled
// polynomial headers, dispatch closures and big.Int bookkeeping. The
// ceilings sit between the counts with and without those rebuilds
// (MulRescale 513 vs 553, Rotate 290 vs 350 at this shape when they were
// set; MulRescale read 472 once its transition's moduli lists, scale
// factor and division came from one cached plan). Since the keyswitch
// is one inner product over all digits, reading a Galois map in place,
// MulRescale reads 462 (ceiling 490) and Rotate 284 (ceiling 300). A
// degree-7 EvalChebyshev rides along for its constants: applied as
// scalars the series cost 6281 allocations, and each constant that went
// through the encoder again would add about 1,900 (27,005 with all
// eleven encoded); with one rescale per linear combination, adjusted
// babies shared and the products through MulRescale it read 3,976, and
// 3,936 with the one-pass keyswitch, pinned at 4,260. A 16-diagonal
// transform (n1 = 8 under the cost rule: seven baby rotations and one
// giant, keys from lt.Rotations()) read 1,801 with a permuted copy per
// digit and a product pass per diagonal, and reads 1,091 with one inner
// product per keyswitch and per giant; rebuilding its step lists from
// maps per application cost about 30 more (1,732 against 1,759 at the
// old n1 = 4), so the ceiling is 1,120. A one-division extraction of two
// replies (steps 1 and 0) reads 638 (695 before the one-pass keyswitch),
// against 841 for RotateHoisted with MulPlain+Rescale per reply; its
// ceiling is 700. Once lift read P's residues from the keyswitch plan
// instead of reducing P per call, and Rotate became the one-step hoisted
// rotation, MulRescale read 444 (515 before), Rotate 289 (286 on the
// deleted permute-first route), the extraction 554 and InnerSum(16) 971;
// no ceiling moved. Once a pooled row came back without boxing a slice
// header and P·(d0, d1) joined relinearization's inner product, with
// every op a composition over pending ciphertexts, they read: MulRescale
// 266, Rotate 144, EvalChebyshev 2,879, the transform 702, the
// extraction 427 and InnerSum(16) 730, and the ceilings came down to
// about 10 % above. The collector is held off because a collection
// empties the scratch pools mid-run.
func TestFusedHotPathAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	engine.SetWorkers(1)
	defer engine.SetWorkers(0)
	s := newTestSetup(t, core.BitPacker, 4, 40, 28, 9, 3, []int{1})
	rng := rand.New(rand.NewPCG(217, 218))
	a := s.encryptValues(randomValues(s.params.Slots(), rng))
	b := s.encryptValues(randomValues(s.params.Slots(), rng))
	mask := s.encodeExt(extractionMask(s.params.Slots()), a.Level)
	lt, blocks, _ := denseTestTransform(t, s, 16, 219)
	s.addRotationKeys(lt.Rotations())
	cheb7 := []float64{0.1, 0.8, -0.3, 0.05, 0.12, -0.05, 0.03, 0.02}
	for _, op := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"MulRescale", 295, func() { s.ev.MustMulRescale(a, b) }},
		{"Rotate", 160, func() { s.ev.MustRotate(a, 1) }},
		{"EvalChebyshev", 3170, func() {
			if _, err := s.ev.EvalChebyshev(s.enc, a, cheb7); err != nil {
				t.Fatal(err)
			}
		}},
		{"ApplyLinearTransform", 775, func() { s.ev.MustApplyLinearTransform(blocks, lt) }},
		{"RotateHoistedMulRescale", 470, func() { s.ev.MustRotateHoistedMulRescale(a, []int{1, 0}, mask) }},
		{"InnerSum", 805, func() { innerSum(t, s, a, 16) }},
	} {
		if got := testing.AllocsPerRun(10, op.run); got > op.ceiling {
			t.Errorf("fused %s: %.0f allocations per call, ceiling %.0f", op.name, got, op.ceiling)
		} else {
			t.Logf("fused %s: %.0f allocations per call (ceiling %.0f)", op.name, got, op.ceiling)
		}
	}
}

// innerSum is InnerSum(ct, n) failing the test on an error.
func innerSum(t testing.TB, s *testSetup, ct *Ciphertext, n int) *Ciphertext {
	t.Helper()
	out, err := s.ev.InnerSum(ct, n)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestInnerSumMatchesRotateAdd: InnerSum divides C0 once where log2(n)
// Rotate+Add pairs with each rotation settled divide it per step. Its output lands where
// theirs does (level, scale, moduli, noise estimate) and decrypts within
// 0.1 bit (RMS over the slots) of theirs, on both schemes at 28- and
// 61-bit words; width 1 returns the input, and widths 0, 3 and twice the
// slot count are refused.
func TestInnerSumMatchesRotateAdd(t *testing.T) {
	const n = 16
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		for _, w := range []int{28, 61} {
			tag := fmt.Sprintf("%v w=%d", scheme, w)
			s := newTestSetup(t, scheme, 2, 40, w, 10, 3, []int{1, 2, 4, 8})
			vals := randomValues(s.params.Slots(), rand.New(rand.NewPCG(221, uint64(w))))
			ct := s.encryptValues(vals)
			got := s.settled(innerSum(t, s, ct, n))
			chain := ct
			for r := 1; r < n; r <<= 1 {
				chain = s.ev.MustAdd(chain, s.settled(s.ev.MustRotate(chain, r)))
			}
			if got.Level != chain.Level || got.Scale.Cmp(chain.Scale) != 0 || !slices.Equal(got.C0.Moduli, chain.C0.Moduli) || got.NoiseBits != chain.NoiseBits {
				t.Fatalf("%s: InnerSum lands at level %d noise %.3f, Rotate+Add at %d %.3f", tag, got.Level, got.NoiseBits, chain.Level, chain.NoiseBits)
			}
			slots := len(vals)
			rms := func(out *Ciphertext) float64 {
				dec, sum := s.decrypt(out), 0.0
				for i := range dec {
					var want complex128
					for j := range n {
						want += vals[(i+j)%slots]
					}
					d := cmplx.Abs(dec[i] - want)
					sum += d * d
				}
				return math.Log2(math.Sqrt(sum / float64(slots)))
			}
			eg, ec := rms(got), rms(chain)
			t.Logf("%s: InnerSum 2^%.2f, Rotate+Add 2^%.2f", tag, eg, ec)
			if eg > ec+0.1 {
				t.Errorf("%s: InnerSum error 2^%.2f, Rotate+Add 2^%.2f: more than 0.1 bit worse", tag, eg, ec)
			}
			if one := innerSum(t, s, ct, 1); one != ct {
				t.Errorf("%s: InnerSum of width 1 is not its input", tag)
			}
			for _, bad := range []int{0, 3, 2 * slots} {
				if _, err := s.ev.InnerSum(ct, bad); err == nil {
					t.Errorf("%s: InnerSum width %d accepted", tag, bad)
				}
			}
		}
	}
}
