package ckks

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"runtime/debug"
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

// TestFusedMulRescaleMatchesTwoCall: the MulRescale macro op must be
// bit-identical to the two-call MulRelin+Rescale sequence, fused and
// staged alike — the whole point of the fold is that nothing about the
// arithmetic changes, only where the intermediates live. (Shedding the
// special primes in the rescale's division instead would change the
// words and cost precision; DESIGN.md "MulRescale keeps its ModDown".)
func TestFusedMulRescaleMatchesTwoCall(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		for _, w := range []int{28, 61} {
			s := newTestSetup(t, scheme, 3, 40, w, 9, 8, nil)
			rng := rand.New(rand.NewPCG(203, uint64(w)))
			a := s.encryptValues(randomValues(s.params.Slots(), rng))
			b := s.encryptValues(randomValues(s.params.Slots(), rng))
			for _, fused := range []bool{true, false} {
				for _, workers := range []int{1, 4} {
					macro := runWithWorkers(t, workers, func() *Ciphertext {
						return withFused(s, fused, func() *Ciphertext { return s.ev.MustMulRescale(a, b) })
					})
					twoCall := runWithWorkers(t, workers, func() *Ciphertext {
						return withFused(s, fused, func() *Ciphertext { return s.ev.MustRescale(s.ev.MustMulRelin(a, b)) })
					})
					if !ctEqualNoise(macro, twoCall) {
						t.Fatalf("%v w=%d fused=%v workers=%d: MulRescale differs from MulRelin+Rescale", scheme, w, fused, workers)
					}
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
// ceiling is 700. The collector is held off because a collection
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
		{"MulRescale", 490, func() { s.ev.MustMulRescale(a, b) }},
		{"Rotate", 300, func() { s.ev.MustRotate(a, 1) }},
		{"EvalChebyshev", 4260, func() {
			if _, err := s.ev.EvalChebyshev(s.enc, a, cheb7); err != nil {
				t.Fatal(err)
			}
		}},
		{"ApplyLinearTransform", 1120, func() { s.ev.MustApplyLinearTransform(blocks, lt) }},
		{"RotateHoistedMulRescale", 700, func() { s.ev.MustRotateHoistedMulRescale(a, []int{1, 0}, mask) }},
	} {
		if got := testing.AllocsPerRun(10, op.run); got > op.ceiling {
			t.Errorf("fused %s: %.0f allocations per call, ceiling %.0f", op.name, got, op.ceiling)
		} else {
			t.Logf("fused %s: %.0f allocations per call (ceiling %.0f)", op.name, got, op.ceiling)
		}
	}
}
