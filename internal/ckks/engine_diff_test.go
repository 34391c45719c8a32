package ckks

import (
	"math/rand/v2"
	"testing"

	"bitpacker/internal/core"
	"bitpacker/internal/engine"
)

// Differential tests for the execution engine at the scheme level: the
// full homomorphic pipelines must produce bit-identical ciphertexts under
// sequential (workers=1) and parallel (workers=N) dispatch. All
// randomness is seeded, so two fresh runs differ only in scheduling.

func ctEqual(a, b *Ciphertext) bool {
	return a.Level == b.Level && a.Scale.Cmp(b.Scale) == 0 &&
		a.C0.Equal(b.C0) && a.C1.Equal(b.C1)
}

// runWithWorkers runs pipeline under the given worker count with the
// inline threshold dropped, so the parallel run really dispatches.
func runWithWorkers(t *testing.T, workers int, pipeline func() *Ciphertext) *Ciphertext {
	t.Helper()
	engine.SetWorkers(workers)
	engine.SetMinParallelOps(1)
	defer func() {
		engine.SetWorkers(0)
		engine.SetMinParallelOps(0)
	}()
	return pipeline()
}

func TestEngineDifferentialMulRescaleRotate(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		pipeline := func() *Ciphertext {
			s := newTestSetup(t, scheme, 4, 40, 61, 9, 8, []int{1, 3})
			rng := rand.New(rand.NewPCG(51, 52))
			vals := randomValues(s.params.Slots(), rng)
			ct := s.encryptValues(vals)
			prod := s.ev.MustRescale(s.ev.MustMulRelin(ct, ct))
			rot := s.ev.MustRotate(prod, 3)
			sum := s.ev.MustAdd(prod, rot)
			return s.ev.MustRescale(s.ev.MustMulRelin(sum, s.ev.MustRotate(sum, 1)))
		}
		seq := runWithWorkers(t, 1, pipeline)
		par := runWithWorkers(t, 4, pipeline)
		if !ctEqual(seq, par) {
			t.Fatalf("%v: parallel MulRelin/Rescale/Rotate pipeline differs from sequential", scheme)
		}
	}
}

func TestEngineDifferentialNTTDomainSwitch(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 3, 40, 61, 9, 8, nil)
	rng := rand.New(rand.NewPCG(53, 54))
	vals := randomValues(s.params.Slots(), rng)
	pt := s.enc.MustEncode(vals, s.params.DefaultScale(2), s.params.LevelModuli(2))

	pipeline := func() []uint64 {
		p := pt.Copy()
		p.NTT()
		p.INTT()
		p.NTT()
		var flat []uint64
		for i := range p.Coeffs {
			flat = append(flat, p.Coeffs[i]...)
		}
		return flat
	}
	engine.SetMinParallelOps(1)
	defer func() {
		engine.SetWorkers(0)
		engine.SetMinParallelOps(0)
	}()
	engine.SetWorkers(1)
	seq := pipeline()
	engine.SetWorkers(4)
	par := pipeline()
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("NTT/INTT differs at flat index %d: %d vs %d", i, seq[i], par[i])
		}
	}
}

// TestEngineDifferentialBootstrap refreshes one exhausted ciphertext with
// both worker counts and requires bit-identical outputs — the bootstrap
// path exercises ModRaise, the homomorphic DFTs, EvalChebyshev,
// keyswitching and rescaling in one sweep.
func TestEngineDifferentialBootstrap(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap differential is slow")
	}
	pipeline := bootstrapPipelineForTest(t)
	seq := runWithWorkers(t, 1, pipeline)
	par := runWithWorkers(t, 4, pipeline)
	if !ctEqual(seq, par) {
		t.Fatal("parallel bootstrap differs from sequential")
	}
}

// TestBootstrapDeterministicAcrossRuns guards the run-to-run determinism
// the differential tests rely on: two sequential bootstraps in the same
// process must agree bit for bit. (This once failed because
// LinearTransform.Rotations iterated a map, making key generation consume
// its PRNG stream in a different order each run.)
func TestBootstrapDeterministicAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap determinism check is slow")
	}
	a := runWithWorkers(t, 1, bootstrapPipelineForTest(t))
	b := runWithWorkers(t, 1, bootstrapPipelineForTest(t))
	if !ctEqual(a, b) {
		t.Fatal("two sequential bootstrap runs differ")
	}
}

// bootstrapPipelineForTest builds a self-contained toy bootstrap run
// (seeded keys, sparse secret, degree-7 sine) returning the refreshed
// ciphertext; every invocation is deterministic up to scheduling.
func bootstrapPipelineForTest(t *testing.T) func() *Ciphertext {
	const (
		deg  = 7
		k    = 2
		lvls = deg + 3
	)
	return func() *Ciphertext {
		targets := make([]float64, lvls+1)
		for i := range targets {
			targets[i] = 40
		}
		prog := core.ProgramSpec{MaxLevel: lvls, TargetScaleBits: targets, QMinBits: 48}
		params, err := BuildParameters(core.BitPacker, prog, core.SecuritySpec{LogN: 7}, core.HWSpec{WordBits: 61}, 8, 3.2)
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

		vals := make([]complex128, params.Slots())
		rng := rand.New(rand.NewPCG(105, 106))
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
		return refreshed
	}
}
