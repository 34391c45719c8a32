package chaos

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"bitpacker/internal/ckks"
	"bitpacker/internal/core"
	"bitpacker/internal/engine"
	"bitpacker/internal/fherr"
)

// setup bundles a scheme instance for fault-injection runs: invariant
// checks armed, so any corrupted operand is rejected at the evaluator
// entry point — before it can reach decryption.
type setup struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	dec    *ckks.Decryptor
	ev     *ckks.Evaluator
	encr   *ckks.Encryptor
}

var bothSchemes = []core.Scheme{core.RNSCKKS, core.BitPacker}

func newSetup(t testing.TB, scheme core.Scheme, rotations []int) *setup {
	t.Helper()
	const (
		levels    = 2
		scaleBits = 40.0
		logN      = 9
	)
	targets := make([]float64, levels+1)
	for i := range targets {
		targets[i] = scaleBits
	}
	prog := core.ProgramSpec{MaxLevel: levels, TargetScaleBits: targets, QMinBits: scaleBits + 20}
	params, err := ckks.BuildParameters(scheme, prog, core.SecuritySpec{LogN: logN}, core.HWSpec{WordBits: 61}, 8, 3.2)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, 11, 22)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	ev := ckks.NewEvaluator(params, ckks.NewClosedKeyManager(params, kg, sk, rotations, true))
	ev.SetInvariantChecks(true)
	return &setup{
		params: params,
		enc:    ckks.NewEncoder(params),
		dec:    ckks.NewDecryptor(params, sk),
		ev:     ev,
		encr:   ckks.NewEncryptor(params, pk, 33, 44),
	}
}

func (s *setup) encrypt(t testing.TB, rng *rand.Rand) *ckks.Ciphertext {
	t.Helper()
	lvl := s.params.MaxLevel()
	vals := make([]complex128, s.params.Slots())
	for i := range vals {
		vals[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	pt := &ckks.Plaintext{
		Value: s.enc.MustEncode(vals, s.params.DefaultScale(lvl), s.params.LevelModuli(lvl)),
		Level: lvl,
		Scale: s.params.DefaultScale(lvl),
	}
	return s.encr.MustEncryptAtLevel(pt, lvl)
}

// requireCaught asserts the fault was detected both by a direct Validate
// call and by the evaluator's entry-point guard — i.e. before the
// corrupted ciphertext could flow toward decryption.
func requireCaught(t *testing.T, s *setup, ct *ckks.Ciphertext, fault Fault) {
	t.Helper()
	if err := ct.Validate(s.params); !errors.Is(err, fherr.ErrInvariant) {
		t.Fatalf("%s: Validate = %v, want ErrInvariant", fault.Kind, err)
	}
	if _, err := s.ev.Add(ct, ct); !errors.Is(err, fherr.ErrInvariant) {
		t.Fatalf("%s: evaluator accepted corrupted operand (err = %v)", fault.Kind, err)
	}
}

func TestCorruptResidueWordCaught(t *testing.T) {
	for _, scheme := range bothSchemes {
		s := newSetup(t, scheme, nil)
		rng := rand.New(rand.NewPCG(101, 102))
		for trial := 0; trial < 8; trial++ {
			ct := s.encrypt(t, rng)
			if err := ct.Validate(s.params); err != nil {
				t.Fatalf("%v: fresh ciphertext invalid: %v", scheme, err)
			}
			inj := New(uint64(1000 + trial))
			fault := inj.CorruptResidueWord(ct)
			requireCaught(t, s, ct, fault)
		}
	}
}

func TestScaleSkewULPCaught(t *testing.T) {
	for _, scheme := range bothSchemes {
		s := newSetup(t, scheme, nil)
		rng := rand.New(rand.NewPCG(201, 202))
		ct := s.encrypt(t, rng)
		fault := New(7).SkewScaleULP(ct)
		requireCaught(t, s, ct, fault)
	}
}

func TestNoiseEstimateSkewCaught(t *testing.T) {
	for _, scheme := range bothSchemes {
		s := newSetup(t, scheme, nil)
		rng := rand.New(rand.NewPCG(301, 302))
		ct := s.encrypt(t, rng)
		fault := New(8).SkewNoiseEstimate(ct)
		requireCaught(t, s, ct, fault)
	}
}

func TestDroppedEngineTaskCaught(t *testing.T) {
	const dim = 8
	rots := []int{1, 2, 3, 4, 5, 6, 7}
	mat := make([][]complex128, dim)
	mrng := rand.New(rand.NewPCG(41, 42))
	for i := range mat {
		mat[i] = make([]complex128, dim)
		for j := range mat[i] {
			mat[i][j] = complex(2*mrng.Float64()-1, 0)
		}
	}
	for _, scheme := range bothSchemes {
		s := newSetup(t, scheme, rots)
		lt, err := ckks.NewLinearTransform(s.params, s.enc, mat, s.params.MaxLevel())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(401, 402))
		ct := s.encrypt(t, rng)

		task, restore := New(9).DropRandomEngineTask(2)
		_, err = s.ev.ApplyLinearTransform(ct, lt)
		restore()
		if !errors.Is(err, fherr.ErrEngineFault) {
			t.Fatalf("%v: dropped task %d not reported (err = %v)", scheme, task, err)
		}

		// The engine must be fully usable once the fault clears.
		out, err := s.ev.ApplyLinearTransform(ct, lt)
		if err != nil {
			t.Fatalf("%v: transform after fault cleared: %v", scheme, err)
		}
		if err := out.Validate(s.params); err != nil {
			t.Fatalf("%v: post-fault result invalid: %v", scheme, err)
		}
	}
}

func TestNoiseGuardBlocksExhaustedBudget(t *testing.T) {
	for _, scheme := range bothSchemes {
		s := newSetup(t, scheme, nil)
		rng := rand.New(rand.NewPCG(501, 502))
		ct := s.encrypt(t, rng)

		budget := s.ev.NoiseBudget(ct)
		if budget <= 0 {
			t.Fatalf("%v: fresh ciphertext has no budget (%.1f bits)", scheme, budget)
		}
		// Demand more budget than a fresh ciphertext has: the next
		// budget-consuming operation must trip the guard with a typed,
		// actionable error.
		s.ev.SetNoiseGuard(budget + 1)
		_, err := s.ev.MulRelin(ct, ct)
		if !errors.Is(err, fherr.ErrNoiseBudget) {
			t.Fatalf("%v: guard did not trip (err = %v)", scheme, err)
		}
		var nbe *fherr.NoiseBudgetError
		if !errors.As(err, &nbe) {
			t.Fatalf("%v: error is not a *NoiseBudgetError: %v", scheme, err)
		}
		if nbe.Action == "" {
			t.Fatalf("%v: NoiseBudgetError carries no suggested action", scheme)
		}
		s.ev.SetNoiseGuard(0)
		if _, err := s.ev.MulRelin(ct, ct); err != nil {
			t.Fatalf("%v: disarmed guard still failing: %v", scheme, err)
		}
	}
}

func TestBurstClearsAfterN(t *testing.T) {
	const dim = 8
	rots := []int{1, 2, 3, 4, 5, 6, 7}
	mat := make([][]complex128, dim)
	mrng := rand.New(rand.NewPCG(71, 72))
	for i := range mat {
		mat[i] = make([]complex128, dim)
		for j := range mat[i] {
			mat[i][j] = complex(2*mrng.Float64()-1, 0)
		}
	}
	s := newSetup(t, core.BitPacker, rots)
	lt, err := ckks.NewLinearTransform(s.params, s.enc, mat, s.params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(701, 702))
	ct := s.encrypt(t, rng)

	const burst = 2
	remaining, restore := New(11).Burst(0, burst)
	defer restore()
	// The first `burst` dispatches fault; the next succeeds untouched.
	for i := 0; i < burst; i++ {
		if _, err := s.ev.ApplyLinearTransform(ct, lt); !errors.Is(err, fherr.ErrEngineFault) {
			t.Fatalf("burst round %d: err = %v, want ErrEngineFault", i, err)
		}
	}
	if got := remaining(); got != 0 {
		t.Fatalf("remaining = %d after %d faulted dispatches, want 0", got, burst)
	}
	out, err := s.ev.ApplyLinearTransform(ct, lt)
	if err != nil {
		t.Fatalf("dispatch after burst self-cleared: %v", err)
	}
	if err := out.Validate(s.params); err != nil {
		t.Fatalf("post-burst result invalid: %v", err)
	}
}

// settled is ct divided for decryption: an apply's output pends.
func settled(t *testing.T, ev *ckks.Evaluator, ct *ckks.Ciphertext) *ckks.Ciphertext {
	t.Helper()
	out, err := ev.Settle(ct)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBurstBelowExhaustionIsHealedByRetry wires the burst injector to the
// op-level retrier: a burst shorter than the attempt budget is healed
// transparently (same decrypted values as the fault-free run), while a
// burst that outlasts the budget surfaces ErrFaultUnrecovered.
func TestBurstBelowExhaustionIsHealedByRetry(t *testing.T) {
	const dim = 8
	rots := []int{1, 2, 3, 4, 5, 6, 7}
	mat := make([][]complex128, dim)
	mrng := rand.New(rand.NewPCG(81, 82))
	for i := range mat {
		mat[i] = make([]complex128, dim)
		for j := range mat[i] {
			mat[i][j] = complex(2*mrng.Float64()-1, 0)
		}
	}
	for _, scheme := range bothSchemes {
		s := newSetup(t, scheme, rots)
		lt, err := ckks.NewLinearTransform(s.params, s.enc, mat, s.params.MaxLevel())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(801, 802))
		ct := s.encrypt(t, rng)
		clean, err := s.ev.ApplyLinearTransform(ct, lt)
		if err != nil {
			t.Fatal(err)
		}
		cleanVals, err := s.dec.DecryptAndDecode(settled(t, s.ev, clean), s.enc)
		if err != nil {
			t.Fatal(err)
		}

		r := engine.NewRetrier(engine.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond, Seed: 5})
		var healed *ckks.Ciphertext
		_, restore := New(12).Burst(0, 2) // 2 faults < 3 attempts
		err = r.Do(context.Background(), "linear-transform", func(context.Context) error {
			var opErr error
			healed, opErr = s.ev.ApplyLinearTransform(ct, lt)
			return opErr
		})
		restore()
		if err != nil {
			t.Fatalf("%v: retry did not heal a sub-budget burst: %v", scheme, err)
		}
		healedVals, err := s.dec.DecryptAndDecode(settled(t, s.ev, healed), s.enc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cleanVals {
			if cleanVals[i] != healedVals[i] {
				t.Fatalf("%v: healed run differs from fault-free run at slot %d", scheme, i)
			}
		}

		// A burst outlasting the budget must exhaust into the typed error.
		_, restore = New(13).Burst(0, 10)
		err = r.Do(context.Background(), "linear-transform", func(context.Context) error {
			_, opErr := s.ev.ApplyLinearTransform(ct, lt)
			return opErr
		})
		restore()
		if !errors.Is(err, fherr.ErrFaultUnrecovered) {
			t.Fatalf("%v: over-budget burst: err = %v, want ErrFaultUnrecovered", scheme, err)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	s := newSetup(t, core.BitPacker, nil)
	rng := rand.New(rand.NewPCG(601, 602))
	ct1 := s.encrypt(t, rng)
	ct2 := ct1.CopyNew()
	a, b := New(42), New(42)
	for i := 0; i < 16; i++ {
		fa, fb := a.CorruptResidueWord(ct1), b.CorruptResidueWord(ct2)
		if fa != fb {
			t.Fatalf("round %d: same seed diverged: %+v vs %+v", i, fa, fb)
		}
	}
}
