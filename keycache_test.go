package bitpacker

import (
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"bitpacker/internal/chaos"
)

// End-to-end tests for the key-management configuration surface:
// Config.KeyCacheBytes must be a pure memory knob — every result
// bit-identical to the default closed key set, seed-compressed keys
// included — the closed set must refuse what it does not hold, and the
// cache must compose with the recovery ladder (a fault injected during
// seed regeneration of a key's A half heals via Config.Retry).

func keyCfg(scheme Scheme, rotations []int) Config {
	return Config{
		Scheme:    scheme,
		LogN:      9,
		Levels:    3,
		ScaleBits: 40,
		WordBits:  61,
		Rotations: rotations,
	}
}

// slotsEqual requires exact (bit-level) agreement of decrypted slots —
// the decryption of bit-identical ciphertexts.
func slotsEqual(t *testing.T, label string, got, want []complex128) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: slot %d differs: %v vs %v", label, i, got[i], want[i])
		}
	}
}

func keyPipeline(c *Context, a, b *Ciphertext) []complex128 {
	x := c.MustRotate(a, 1)
	x = c.MustMulRescale(x, b)
	x = c.MustAdd(x, c.MustRotate(x, 3))
	outs := c.MustRotateHoisted(x, []int{1, 3})
	return c.MustDecrypt(c.MustMulRescale(outs[0], outs[1]))
}

// TestCompressKeysDifferentialE2E: a budget of half a dense key leaves
// each key, once its first use releases it, resident in seeded form (B
// plus the seeds of A) and too big to promote back, so every later
// keyswitch with it regenerates A rows inside the dispatch. Those keys
// must hold exactly half a dense key's bytes and switch bit-identically
// to the dense closed set.
func TestCompressKeysDifferentialE2E(t *testing.T) {
	for _, scheme := range []Scheme{RNSCKKS, BitPacker} {
		dense, err := New(keyCfg(scheme, []int{1}))
		if err != nil {
			t.Fatal(err)
		}
		oneKey := dense.ResidentKeyBytes() / 2 // relinearization plus rotation by 1
		cfg := keyCfg(scheme, nil)
		cfg.KeyCacheBytes = oneKey / 2
		comp, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewPCG(31, 32))
		va := randComplex(dense.Slots(), rng)
		vb := randComplex(dense.Slots(), rng)
		da, db := dense.MustEncrypt(va), dense.MustEncrypt(vb)
		ca, cb := comp.MustEncrypt(va), comp.MustEncrypt(vb)
		for _, op := range []struct {
			name string
			run  func(c *Context, a, b *Ciphertext) *Ciphertext
		}{
			{"Rotate", func(c *Context, a, _ *Ciphertext) *Ciphertext { return c.MustRotate(a, 1) }},
			{"RotateHoisted", func(c *Context, a, _ *Ciphertext) *Ciphertext { return c.MustRotateHoisted(a, []int{0, 1})[1] }},
			{"MulRescale", func(c *Context, a, b *Ciphertext) *Ciphertext { return c.MustMulRescale(a, b) }},
		} {
			op.run(comp, ca, cb) // first use: generated dense, demoted on release
			if got := comp.ResidentKeyBytes(); got*2 != oneKey {
				t.Fatalf("%v %s: seeded key holds %d bytes, want half of dense %d", scheme, op.name, got, oneKey)
			}
			want := dense.MustDecrypt(op.run(dense, da, db))
			slotsEqual(t, op.name+" with seeded keys", comp.MustDecrypt(op.run(comp, ca, cb)), want)
		}
		st := comp.KeyCacheStats()
		if st.Demotions == 0 || st.ARegens != 0 {
			t.Fatalf("%v: keys were not used in seeded form: %+v", scheme, st)
		}
	}
}

func TestKeyCacheDifferentialE2E(t *testing.T) {
	for _, scheme := range []Scheme{RNSCKKS, BitPacker} {
		dense, err := New(keyCfg(scheme, []int{1, 3}))
		if err != nil {
			t.Fatal(err)
		}
		// Budget ~1.5 dense keys: the pipeline's four keys (relin plus
		// three rotations) constantly displace each other.
		cfg := keyCfg(scheme, nil) // rotations on demand — no registry needed
		cfg.KeyCacheBytes = dense.ResidentKeyBytes() / 3
		cached, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewPCG(41, 42))
		va := randComplex(dense.Slots(), rng)
		vb := randComplex(dense.Slots(), rng)
		want := keyPipeline(dense, dense.MustEncrypt(va), dense.MustEncrypt(vb))
		got := keyPipeline(cached, cached.MustEncrypt(va), cached.MustEncrypt(vb))
		slotsEqual(t, "key cache", got, want)

		st := cached.KeyCacheStats()
		if st.KeyGens == 0 || st.Demotions+st.Evictions == 0 {
			t.Fatalf("%v: tight budget produced no churn: %+v", scheme, st)
		}
		if st.ResidentBytes > st.BudgetBytes {
			t.Fatalf("%v: resident %d above budget %d", scheme, st.ResidentBytes, st.BudgetBytes)
		}
		if cached.ResidentKeyBytes() != st.ResidentBytes {
			t.Fatalf("%v: ResidentKeyBytes disagrees with cache stats", scheme)
		}

		// PinRotations holds a working set resident: everything pinned is
		// a hit for the duration.
		release, err := cached.PinRotations(1, 3, 0, 1) // zero/dup ignored
		if err != nil {
			t.Fatal(err)
		}
		before := cached.KeyCacheStats()
		for i := 0; i < 3; i++ {
			cached.MustRotate(cached.MustEncrypt(va), 1)
			cached.MustRotate(cached.MustEncrypt(va), 3)
		}
		after := cached.KeyCacheStats()
		if after.KeyGens != before.KeyGens {
			t.Fatalf("%v: pinned rotations regenerated keys: %+v -> %+v", scheme, before, after)
		}
		release()
		release() // idempotent
	}
}

func TestKeyCacheTransformAndMissingKey(t *testing.T) {
	// With a cache, any rotation is served on demand — ErrMissingKey is
	// out of the vocabulary; without one, an unregistered rotation still
	// fails typed.
	const dim = 8
	mrng := rand.New(rand.NewPCG(51, 52))
	mat := make([][]complex128, dim)
	for i := range mat {
		mat[i] = make([]complex128, dim)
		for j := range mat[i] {
			mat[i][j] = complex(2*mrng.Float64()-1, 0)
		}
	}
	dense, err := New(keyCfg(BitPacker, []int{1, 2, 3, 4, 5, 6, 7}))
	if err != nil {
		t.Fatal(err)
	}
	cfg := keyCfg(BitPacker, nil)
	cfg.KeyCacheBytes = dense.ResidentKeyBytes() / 4
	cached, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(53, 54))
	in := randComplex(dim, rng)
	tr, err := dense.NewMatrixTransform(mat, dense.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	trc, err := cached.NewMatrixTransform(mat, cached.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	want := dense.MustDecrypt(dense.MustApply(dense.MustEncrypt(dense.Replicate(in, dim)), tr))
	got := cached.MustDecrypt(cached.MustApply(cached.MustEncrypt(cached.Replicate(in, dim)), trc))
	slotsEqual(t, "BSGS transform under key cache", got, want)

	if _, err := dense.Rotate(dense.MustEncrypt(randComplex(dense.Slots(), rng)), 9); !errors.Is(err, ErrMissingKey) {
		t.Fatalf("unregistered rotation without cache: err = %v, want ErrMissingKey", err)
	}
	if _, err := cached.Rotate(cached.MustEncrypt(randComplex(cached.Slots(), rng)), 9); err != nil {
		t.Fatalf("cache failed to serve unregistered rotation: %v", err)
	}
}

// TestPinRotationsClosedSet: without a key cache, PinRotations checks
// the steps against the closed key set and refuses an unlisted one up
// front, instead of letting the later Rotate fail.
func TestPinRotationsClosedSet(t *testing.T) {
	c, err := New(keyCfg(BitPacker, []int{1, 3}))
	if err != nil {
		t.Fatal(err)
	}
	release, err := c.PinRotations(1, 3, 0, c.Slots()) // zero and full-cycle steps need no key
	if err != nil {
		t.Fatal(err)
	}
	release()
	if _, err := c.PinRotations(1, 2); !errors.Is(err, ErrMissingKey) {
		t.Fatalf("unlisted step: err = %v, want ErrMissingKey", err)
	}
	if st := c.KeyCacheStats(); st.KeyGens != 0 || st.ResidentBytes != c.ResidentKeyBytes() {
		t.Fatalf("closed set generated a key: %+v", st)
	}
}

// TestKeyCacheChaosRegen: a dropped engine task injected while the cache
// rematerializes an evicted key's A half from seed must surface as a
// detected fault and heal through op-level retry, with the healed result
// bit-identical to the fault-free dense run.
func TestKeyCacheChaosRegen(t *testing.T) {
	for _, scheme := range []Scheme{RNSCKKS, BitPacker} {
		dense, err := New(keyCfg(scheme, []int{1, 2}))
		if err != nil {
			t.Fatal(err)
		}
		cfg := keyCfg(scheme, nil)
		cfg.KeyCacheBytes = dense.ResidentKeyBytes() / 2 // room for ~1 dense key
		cfg.Retry = &RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond, Seed: 7}
		cached, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewPCG(61, 62))
		vals := randComplex(dense.Slots(), rng)
		ct := cached.MustEncrypt(vals)
		want := dense.MustDecrypt(dense.MustRotate(dense.MustEncrypt(vals), 1))

		// Populate then displace: rotate by 1 (generates that key), then
		// by 2 (budget pressure demotes/evicts the first), so the next
		// rotate-by-1 must regenerate A from seed — the injection window.
		cached.MustRotate(ct, 1)
		cached.MustRotate(ct, 2)

		_, restore := chaos.New(9).Burst(0, 1) // drop task 0 of the next dispatch
		healed, err := cached.Rotate(ct, 1)
		restore()
		if err != nil {
			t.Fatalf("%v: retry did not heal fault during key regeneration: %v", scheme, err)
		}
		slotsEqual(t, "healed regen", cached.MustDecrypt(healed), want)

		// A burst outlasting the attempt budget surfaces typed.
		cached.MustRotate(ct, 2)
		_, restore = chaos.New(10).Burst(0, 10)
		_, err = cached.Rotate(ct, 1)
		restore()
		if !errors.Is(err, ErrFaultUnrecovered) {
			t.Fatalf("%v: over-budget burst during regeneration: err = %v, want ErrFaultUnrecovered", scheme, err)
		}
	}
}
