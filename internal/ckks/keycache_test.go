package ckks

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"bitpacker/internal/core"
	"bitpacker/internal/engine"
	"bitpacker/internal/fherr"
	"bitpacker/internal/ring"
)

// Tests for the key store: seed-compressed switching keys must be
// bit-identical to dense ones through every keyswitch path, key
// generation must be order-independent (the property lazy regeneration
// leans on), a closed store must refuse what it does not hold, and the
// budgeted LRU manager must respect pins, demote and evict
// coldest-first, and survive concurrent acquirers under -race.

// swkEqual compares two switching keys digit by digit: seeds, B halves,
// and the A halves after rebuilding both in dense form.
func swkEqual(ctx *testSetup, x, y *SwitchingKey) bool {
	if len(x.B) != len(y.B) {
		return false
	}
	xc, yc := denseKey(ctx.params.Ctx, x), denseKey(ctx.params.Ctx, y)
	for j := range xc.B {
		if xc.ASeeds[j] != yc.ASeeds[j] || !xc.B[j].Equal(yc.B[j]) || !xc.A[j].Equal(yc.A[j]) {
			return false
		}
	}
	return true
}

// cloneKey copies the key's slices (sharing poly contents) so Compress
// on the clone leaves the original untouched.
func cloneKey(swk *SwitchingKey) *SwitchingKey {
	return &SwitchingKey{
		B:      append([]*ring.Poly(nil), swk.B...),
		A:      append([]*ring.Poly(nil), swk.A...),
		ASeeds: append([]ring.Seed(nil), swk.ASeeds...),
	}
}

// denseKey returns a clone of swk with every dropped A half rebuilt from
// its seed over the basis of the matching B digit.
func denseKey(ctx *ring.Context, swk *SwitchingKey) *SwitchingKey {
	d := cloneKey(swk)
	for j := range d.A {
		if d.A[j] == nil {
			d.A[j] = ring.UniformPolyFromSeed(ctx, d.B[j].Moduli, d.ASeeds[j])
		}
	}
	return d
}

// compressStore demotes every key of a store to its seeded form in place
// and settles the books, the state a budgeted store reaches under
// pressure.
func compressStore(km *KeyManager) {
	km.mu.Lock()
	defer km.mu.Unlock()
	km.resident = 0
	for _, e := range km.entries {
		e.swk.Compress()
		km.resident += e.swk.ResidentBytes()
	}
}

func TestKeygenOrderIndependent(t *testing.T) {
	// The same key id must yield the same bits no matter what else has
	// been generated before it — the property that makes cold-key
	// regeneration (and the closed store's matching bits) sound.
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 8, 4, nil)
	kgA := NewKeyGenerator(s.params, 11, 22)
	kgB := NewKeyGenerator(s.params, 11, 22)
	skA := kgA.GenSecretKey()
	skB := kgB.GenSecretKey()
	if !skA.S.Equal(skB.S) {
		t.Fatal("secret keys from equal seeds differ")
	}

	// Generator A: relin first, then rotations 1, 3. Generator B: the
	// reverse order, with an extra unrelated key interleaved.
	n := s.params.N()
	el1 := ring.GaloisElementForRotation(1, n)
	el3 := ring.GaloisElementForRotation(3, n)
	relA := kgA.GenRelinKey(skA)
	rot1A := kgA.GenGaloisKey(skA, el1)
	rot3A := kgA.GenGaloisKey(skA, el3)

	rot3B := kgB.GenGaloisKey(skB, el3)
	kgB.GenGaloisKey(skB, ring.GaloisElementForRotation(7, n)) // unrelated
	relB := kgB.GenRelinKey(skB)
	rot1B := kgB.GenGaloisKey(skB, el1)

	for _, pair := range []struct {
		name string
		a, b *SwitchingKey
	}{{"relin", relA, relB}, {"rot1", rot1A, rot1B}, {"rot3", rot3A, rot3B}} {
		if !swkEqual(s, pair.a, pair.b) {
			t.Fatalf("%s key depends on generation order", pair.name)
		}
	}
}

func TestClosedStoreDedupsElements(t *testing.T) {
	// Repeated rotations and the conjugation element must be generated
	// once each, and every key must match per-element generation.
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 8, 4, nil)
	n := s.params.N()
	km := NewClosedKeyManager(s.params, s.kg, s.sk, []int{1, 2, 1, -1}, true)
	want := []uint64{
		RelinKeyID,
		ring.GaloisElementForRotation(1, n),
		ring.GaloisElementForRotation(2, n),
		ring.GaloisElementForRotation(-1, n),
		ring.GaloisElementForConjugation(n),
	}
	if len(km.entries) != len(want) {
		t.Fatalf("got %d keys, want %d (duplicates not deduped)", len(km.entries), len(want))
	}
	for _, id := range want {
		one := generateKey(s.kg, s.sk, id)
		swk, rel, err := km.Acquire(nil, "test", id)
		if err != nil {
			t.Fatal(err)
		}
		rel()
		if !swkEqual(s, swk, one) {
			t.Fatalf("preloaded key %d differs from individually generated", id)
		}
	}
	if err := km.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestClosedStoreRefusesAbsentKey: a closed store serves what it holds
// and refuses anything else with ErrMissingKey — from Acquire, from a
// plan-wide Pin and from the evaluator — without generating a key.
func TestClosedStoreRefusesAbsentKey(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 8, 4, []int{1})
	km := s.ev.KeyManager()
	n := s.params.N()
	el1, el2 := ring.GaloisElementForRotation(1, n), ring.GaloisElementForRotation(2, n)
	if !km.Has(el1) || !km.Has(RelinKeyID) || km.Has(el2) {
		t.Fatal("Has disagrees with the preloaded set")
	}
	if _, _, err := km.Acquire(nil, "test", el2); !errors.Is(err, fherr.ErrMissingKey) {
		t.Fatalf("absent element: err = %v, want ErrMissingKey", err)
	}
	if _, err := km.Pin(nil, "test", []uint64{el1, el2}); !errors.Is(err, fherr.ErrMissingKey) {
		t.Fatalf("pin over an absent element: err = %v, want ErrMissingKey", err)
	}
	ct := s.encryptValues(randomValues(s.params.Slots(), rand.New(rand.NewPCG(1, 2))))
	if _, err := s.ev.Rotate(ct, 2); !errors.Is(err, fherr.ErrMissingKey) {
		t.Fatalf("rotate by an absent step: err = %v, want ErrMissingKey", err)
	}
	if _, err := s.ev.Rotate(ct, 1); err != nil {
		t.Fatal(err)
	}
	st := km.Stats()
	if st.KeyGens != 0 || st.Misses != 0 || st.Demotions+st.Evictions != 0 {
		t.Fatalf("closed store generated or reclaimed: %+v", st)
	}
	if st.Hits == 0 || st.ResidentBytes == 0 || st.ResidentBytes != st.PeakResidentBytes {
		t.Fatalf("closed store books: %+v", st)
	}
	if err := km.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	var none *KeyManager
	if _, _, err := none.Acquire(nil, "test", RelinKeyID); !errors.Is(err, fherr.ErrMissingKey) {
		t.Fatalf("nil store: err = %v, want ErrMissingKey", err)
	}
}

func TestCompressRoundTrip(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 8, 4, nil)
	swk := s.kg.GenRelinKey(s.sk)
	dense := cloneKey(swk)
	denseBytes := swk.ResidentBytes()
	swk.Compress()
	if !swk.Compressed() {
		t.Fatal("Compress left dense halves")
	}
	if got := swk.ResidentBytes(); got*2 != denseBytes {
		t.Fatalf("compressed key holds %d bytes, want half of %d", got, denseBytes)
	}
	rebuilt := denseKey(s.params.Ctx, swk)
	for j := range swk.A {
		if !rebuilt.A[j].Equal(dense.A[j]) {
			t.Fatalf("digit %d: decompressed A differs from original", j)
		}
	}
}

// TestCompressedKeysDifferential: every keyswitch consumer must produce
// bit-identical ciphertexts from seed-compressed keys — fused and staged,
// workers 1 and 4, both schemes.
func TestCompressedKeysDifferential(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		s := newTestSetup(t, scheme, 4, 40, 61, 9, 8, []int{1, 3})
		rng := rand.New(rand.NewPCG(301, 302))
		a := s.encryptValues(randomValues(s.params.Slots(), rng))
		b := s.encryptValues(randomValues(s.params.Slots(), rng))

		// A twin evaluator over the same params whose keys are the same
		// bits, seed-compressed. The keys are pinned before they are
		// compressed: Acquire promotes only unpinned keys, so every
		// keyswitch below regenerates A rows inside its dispatch.
		ckg := NewKeyGenerator(s.params, 11, 22)
		csk := ckg.GenSecretKey()
		ckm := NewKeyManager(s.params, ckg, csk, 1)
		n := s.params.N()
		ids := []uint64{RelinKeyID, ring.GaloisElementForRotation(1, n),
			ring.GaloisElementForRotation(3, n), ring.GaloisElementForConjugation(n)}
		unpin, err := ckm.Pin(nil, "test", ids)
		if err != nil {
			t.Fatal(err)
		}
		compressStore(ckm)
		cev := NewEvaluator(s.params, ckm)

		ops := []struct {
			name string
			run  func(ev *Evaluator) *Ciphertext
		}{
			{"MulRelin", func(ev *Evaluator) *Ciphertext { return ev.MustMulRelin(a, b) }},
			{"MulRescale", func(ev *Evaluator) *Ciphertext { return ev.MustMulRescale(a, b) }},
			{"Rotate", func(ev *Evaluator) *Ciphertext { return ev.MustRotate(a, 3) }},
			{"Conjugate", func(ev *Evaluator) *Ciphertext { return ev.MustConjugate(a) }},
			{"RotateHoisted", func(ev *Evaluator) *Ciphertext { return ev.MustRotateHoisted(a, []int{1, 3})[1] }},
		}
		for _, workers := range []int{1, 4} {
			for _, fused := range []bool{true, false} {
				for _, op := range ops {
					s.ev.SetFused(fused)
					cev.SetFused(fused)
					want := runWithWorkers(t, workers, func() *Ciphertext { return op.run(s.ev) })
					got := runWithWorkers(t, workers, func() *Ciphertext { return op.run(cev) })
					if !ctEqualNoise(got, want) {
						t.Fatalf("%v workers=%d fused=%v: %s from compressed keys differs from dense",
							scheme, workers, fused, op.name)
					}
				}
			}
		}
		for _, id := range ids {
			if !ckm.entries[id].swk.Compressed() {
				t.Fatalf("%v: key %d was promoted to dense form", scheme, id)
			}
		}
		if st := ckm.Stats(); st.KeyGens != int64(len(ids)) || st.ARegens != 0 || st.Evictions != 0 {
			t.Fatalf("%v: keys left their seeded form: %+v", scheme, st)
		}
		unpin()
		if err := ckm.VerifyIntegrity(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKeyManagerDifferential: a budget small enough to force demotion and
// eviction mid-pipeline must not change a single bit of the results.
func TestKeyManagerDifferential(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		s := newTestSetup(t, scheme, 4, 40, 61, 9, 8, []int{1, 2, 3})
		rng := rand.New(rand.NewPCG(401, 402))
		vals := randomValues(s.params.Slots(), rng)
		a := s.encryptValues(vals)
		b := s.encryptValues(randomValues(s.params.Slots(), rng))

		oneKey := s.kg.GenRelinKey(s.sk).ResidentBytes()
		kg := NewKeyGenerator(s.params, 11, 22)
		sk := kg.GenSecretKey()

		// Budget holds ~1.5 dense keys: every second acquisition evicts.
		km := NewKeyManager(s.params, kg, sk, oneKey*3/2)
		kev := NewEvaluator(s.params, nil)
		kev.SetKeyManager(km)

		pipeline := func(ev *Evaluator) *Ciphertext {
			x := ev.MustRotate(a, 1)
			x = ev.MustMulRescale(x, b)
			x = ev.MustRotate(x, 2)
			x = ev.MustAdd(x, ev.MustRotate(x, 3))
			x = ev.MustConjugate(x)
			outs := ev.MustRotateHoisted(x, []int{1, 2, 3})
			return ev.MustMulRescale(outs[0], outs[2])
		}
		for _, workers := range []int{1, 4} {
			want := runWithWorkers(t, workers, func() *Ciphertext { return pipeline(s.ev) })
			got := runWithWorkers(t, workers, func() *Ciphertext { return pipeline(kev) })
			if !ctEqualNoise(got, want) {
				t.Fatalf("%v workers=%d: key-manager pipeline differs from the closed store's", scheme, workers)
			}
		}
		st := km.Stats()
		if st.KeyGens == 0 || st.Misses == 0 {
			t.Fatalf("manager never generated: %+v", st)
		}
		if st.Demotions == 0 && st.Evictions == 0 {
			t.Fatalf("budget %d never forced demotion/eviction: %+v", km.budget, st)
		}
		if st.ResidentBytes > st.PeakResidentBytes {
			t.Fatalf("resident %d exceeds peak %d", st.ResidentBytes, st.PeakResidentBytes)
		}
	}
}

// TestKeyManagerLinearTransform: the BSGS transform pins its whole key
// demand up front; under a budget smaller than the working set it must
// still complete (soft budget) and match the static-keys result bit for
// bit.
func TestKeyManagerLinearTransform(t *testing.T) {
	const dim = 8
	rots := []int{1, 2, 3, 4, 5, 6, 7}
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 9, 8, rots)
	rng := rand.New(rand.NewPCG(501, 502))

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
	ct := s.encryptValues(randomValues(s.params.Slots(), rng))

	oneKey := s.kg.GenRelinKey(s.sk).ResidentBytes()
	kg := NewKeyGenerator(s.params, 11, 22)
	sk := kg.GenSecretKey()
	km := NewKeyManager(s.params, kg, sk, oneKey*2) // far below the plan's demand
	kev := NewEvaluator(s.params, nil)
	kev.SetKeyManager(km)

	want := s.ev.MustApplyLinearTransform(ct, lt)
	got := kev.MustApplyLinearTransform(ct, lt)
	if !ctEqualNoise(got, want) {
		t.Fatal("key-manager BSGS transform differs from static dense keys")
	}
	st := km.Stats()
	if st.PeakResidentBytes <= km.budget {
		t.Fatalf("pinned plan should overshoot the soft budget: peak %d budget %d", st.PeakResidentBytes, km.budget)
	}
	if st.ResidentBytes > km.budget {
		t.Fatalf("budget not enforced after release: resident %d budget %d", st.ResidentBytes, km.budget)
	}
}

// TestKeyManagerBootstrapDifferential: a full Refresh served entirely by
// lazy cache-managed keys must match the eager dense run bit for bit.
func TestKeyManagerBootstrapDifferential(t *testing.T) {
	const (
		deg = 19
		k   = 2
	)
	lvls := ChebyshevDepth(deg) + 4
	targets := make([]float64, lvls+1)
	for i := range targets {
		targets[i] = 40
	}
	prog := core.ProgramSpec{MaxLevel: lvls, TargetScaleBits: targets, QMinBits: 48}
	params, err := BuildParameters(core.BitPacker, prog, core.SecuritySpec{LogN: 8}, core.HWSpec{WordBits: 61}, 8, 3.2)
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

	kg2 := NewKeyGenerator(params, 101, 102)
	sk2 := kg2.GenSecretKeySparse(3)
	km := NewKeyManager(params, kg2, sk2, ev.KeyManager().Stats().ResidentBytes/4)
	kev := NewEvaluator(params, nil)
	kev.SetKeyManager(km)

	encr := NewEncryptor(params, pk, 103, 104)
	rng := rand.New(rand.NewPCG(105, 106))
	vals := make([]complex128, params.Slots())
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

	want, err := bs.Refresh(ev, exhausted)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bs.Refresh(kev, exhausted)
	if err != nil {
		t.Fatal(err)
	}
	if !ctEqualNoise(got, want) {
		t.Fatal("key-manager bootstrap differs from eager dense keys")
	}
	if st := km.Stats(); st.Evictions == 0 {
		t.Fatalf("quarter-size budget never evicted during bootstrap: %+v", st)
	}
}

// TestKeyManagerStatesAndPins drives the cache through its three states
// and checks the pin contract directly.
func TestKeyManagerStatesAndPins(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 8, 4, nil)
	kg := NewKeyGenerator(s.params, 11, 22)
	sk := kg.GenSecretKey()
	oneKey := kg.GenRelinKey(sk).ResidentBytes()

	km := NewKeyManager(s.params, kg, sk, oneKey*2)
	n := s.params.N()
	els := []uint64{
		ring.GaloisElementForRotation(1, n),
		ring.GaloisElementForRotation(2, n),
		ring.GaloisElementForRotation(3, n),
	}

	// Fill past the budget: with room for two dense keys, the coldest
	// key is demoted to compressed form, and further pressure evicts.
	var rels []func()
	for _, el := range els {
		_, rel, err := km.Acquire(nil, "test", el)
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	st := km.Stats()
	if st.ResidentBytes <= km.budget {
		t.Fatalf("three pinned keys should overshoot: resident %d budget %d", st.ResidentBytes, km.budget)
	}
	if st.Demotions != 0 || st.Evictions != 0 {
		t.Fatalf("pinned keys were demoted/evicted: %+v", st)
	}
	for _, rel := range rels {
		rel()
		rel() // idempotent
	}
	// Re-acquiring triggers enforcement on each call; after the churn
	// the footprint must sit within budget once all pins are dropped.
	_, rel, err := km.Acquire(nil, "test", els[0])
	if err != nil {
		t.Fatal(err)
	}
	rel()
	st = km.Stats()
	if st.ResidentBytes > km.budget {
		t.Fatalf("unpinned footprint above budget: resident %d budget %d", st.ResidentBytes, km.budget)
	}
	if st.Demotions == 0 && st.Evictions == 0 {
		t.Fatalf("pressure never reclaimed anything: %+v", st)
	}

	// A cold re-acquisition is a miss that regenerates bit-identical
	// key material.
	want := kg.GenGaloisKey(sk, els[1])
	swk, rel2, err := km.Acquire(nil, "test", els[1])
	if err != nil {
		t.Fatal(err)
	}
	if !swkEqual(s, swk, want) {
		t.Fatal("regenerated key differs from direct generation")
	}
	rel2()

	// Unlimited budget: nothing is ever demoted or evicted.
	km2 := NewKeyManager(s.params, kg, sk, 0)
	for _, el := range els {
		_, rel, err := km2.Acquire(nil, "test", el)
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	if st := km2.Stats(); st.Demotions != 0 || st.Evictions != 0 {
		t.Fatalf("unlimited budget reclaimed keys: %+v", st)
	}
}

// TestOneKeyRotationAcquiresOnce: a hoisted op whose demand is one key
// acquires it once, by its rotation, and pins nothing beforehand, so on a
// budgeted store a cold rotation is one miss and a warm one one hit (a
// pin counts one Acquire of its own, and a pinned key is not promoted).
// A demand of two keys is pinned first: two acquires per key.
func TestOneKeyRotationAcquiresOnce(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 9, 3, nil)
	km := NewKeyManager(s.params, s.kg, s.sk, 1<<30)
	s.ev.SetKeyManager(km)
	ct := s.encryptValues(randomValues(s.params.Slots(), rand.New(rand.NewPCG(611, 612))))
	acquires := func() int64 { st := km.Stats(); return st.Hits + st.Misses }
	for _, c := range []struct {
		name string
		run  func()
		want int64
	}{
		{"cold Rotate", func() { s.ev.MustRotate(ct, 1) }, 1},
		{"warm Rotate", func() { s.ev.MustRotate(ct, 1) }, 1},
		{"Conjugate", func() { s.ev.MustConjugate(ct) }, 1},
		{"RotateHoisted one step", func() { s.ev.MustRotateHoisted(ct, []int{1, 0, 1}) }, 1},
		{"RotateHoisted two steps", func() { s.ev.MustRotateHoisted(ct, []int{1, 2}) }, 4},
	} {
		before := acquires()
		c.run()
		if got := acquires() - before; got != c.want {
			t.Errorf("%s: Hits+Misses moved by %d, want %d", c.name, got, c.want)
		}
	}
}

// TestKeyManagerHammer exercises the manager from many goroutines with a
// budget small enough that keys constantly bounce between all three
// states. Run under -race (make race covers this package), and every
// result is checked against a single-threaded reference.
func TestKeyManagerHammer(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 8, 4, []int{1, 2, 3, 4})
	rng := rand.New(rand.NewPCG(601, 602))
	ct := s.encryptValues(randomValues(s.params.Slots(), rng))

	refs := make([]*Ciphertext, 4)
	for i := range refs {
		refs[i] = s.ev.MustRotate(ct, i+1)
	}

	kg := NewKeyGenerator(s.params, 11, 22)
	sk := kg.GenSecretKey()
	oneKey := kg.GenRelinKey(sk).ResidentBytes()
	// Room for three of the four keys dense: enough reuse for hits, with
	// continuous demotion/eviction churn on the fourth.
	km := NewKeyManager(s.params, kg, sk, oneKey*3)

	const goroutines = 8
	const iters = 12
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// One evaluator per goroutine (evaluators are not themselves
			// concurrent-safe); the manager is the shared object under test.
			ev := NewEvaluator(s.params, nil)
			ev.SetKeyManager(km)
			for i := 0; i < iters; i++ {
				step := (g+i)%4 + 1
				got, err := ev.Rotate(ct, step)
				if err != nil {
					errs <- err
					return
				}
				if !ctEqualNoise(got, refs[step-1]) {
					errs <- errRotateMismatch(step)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := km.Stats()
	if st.Hits == 0 || st.KeyGens == 0 {
		t.Fatalf("hammer exercised nothing: %+v", st)
	}
	if st.ResidentBytes > km.budget {
		t.Fatalf("resident %d above budget %d after hammer", st.ResidentBytes, km.budget)
	}
}

type errRotateMismatch int

func (e errRotateMismatch) Error() string { return "concurrent rotate result differs from reference" }

// TestKeyManagerPinReleaseHammer mixes single acquires, plan-wide pins,
// double releases, and canceled acquires of the same keys from many
// goroutines under a budget that keeps every key bouncing between full,
// compressed and cold — the serving-layer access pattern, where pins are
// held across request lifetimes. After the churn (and at sample points
// during it) the manager's books must balance exactly: resident bytes
// recomputed from the entries must equal the tracked counter, no entry
// may hold negative pins, and the LRU must mirror residency. Run under
// -race (make race covers this package).
func TestKeyManagerPinReleaseHammer(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 8, 4, nil)
	kg := NewKeyGenerator(s.params, 11, 22)
	sk := kg.GenSecretKey()
	oneKey := kg.GenRelinKey(sk).ResidentBytes()
	// Room for two dense keys across five ids: constant demote/evict/
	// promote churn, with pinned overshoot whenever a plan pins them all.
	km := NewKeyManager(s.params, kg, sk, oneKey*2)
	n := s.params.N()
	ids := []uint64{
		RelinKeyID,
		ring.GaloisElementForRotation(1, n),
		ring.GaloisElementForRotation(2, n),
		ring.GaloisElementForRotation(3, n),
		ring.GaloisElementForRotation(4, n),
	}

	const goroutines = 10
	const iters = 40
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g)+1, 777))
			for i := 0; i < iters; i++ {
				switch rng.IntN(4) {
				case 0, 1: // pin one key, hold briefly, release (sometimes twice)
					_, rel, err := km.Acquire(nil, "hammer", ids[rng.IntN(len(ids))])
					if err != nil {
						errs <- err
						return
					}
					rel()
					if rng.IntN(4) == 0 {
						rel() // releases must stay idempotent under contention
					}
				case 2: // plan-wide pin of an overlapping subset
					subset := ids[:1+rng.IntN(len(ids))]
					rel, err := km.Pin(nil, "hammer", subset)
					if err != nil {
						errs <- err
						return
					}
					rel()
				case 3: // pre-canceled acquire: typed refusal, no accounting effect
					cctx, cancel := context.WithCancel(context.Background())
					cancel()
					if _, _, err := km.Acquire(cctx, "hammer", ids[rng.IntN(len(ids))]); !errors.Is(err, fherr.ErrCanceled) {
						errs <- fmt.Errorf("canceled acquire: got %v, want ErrCanceled", err)
						return
					}
				}
				if i%8 == 0 {
					if err := km.VerifyIntegrity(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := km.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	st := km.Stats()
	if st.ResidentBytes > km.budget {
		t.Fatalf("resident %d above budget %d with all pins released", st.ResidentBytes, km.budget)
	}
	if st.KeyGens == 0 || st.Evictions == 0 {
		t.Fatalf("hammer never churned the cache: %+v", st)
	}
	// KeyCacheStats.Resident must be exact: the snapshot equals the sum
	// over entries (VerifyIntegrity proved tracked == actual; the public
	// stats must report that same tracked value).
	km.mu.Lock()
	tracked := km.resident
	km.mu.Unlock()
	if st2 := km.Stats(); st2.ResidentBytes != tracked {
		t.Fatalf("Stats reports %d resident bytes, tracked %d", st2.ResidentBytes, tracked)
	}
}

// checkBudgetCtx cancels itself after a fixed number of Err() checks, so
// a cancellation can be planted deterministically inside the A-half
// materialization dispatch.
type checkBudgetCtx struct {
	context.Context
	budget atomic.Int64
}

func newCheckBudgetCtx(checks int64) *checkBudgetCtx {
	c := &checkBudgetCtx{Context: context.Background()}
	c.budget.Store(checks)
	return c
}

func (c *checkBudgetCtx) Err() error {
	if c.budget.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestKeyManagerCancelMidPromote plants a cancellation inside the
// compressed→full promotion (the A-regeneration dispatch). The failure
// must surface as ErrCanceled — not be laundered into ErrEngineFault,
// which retry rungs would pointlessly re-run — and must leave the key in
// its consistent compressed state with the books balanced, so the next
// acquire succeeds bit-identically. Regression test for materializeA
// discarding the dispatch error's class.
func TestKeyManagerCancelMidPromote(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 8, 4, nil)
	kg := NewKeyGenerator(s.params, 11, 22)
	sk := kg.GenSecretKey()
	oneKey := kg.GenRelinKey(sk).ResidentBytes()
	// Budget admits one dense key plus one compressed: acquiring a second
	// key demotes the first, and re-acquiring the first promotes it.
	km := NewKeyManager(s.params, kg, sk, oneKey*3/2)
	n := s.params.N()
	el1 := ring.GaloisElementForRotation(1, n)
	el2 := ring.GaloisElementForRotation(2, n)

	_, rel1, err := km.Acquire(nil, "test", el1)
	if err != nil {
		t.Fatal(err)
	}
	rel1()
	_, rel2, err := km.Acquire(nil, "test", el2)
	if err != nil {
		t.Fatal(err)
	}
	rel2() // el1 is now compressed, el2 full

	// One Err() check survives the Acquire prologue; the next — inside
	// the materialization dispatch — cancels.
	cctx := newCheckBudgetCtx(1)
	_, _, err = km.Acquire(cctx, "test", el1)
	if err == nil {
		t.Fatal("acquire survived a context canceled mid-promotion")
	}
	if !errors.Is(err, fherr.ErrCanceled) {
		t.Fatalf("mid-promotion cancel: got %v, want ErrCanceled", err)
	}
	if errors.Is(err, fherr.ErrEngineFault) {
		t.Fatalf("cancellation laundered into an engine fault: %v", err)
	}
	if err := km.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}

	// The interrupted key stays serviceable and bit-identical.
	want := kg.GenGaloisKey(sk, el1)
	swk, rel, err := km.Acquire(nil, "test", el1)
	if err != nil {
		t.Fatal(err)
	}
	if !swkEqual(s, swk, want) {
		t.Fatal("key differs after interrupted promotion")
	}
	rel()
	if err := km.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// Silence unused-import lint trickery for helper aliases below.
var _ = engine.Workers
