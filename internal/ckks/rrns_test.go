package ckks

import (
	"errors"
	"math/rand/v2"
	"testing"

	"bitpacker/internal/core"
	"bitpacker/internal/fherr"
)

// newRRNSSetup is newTestSetup over a chain carrying the RRNS spare.
func newRRNSSetup(t testing.TB, scheme core.Scheme, levels int, scaleBits float64, w, logN, dnum int, rotations []int) *testSetup {
	t.Helper()
	targets := make([]float64, levels+1)
	for i := range targets {
		targets[i] = scaleBits
	}
	prog := core.ProgramSpec{MaxLevel: levels, TargetScaleBits: targets, QMinBits: scaleBits + 20}
	params, err := BuildParametersExt(scheme, prog, core.SecuritySpec{LogN: logN}, core.HWSpec{WordBits: w}, dnum, 3.2, true)
	if err != nil {
		t.Fatal(err)
	}
	if params.SpareModulus() == 0 {
		t.Fatal("redundant-residue parameters have no spare modulus")
	}
	kg := NewKeyGenerator(params, 11, 22)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	return &testSetup{
		params: params,
		enc:    NewEncoder(params),
		kg:     kg,
		sk:     sk,
		pk:     pk,
		encr:   NewEncryptor(params, pk, 33, 44),
		dec:    NewDecryptor(params, sk),
		ev:     NewEvaluator(params, NewClosedKeyManager(params, kg, sk, rotations, true)),
	}
}

// TestRRNSCleanPath: with the spare channel on, a multiply-rescale-add
// circuit computes the same values as ever, the fresh ciphertexts carry
// seeded spares, and every rescale's cross-check passes silently.
func TestRRNSCleanPath(t *testing.T) {
	for _, scheme := range []core.Scheme{core.RNSCKKS, core.BitPacker} {
		s := newRRNSSetup(t, scheme, 3, 40, 61, 10, 8, nil)
		s.ev.SetInvariantChecks(true)
		rng := rand.New(rand.NewPCG(10, 20))
		a := randomValues(s.params.Slots(), rng)
		b := randomValues(s.params.Slots(), rng)
		ca := s.encryptValues(a)
		cb := s.encryptValues(b)
		if ca.SpareDepth != 1 {
			t.Fatalf("%v: fresh ciphertext spare depth = %d, want 1", scheme, ca.SpareDepth)
		}

		sum := s.ev.MustAdd(ca, cb)
		if sum.SpareDepth != 2 {
			t.Fatalf("%v: add spare depth = %d, want 2", scheme, sum.SpareDepth)
		}
		prod := s.ev.MustRescale(s.ev.MustMulRelin(ca, cb))
		if prod.SpareDepth != 1 {
			t.Fatalf("%v: rescale output spare depth = %d, want 1 (reseeded)", scheme, prod.SpareDepth)
		}
		out := s.ev.MustAdd(prod, s.ev.MustAdjust(sum))

		got := s.decrypt(out)
		want := make([]complex128, len(a))
		for i := range a {
			want[i] = a[i]*b[i] + a[i] + b[i]
		}
		if e := maxErr(got, want); e > 1e-4 {
			t.Fatalf("%v: clean-path error %g", scheme, e)
		}
	}
}

// TestRRNSSpareAlgebra drives the tracked ops (add, sub, neg, scalar
// mul) and then forces the rescale cross-check to run on the widened
// window: any bookkeeping error in the wrap-count algebra would trip it.
func TestRRNSSpareAlgebra(t *testing.T) {
	s := newRRNSSetup(t, core.BitPacker, 2, 40, 61, 9, 8, nil)
	rng := rand.New(rand.NewPCG(30, 40))
	a := randomValues(s.params.Slots(), rng)
	b := randomValues(s.params.Slots(), rng)
	ca := s.encryptValues(a)
	cb := s.encryptValues(b)

	x := s.ev.MustAdd(ca, cb)          // depth 2
	x = s.ev.MustSub(x, cb)            // depth 3
	x = s.ev.MustNeg(x)                // depth 4
	y := s.ev.MustMulScalarInt(ca, -3) // depth 4
	x = s.ev.MustAdd(x, y)             // depth 8
	if x.SpareDepth != 8 {
		t.Fatalf("spare depth = %d, want 8", x.SpareDepth)
	}
	// Adjust runs Rescale underneath: the cross-check scans the m-window.
	out := s.ev.MustAdjust(x)
	if out.SpareDepth != 1 {
		t.Fatalf("adjust output spare depth = %d, want 1", out.SpareDepth)
	}
	got := s.decrypt(out)
	want := make([]complex128, len(a))
	for i := range a {
		want[i] = -(a[i] + b[i] - b[i]) - 3*a[i] // = -4a
	}
	if e := maxErr(got, want); e > 1e-4 {
		t.Fatalf("algebra error %g", e)
	}

	// Past the window cap the channel goes stale instead of lying.
	z := s.encryptValues(a)
	for i := 0; i < 5; i++ {
		z = s.ev.MustAdd(z, z)
	}
	if z.SpareDepth != 0 {
		t.Fatalf("deep add chain spare depth = %d, want 0 (stale)", z.SpareDepth)
	}
}

// TestRRNSRepairsCorruptResidue is the heart of the ladder's first rung:
// a bit-flipped residue word (the chaos injector's fault signature) is
// repaired in place by the next operation, and the final decryption
// matches the fault-free run exactly.
func TestRRNSRepairsCorruptResidue(t *testing.T) {
	for _, scheme := range []core.Scheme{core.RNSCKKS, core.BitPacker} {
		s := newRRNSSetup(t, scheme, 3, 40, 61, 10, 8, nil)
		s.ev.SetInvariantChecks(true)
		rng := rand.New(rand.NewPCG(50, 60))
		a := randomValues(s.params.Slots(), rng)
		b := randomValues(s.params.Slots(), rng)

		// Encrypt once: the encryptor's randomness stream is stateful, so
		// exact clean-vs-healed comparison needs identical inputs.
		ca0 := s.encryptValues(a)
		cb0 := s.encryptValues(b)
		run := func(corrupt func(*Ciphertext)) []complex128 {
			ca := ca0.CopyNew()
			cb := cb0.CopyNew()
			if corrupt != nil {
				corrupt(ca)
			}
			out := s.ev.MustRescale(s.ev.MustMulRelin(ca, cb))
			return s.decrypt(out)
		}

		clean := run(nil)
		frng := rand.New(rand.NewPCG(70, 80))
		for trial := 0; trial < 4; trial++ {
			healed := run(func(ct *Ciphertext) {
				polys := [...][][]uint64{ct.C0.Coeffs, ct.C1.Coeffs}
				pi := frng.IntN(2)
				ri := frng.IntN(len(polys[pi]))
				ci := frng.IntN(len(polys[pi][ri]))
				polys[pi][ri][ci] ^= 1 << 63
			})
			if e := maxErr(healed, clean); e != 0 {
				t.Fatalf("%v trial %d: repaired run differs from fault-free run by %g", scheme, trial, e)
			}
		}
	}
}

// TestRRNSCorruptSpareDropsChannel: a fault in the check channel itself
// must not fail the computation — the channel is dropped and the values
// remain correct.
func TestRRNSCorruptSpareDropsChannel(t *testing.T) {
	s := newRRNSSetup(t, core.BitPacker, 2, 40, 61, 9, 8, nil)
	rng := rand.New(rand.NewPCG(90, 100))
	a := randomValues(s.params.Slots(), rng)
	ca := s.encryptValues(a)
	ca.Spare0[3] ^= 1 << 63
	out := s.ev.MustAdd(ca, ca)
	if ca.SpareDepth != 0 {
		t.Fatal("corrupted spare channel not dropped")
	}
	if out.SpareDepth != 0 {
		t.Fatal("output inherited a dropped channel as fresh")
	}
	got := s.decrypt(out)
	want := make([]complex128, len(a))
	for i := range a {
		want[i] = 2 * a[i]
	}
	if e := maxErr(got, want); e > 1e-4 {
		t.Fatalf("error %g after dropping spare", e)
	}
}

// TestRRNSDetectsInRangeTamper: corruption that stays inside [0, q) is
// invisible to the range scan but must be caught by the rescale
// cross-check against the spare channel.
func TestRRNSDetectsInRangeTamper(t *testing.T) {
	for _, scheme := range []core.Scheme{core.RNSCKKS, core.BitPacker} {
		s := newRRNSSetup(t, scheme, 2, 40, 61, 9, 8, nil)
		rng := rand.New(rand.NewPCG(110, 120))
		a := randomValues(s.params.Slots(), rng)
		ca := s.encryptValues(a)
		// In-range tamper: add 1 mod q to one live residue word.
		q := ca.C0.Moduli[0]
		ca.C0.Coeffs[0][5] = (ca.C0.Coeffs[0][5] + 1) % q
		_, err := s.ev.Rescale(s.ev.MustMulScalarInt(ca, 1))
		if err == nil {
			t.Fatalf("%v: in-range corruption slipped past the RRNS cross-check", scheme)
		}
		if !errors.Is(err, fherr.ErrInvariant) {
			t.Fatalf("%v: RRNS mismatch not classified as ErrInvariant: %v", scheme, err)
		}
	}
}

// TestRRNSUnrepairable: multi-residue corruption and corruption with a
// stale spare are detected (not silently accepted) and classified for
// the retry/checkpoint rungs.
func TestRRNSUnrepairable(t *testing.T) {
	s := newRRNSSetup(t, core.BitPacker, 2, 40, 61, 9, 8, nil)
	rng := rand.New(rand.NewPCG(130, 140))
	a := randomValues(s.params.Slots(), rng)

	// Two corrupted residues of the same polynomial.
	ca := s.encryptValues(a)
	ca.C0.Coeffs[0][1] ^= 1 << 63
	ca.C0.Coeffs[1][2] ^= 1 << 63
	if _, err := s.ev.Add(ca, ca); !errors.Is(err, fherr.ErrInvariant) {
		t.Fatalf("multi-residue corruption: got %v, want ErrInvariant", err)
	}

	// Corruption while the spare is stale (cleared by a plaintext op).
	cb := s.encryptValues(a)
	cb.clearSpare()
	cb.C1.Coeffs[0][7] ^= 1 << 63
	if _, err := s.ev.Add(cb, cb); !errors.Is(err, fherr.ErrInvariant) {
		t.Fatalf("stale-spare corruption: got %v, want ErrInvariant", err)
	}
}

// TestRRNSSerializationReseed: spares are not serialized; a deserialized
// ciphertext reseeds explicitly and keeps verifying.
func TestRRNSSerializationReseed(t *testing.T) {
	s := newRRNSSetup(t, core.BitPacker, 2, 40, 61, 9, 8, nil)
	rng := rand.New(rand.NewPCG(150, 160))
	a := randomValues(s.params.Slots(), rng)
	ca := s.encryptValues(a)
	blob, err := ca.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalCiphertext(s.params, blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.SpareDepth != 0 {
		t.Fatal("deserialized ciphertext claims a spare it cannot have")
	}
	back.SeedSpare(s.params)
	if back.SpareDepth != 1 {
		t.Fatal("SeedSpare did not seed")
	}
	// The reseeded channel verifies at the next rescale.
	out := s.ev.MustAdjust(back)
	got := s.decrypt(out)
	if e := maxErr(got, a); e > 1e-4 {
		t.Fatalf("error %g after reseed", e)
	}
}
