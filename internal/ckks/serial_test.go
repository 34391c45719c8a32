package ckks

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"

	"bitpacker/internal/core"
)

func TestCiphertextSerializationRoundTrip(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 10, 8, nil)
	rng := rand.New(rand.NewPCG(41, 42))
	vals := randomValues(s.params.Slots(), rng)
	ct := s.encryptValues(vals)

	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCiphertext(s.params, blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Level != ct.Level || got.Scale.Cmp(ct.Scale) != 0 {
		t.Fatal("metadata mismatch")
	}
	if !got.C0.Equal(ct.C0) || !got.C1.Equal(ct.C1) {
		t.Fatal("polynomial mismatch")
	}
	// The deserialized ciphertext must decrypt identically.
	want := s.decrypt(ct)
	have := s.decrypt(got)
	if e := maxErr(have, want); e != 0 {
		t.Fatalf("decryption differs after roundtrip: %g", e)
	}
	// And still supports homomorphic ops.
	sq := s.ev.MustRescale(s.ev.MustSquare(got))
	res := s.decrypt(sq)
	ref := make([]complex128, len(vals))
	for i := range vals {
		ref[i] = vals[i] * vals[i]
	}
	if e := maxErr(res, ref); e > 1e-4 {
		t.Fatalf("post-roundtrip square error %g", e)
	}
}

func TestCiphertextSerializationAtLowerLevel(t *testing.T) {
	s := newTestSetup(t, core.RNSCKKS, 3, 40, 61, 10, 8, nil)
	rng := rand.New(rand.NewPCG(43, 44))
	ct := s.encryptValues(randomValues(s.params.Slots(), rng))
	low := s.ev.MustRescale(s.ev.MustSquare(ct))
	blob, err := low.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCiphertext(s.params, blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Level != low.Level || got.R() != low.R() {
		t.Fatal("level/residues mismatch")
	}
}

func TestCiphertextUnmarshalRejectsCorruption(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 10, 8, nil)
	rng := rand.New(rand.NewPCG(45, 46))
	ct := s.encryptValues(randomValues(s.params.Slots(), rng))
	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("XXXX"), blob[4:]...),
		"truncated":  blob[:len(blob)/2],
		"trailing":   append(append([]byte{}, blob...), 0),
		"bad varint": blob[:6],
	}
	// Residue out of range: patch a coefficient to its modulus value.
	bad := append([]byte{}, blob...)
	for i := len(bad) - 8; i < len(bad); i++ {
		bad[i] = 0xff
	}
	cases["oversized residue"] = bad
	for name, data := range cases {
		if _, err := UnmarshalCiphertext(s.params, data); err == nil {
			t.Fatalf("%s: corruption accepted", name)
		}
	}
	// Wrong parameter set (different N).
	other := newTestSetup(t, core.BitPacker, 2, 40, 61, 9, 8, nil)
	if _, err := UnmarshalCiphertext(other.params, blob); err == nil {
		t.Fatal("foreign parameters accepted")
	}
}

// TestUnmarshalHostileLengths: length fields are attacker-controlled once
// blobs arrive over the network, so a declared size beyond the actual
// payload must fail cleanly without driving an allocation of the declared
// size. Regression test for the reader trusting its length operands.
func TestUnmarshalHostileLengths(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 61, 10, 8, nil)
	rng := rand.New(rand.NewPCG(47, 48))
	ct := s.encryptValues(randomValues(s.params.Slots(), rng))
	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// The scale-numerator length field sits after magic|version|level|
	// isNTT|noiseBits. Declare ~4 GiB on a tiny remaining payload.
	const numLenOff = 4 + 1 + 4 + 1 + 8
	hostile := append([]byte{}, blob...)
	binary.LittleEndian.PutUint32(hostile[numLenOff:], 0xFFFFFFF0)
	if _, err := UnmarshalCiphertext(s.params, hostile); err == nil {
		t.Fatal("hostile scale length accepted")
	}

	// Same field, declared just past the remaining payload.
	binary.LittleEndian.PutUint32(hostile[numLenOff:], uint32(len(blob)))
	if _, err := UnmarshalCiphertext(s.params, hostile); err == nil {
		t.Fatal("overrunning scale length accepted")
	}

	// A consistent header whose coefficient payload is short must be
	// rejected before the polynomial allocations.
	if _, err := UnmarshalCiphertext(s.params, blob[:len(blob)-8]); err == nil {
		t.Fatal("short coefficient payload accepted")
	}
}

// TestReaderClampsHostileTake: the bounds-checked cursor must never
// allocate what the payload cannot back — the failure-path buffer stays
// bounded no matter what size the blob declared.
func TestReaderClampsHostileTake(t *testing.T) {
	rd := reader{buf: make([]byte, 16)}
	if got := rd.take(1 << 30); len(got) > 8 {
		t.Fatalf("hostile take allocated %d bytes", len(got))
	}
	if rd.err == nil {
		t.Fatal("oversized take did not record an error")
	}
	// Primitive reads on the failed cursor stay in bounds.
	_ = rd.u8()
	_ = rd.u32()
	_ = rd.u64()
	rd2 := reader{buf: make([]byte, 4)}
	if got := rd2.take(-1); len(got) > 8 || rd2.err == nil {
		t.Fatalf("negative take: len %d, err %v", len(got), rd2.err)
	}
}
