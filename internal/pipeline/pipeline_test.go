package pipeline

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"bitpacker/internal/ckks"
	"bitpacker/internal/core"
	"bitpacker/internal/frame"
)

var bothSchemes = []core.Scheme{core.RNSCKKS, core.BitPacker}

type setup struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	encr   *ckks.Encryptor
	dec    *ckks.Decryptor
	ev     *ckks.Evaluator
}

func newSetup(t testing.TB, scheme core.Scheme, rrns bool) *setup {
	t.Helper()
	return newSetupLogN(t, scheme, rrns, 9)
}

func newSetupLogN(t testing.TB, scheme core.Scheme, rrns bool, logN int) *setup {
	t.Helper()
	const (
		levels    = 3
		scaleBits = 40.0
	)
	targets := make([]float64, levels+1)
	for i := range targets {
		targets[i] = scaleBits
	}
	prog := core.ProgramSpec{MaxLevel: levels, TargetScaleBits: targets, QMinBits: scaleBits + 20}
	params, err := ckks.BuildParametersExt(scheme, prog, core.SecuritySpec{LogN: logN}, core.HWSpec{WordBits: 61}, 8, 3.2, rrns)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, 11, 22)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	return &setup{
		params: params,
		enc:    ckks.NewEncoder(params),
		encr:   ckks.NewEncryptor(params, pk, 33, 44),
		dec:    ckks.NewDecryptor(params, sk),
		ev:     ckks.NewEvaluator(params, ckks.NewClosedKeyManager(params, kg, sk, nil, false)),
	}
}

func (s *setup) encrypt(t testing.TB, vals []complex128) *ckks.Ciphertext {
	t.Helper()
	lvl := s.params.MaxLevel()
	pt := &ckks.Plaintext{
		Value: s.enc.MustEncode(vals, s.params.DefaultScale(lvl), s.params.LevelModuli(lvl)),
		Level: lvl,
		Scale: s.params.DefaultScale(lvl),
	}
	return s.encr.MustEncryptAtLevel(pt, lvl)
}

func randVals(n int, rng *rand.Rand) []complex128 {
	vals := make([]complex128, n)
	for i := range vals {
		vals[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	return vals
}

func maxErr(got, want []complex128) float64 {
	var m float64
	for i := range got {
		d := got[i] - want[i]
		if e := real(d)*real(d) + imag(d)*imag(d); e > m {
			m = e
		}
	}
	return m
}

func TestStateRoundTrip(t *testing.T) {
	for _, scheme := range bothSchemes {
		for _, rrns := range []bool{false, true} {
			s := newSetup(t, scheme, rrns)
			rng := rand.New(rand.NewPCG(1, 2))
			a := s.encrypt(t, randVals(s.params.Slots(), rng))
			b := s.encrypt(t, randVals(s.params.Slots(), rng))
			wantA := s.dec.MustDecryptAndDecode(a, s.enc)

			payload, err := EncodeState([]*ckks.Ciphertext{a, b})
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeState(s.params, payload)
			if err != nil {
				t.Fatal(err)
			}
			if len(back) != 2 {
				t.Fatalf("round trip returned %d ciphertexts", len(back))
			}
			got := s.dec.MustDecryptAndDecode(back[0], s.enc)
			if e := maxErr(got, wantA); e != 0 {
				t.Fatalf("%v rrns=%v: round trip changed values by %g", scheme, rrns, e)
			}
			wantDepth := 0
			if rrns {
				wantDepth = 1 // checkpoint load is a trusted point: spare reseeded
			}
			if back[0].SpareDepth != wantDepth {
				t.Fatalf("%v rrns=%v: spare depth %d, want %d", scheme, rrns, back[0].SpareDepth, wantDepth)
			}
		}
	}
}

func TestDecodeStateRejectsGarbage(t *testing.T) {
	s := newSetup(t, core.BitPacker, false)
	if _, err := DecodeState(s.params, []byte{1, 2}); err == nil {
		t.Fatal("truncated payload accepted")
	}
	rng := rand.New(rand.NewPCG(3, 4))
	a := s.encrypt(t, randVals(s.params.Slots(), rng))
	payload, err := EncodeState([]*ckks.Ciphertext{a})
	if err != nil {
		t.Fatal(err)
	}
	// A wrong length and a flipped coefficient byte both fail the frame's
	// checksum (TestFramedBlobsRefuseEveryFlip flips every byte).
	payload[4] ^= 0x40
	if _, err := DecodeState(s.params, payload); err == nil {
		t.Fatal("corrupted length prefix accepted")
	}
	if _, err := DecodeState(s.params, payload[:len(payload)-3]); err == nil {
		t.Fatal("truncated state accepted")
	}
}

func TestDirStore(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(filepath.Join(dir, "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("not really a ciphertext, but framing does not care")
	if err := store.Put(3, "stage-three", payload); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(0, "stage-zero", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	stages, err := store.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 || stages[0] != 0 || stages[1] != 3 {
		t.Fatalf("Stages = %v, want [0 3]", stages)
	}
	name, got, err := store.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if name != "stage-three" || string(got) != string(payload) {
		t.Fatalf("Get = %q, %q", name, got)
	}
	// MemStore frames a checkpoint as DirStore does, in memory.
	mem := NewMemStore()
	if err := mem.Put(3, "stage-three", payload); err != nil {
		t.Fatal(err)
	}
	if name, got, err := mem.Get(3); err != nil || name != "stage-three" || string(got) != string(payload) {
		t.Fatalf("MemStore.Get = %q, %q, %v", name, got, err)
	}

	// Overwrite is atomic-replace, not append.
	if err := store.Put(3, "stage-three", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, got, _ = store.Get(3); string(got) != "v2" {
		t.Fatalf("overwrite: Get = %q", got)
	}

	// Corruption on disk is detected by the checksum.
	path := filepath.Join(dir, "ckpts", "stage-000003.ckpt")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x01
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Get(3); err == nil {
		t.Fatal("corrupted checkpoint accepted")
	}

	// Missing stage is an error; Clear leaves an empty store.
	if _, _, err := store.Get(7); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
	if err := store.Clear(); err != nil {
		t.Fatal(err)
	}
	if stages, _ := store.Stages(); len(stages) != 0 {
		t.Fatalf("Clear left %v", stages)
	}
	// No stray temp files.
	entries, _ := os.ReadDir(filepath.Join(dir, "ckpts"))
	if len(entries) != 0 {
		t.Fatalf("Clear left %d files", len(entries))
	}
}

// TestDecodeStateAcceptsV1Blobs: checkpoints wrap the ciphertext wire
// format, which still accepts version-1 blobs (no noise estimate); a
// state assembled from v1 blobs must decode.
func TestDecodeStateAcceptsV1Blobs(t *testing.T) {
	s := newSetup(t, core.BitPacker, false)
	rng := rand.New(rand.NewPCG(17, 18))
	a := s.encrypt(t, randVals(s.params.Slots(), rng))
	want := s.dec.MustDecryptAndDecode(a, s.enc)
	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the v2 blob as v1: drop the noiseBits f64 at offset 10 and
	// flip the version byte (layout: magic 4 | version 1 | level 4 |
	// isNTT 1 | noiseBits 8 | ...).
	v1 := append([]byte(nil), blob[:10]...)
	v1 = append(v1, blob[18:]...)
	v1[4] = 1

	state, err := DecodeState(s.params, frame.Append(frame.Append(nil, frame.Ciphertext, v1), frame.End, nil))
	if err != nil {
		t.Fatal(err)
	}
	got := s.dec.MustDecryptAndDecode(state[0], s.enc)
	if e := maxErr(got, want); e != 0 {
		t.Fatalf("v1 state differs by %g", e)
	}
}
