package pipeline

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bitpacker/internal/ckks"
	"bitpacker/internal/core"
	"bitpacker/internal/engine"
	"bitpacker/internal/fherr"
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

// squareStages is a 3-stage pipeline: square+rescale, double, square+
// rescale again — deep enough that a mid-pipeline resume skips real work.
func squareStages(s *setup) []Stage {
	sq := func(ctx context.Context, state []*ckks.Ciphertext) ([]*ckks.Ciphertext, error) {
		out, err := s.ev.MulRelin(state[0], state[0])
		if err != nil {
			return nil, err
		}
		if out, err = s.ev.Rescale(out); err != nil {
			return nil, err
		}
		return []*ckks.Ciphertext{out}, nil
	}
	double := func(ctx context.Context, state []*ckks.Ciphertext) ([]*ckks.Ciphertext, error) {
		out, err := s.ev.Add(state[0], state[0])
		if err != nil {
			return nil, err
		}
		return []*ckks.Ciphertext{out}, nil
	}
	return []Stage{
		{Name: "square-1", Run: sq},
		{Name: "double", Run: double},
		{Name: "square-2", Run: sq},
	}
}

func wantSquare(vals []complex128) []complex128 {
	out := make([]complex128, len(vals))
	for i, v := range vals {
		x := v * v
		out[i] = (2 * x) * (2 * x)
	}
	return out
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

func TestPipelineCleanRun(t *testing.T) {
	for _, scheme := range bothSchemes {
		s := newSetup(t, scheme, true)
		store := NewMemStore()
		p, err := New(s.params, squareStages(s), Options{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(5, 6))
		vals := randVals(s.params.Slots(), rng)
		final, report, err := p.Run(context.Background(), []*ckks.Ciphertext{s.encrypt(t, vals)})
		if err != nil {
			t.Fatal(err)
		}
		if report.ResumedFrom != -1 || report.StagesRun != 3 {
			t.Fatalf("%v: report = %+v", scheme, report)
		}
		got := s.dec.MustDecryptAndDecode(final[0], s.enc)
		if e := maxErr(got, wantSquare(vals)); e > 1e-3 {
			t.Fatalf("%v: error %g", scheme, e)
		}
		stages, _ := store.Stages()
		if len(stages) != 0 {
			t.Fatalf("%v: %d checkpoints left after success (Keep unset)", scheme, len(stages))
		}
	}
}

// TestPipelineResume: a run dies mid-pipeline, a fresh Run (modeling a
// process restart) resumes from the last checkpoint — skipping completed
// stages — and produces the exact values of an uninterrupted run.
func TestPipelineResume(t *testing.T) {
	for _, scheme := range bothSchemes {
		s := newSetup(t, scheme, true)
		rng := rand.New(rand.NewPCG(7, 8))
		vals := randVals(s.params.Slots(), rng)
		initial := s.encrypt(t, vals)

		// Reference: uninterrupted run without a store.
		pRef, err := New(s.params, squareStages(s), Options{})
		if err != nil {
			t.Fatal(err)
		}
		refOut, _, err := pRef.Run(context.Background(), []*ckks.Ciphertext{initial.CopyNew()})
		if err != nil {
			t.Fatal(err)
		}
		ref := s.dec.MustDecryptAndDecode(refOut[0], s.enc)

		// Faulted run: stage 2 dies (simulated crash) after 0 and 1 are
		// checkpointed.
		store := NewMemStore()
		stages := squareStages(s)
		goodRun := stages[2].Run
		stages[2].Run = func(context.Context, []*ckks.Ciphertext) ([]*ckks.Ciphertext, error) {
			return nil, fherr.Wrap(fherr.ErrEngineFault, "simulated crash")
		}
		p1, err := New(s.params, stages, Options{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p1.Run(context.Background(), []*ckks.Ciphertext{initial.CopyNew()}); err == nil {
			t.Fatal("faulted run succeeded")
		}
		left, _ := store.Stages()
		if len(left) != 2 {
			t.Fatalf("%v: %d checkpoints after stages 0,1 completed, want 2", scheme, len(left))
		}

		// Restarted process: fresh pipeline over the same store; no initial
		// state is even needed for the skipped stages.
		stages[2].Run = goodRun
		p2, err := New(s.params, stages, Options{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		final, report, err := p2.Run(context.Background(), []*ckks.Ciphertext{initial.CopyNew()})
		if err != nil {
			t.Fatal(err)
		}
		if report.ResumedFrom != 1 || report.StagesRun != 1 {
			t.Fatalf("%v: resume report = %+v, want ResumedFrom=1 StagesRun=1", scheme, report)
		}
		got := s.dec.MustDecryptAndDecode(final[0], s.enc)
		if e := maxErr(got, ref); e != 0 {
			t.Fatalf("%v: resumed run differs from uninterrupted run by %g", scheme, e)
		}
	}
}

// corrupt flips a byte inside a stored checkpoint's payload region.
func corrupt(s *MemStore, stage int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, ok := s.blobs[stage]
	if !ok || len(blob) < 32 {
		return false
	}
	blob[len(blob)/2] ^= 0xff
	return true
}

// TestPipelineFallsBackPastCorruptCheckpoint: the newest checkpoint is
// corrupted on disk; resume detects it via the checksum and restarts
// from the previous stage instead.
func TestPipelineFallsBackPastCorruptCheckpoint(t *testing.T) {
	s := newSetup(t, core.BitPacker, true)
	rng := rand.New(rand.NewPCG(9, 10))
	vals := randVals(s.params.Slots(), rng)
	initial := s.encrypt(t, vals)

	store := NewMemStore()
	p, err := New(s.params, squareStages(s), Options{Store: store, Keep: true})
	if err != nil {
		t.Fatal(err)
	}
	refOut, _, err := p.Run(context.Background(), []*ckks.Ciphertext{initial.CopyNew()})
	if err != nil {
		t.Fatal(err)
	}
	ref := s.dec.MustDecryptAndDecode(refOut[0], s.enc)

	if !corrupt(store, 2) {
		t.Fatal("could not corrupt stage-2 checkpoint")
	}
	final, report, err := p.Run(context.Background(), []*ckks.Ciphertext{initial.CopyNew()})
	if err != nil {
		t.Fatal(err)
	}
	if report.ResumedFrom != 1 || report.StagesRun != 1 {
		t.Fatalf("fallback report = %+v, want ResumedFrom=1 StagesRun=1", report)
	}
	got := s.dec.MustDecryptAndDecode(final[0], s.enc)
	if e := maxErr(got, ref); e != 0 {
		t.Fatalf("fallback run differs by %g", e)
	}
}

// TestPipelineRefusesParentFormatCheckpoint: the newest checkpoint on disk
// is in the previous release's format ("BPKP" header, FNV-64a trailer,
// count- and length-prefixed state), intact by that format's own
// checksum. There is no compatibility reader: it is refused like a
// corrupt one and the run recomputes from the previous intact stage.
func TestPipelineRefusesParentFormatCheckpoint(t *testing.T) {
	s := newSetup(t, core.BitPacker, false)
	rng := rand.New(rand.NewPCG(19, 20))
	initial := s.encrypt(t, randVals(s.params.Slots(), rng))
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(s.params, squareStages(s), Options{Store: store, Keep: true})
	if err != nil {
		t.Fatal(err)
	}
	refOut, _, err := p.Run(context.Background(), []*ckks.Ciphertext{initial.CopyNew()})
	if err != nil {
		t.Fatal(err)
	}
	ref := s.dec.MustDecryptAndDecode(refOut[0], s.enc)

	ctBlob, err := refOut[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	state := binary.LittleEndian.AppendUint32(nil, 1)
	state = binary.LittleEndian.AppendUint64(state, uint64(len(ctBlob)))
	state = append(state, ctBlob...)
	const stage, name = 2, "square-2"
	old := append([]byte("BPKP"), 1)
	old = binary.LittleEndian.AppendUint32(old, stage)
	old = binary.LittleEndian.AppendUint32(old, uint32(len(name)))
	old = append(old, name...)
	old = binary.LittleEndian.AppendUint64(old, uint64(len(state)))
	old = append(old, state...)
	h := fnv.New64a()
	h.Write(old)
	old = binary.LittleEndian.AppendUint64(old, h.Sum64())
	if err := os.WriteFile(DirStorePath(dir, stage), old, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Get(stage); err == nil {
		t.Fatal("parent-format checkpoint accepted")
	}

	final, report, err := p.Run(context.Background(), []*ckks.Ciphertext{initial.CopyNew()})
	if err != nil {
		t.Fatal(err)
	}
	if report.ResumedFrom != 1 || report.StagesRun != 1 {
		t.Fatalf("report = %+v, want ResumedFrom=1 StagesRun=1", report)
	}
	if e := maxErr(s.dec.MustDecryptAndDecode(final[0], s.enc), ref); e != 0 {
		t.Fatalf("recomputed run differs by %g", e)
	}
}

// TestPipelineRetryHealsStage: a transient stage fault is healed by the
// retry rung without consuming the checkpoint rung.
func TestPipelineRetryHealsStage(t *testing.T) {
	s := newSetup(t, core.RNSCKKS, true)
	rng := rand.New(rand.NewPCG(11, 12))
	vals := randVals(s.params.Slots(), rng)

	stages := squareStages(s)
	inner := stages[1].Run
	failures := 2
	stages[1].Run = func(ctx context.Context, state []*ckks.Ciphertext) ([]*ckks.Ciphertext, error) {
		if failures > 0 {
			failures--
			return nil, fherr.Wrap(fherr.ErrInvariant, "transient corruption")
		}
		return inner(ctx, state)
	}
	p, err := New(s.params, stages, Options{
		Retry: &engine.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	final, report, err := p.Run(context.Background(), []*ckks.Ciphertext{s.encrypt(t, vals)})
	if err != nil {
		t.Fatal(err)
	}
	if report.Retries != 2 {
		t.Fatalf("report.Retries = %d, want 2", report.Retries)
	}
	got := s.dec.MustDecryptAndDecode(final[0], s.enc)
	if e := maxErr(got, wantSquare(vals)); e > 1e-3 {
		t.Fatalf("error %g", e)
	}
}

// TestPipelineRetryExhaustion: a persistent fault exhausts the budget
// and surfaces the typed unrecovered error with stage context.
func TestPipelineRetryExhaustion(t *testing.T) {
	s := newSetup(t, core.BitPacker, false)
	stages := []Stage{{Name: "doomed", Run: func(context.Context, []*ckks.Ciphertext) ([]*ckks.Ciphertext, error) {
		return nil, fherr.Wrap(fherr.ErrEngineFault, "persistent")
	}}}
	p, err := New(s.params, stages, Options{
		Retry: &engine.RetryPolicy{MaxAttempts: 2, BaseDelay: 50 * time.Microsecond, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(13, 14))
	_, _, err = p.Run(context.Background(), []*ckks.Ciphertext{s.encrypt(t, randVals(s.params.Slots(), rng))})
	if !errors.Is(err, fherr.ErrFaultUnrecovered) {
		t.Fatalf("err = %v, want ErrFaultUnrecovered", err)
	}
}

func TestPipelineCancellation(t *testing.T) {
	s := newSetup(t, core.BitPacker, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := New(s.params, squareStages(s), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(15, 16))
	_, _, err = p.Run(ctx, []*ckks.Ciphertext{s.encrypt(t, randVals(s.params.Slots(), rng))})
	if !errors.Is(err, fherr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
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
