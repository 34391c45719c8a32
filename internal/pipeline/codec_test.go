package pipeline

import (
	"bytes"
	"io"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"

	"bitpacker/internal/ckks"
	"bitpacker/internal/core"
	"bitpacker/internal/frame"
	"bitpacker/internal/shard"
)

// codecBatch encrypts count ciphertexts at the top level of a LogN chain.
func codecBatch(t testing.TB, logN, count int) (*setup, []*ckks.Ciphertext) {
	t.Helper()
	s := newSetupLogN(t, core.BitPacker, false, logN)
	rng := rand.New(rand.NewPCG(5, 6))
	state := make([]*ckks.Ciphertext, count)
	for i := range state {
		state[i] = s.encrypt(t, randVals(s.params.Slots(), rng))
	}
	return s, state
}

// allocated is what one call of f allocates: objects (testing.AllocsPerRun)
// and bytes (runtime.MemStats.TotalAlloc over as many calls).
func allocated(runs int, f func()) (allocs, bytes float64) {
	allocs = testing.AllocsPerRun(runs, f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestCodecAllocCeiling counts the work of each hop of an 8-ciphertext
// LogN 10 batch — encode, frame read, decode, checkpoint write, wire
// write — against ceilings set just above what the one-pass codec does,
// so a copy or a scan that comes back fails here instead of hiding in a
// benchmark's noise. EXPERIMENTS.md "one copy per hop" has the counts
// before and after.
func TestCodecAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s, state := codecBatch(t, 10, 8)
	payload, err := EncodeState(state)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(len(payload))
	var polyBytes float64
	for _, ct := range state {
		polyBytes += float64(8 * 2 * ct.C0.R() * ct.C0.N())
	}
	const runs = 20

	t.Run("EncodeState", func(t *testing.T) {
		allocs, bytes := allocated(runs, func() { EncodeState(state) })
		t.Logf("%.0f allocations, %.0f bytes for a %.0f-byte batch", allocs, bytes, n)
		if cap(payload) != len(payload) {
			t.Fatalf("batch capacity %d, length %d: not sized exactly", cap(payload), len(payload))
		}
		// A large allocation is rounded up to whole 8 KiB pages.
		if page := 8192.0; allocs > 1 || bytes > n+page {
			t.Fatalf("EncodeState: %.0f allocations, %.0f bytes; ceiling 1 allocation of the batch's %.0f bytes", allocs, bytes, n)
		}
	})

	t.Run("frame.Read", func(t *testing.T) {
		framed := frame.Append(nil, frame.Body, payload)
		r := bytes.NewReader(framed)
		allocs, bytes := allocated(runs, func() {
			r.Reset(framed)
			if _, _, err := frame.Read(r, uint32(len(framed))); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%.0f allocations, %.0f bytes (%.2fx the payload)", allocs, bytes, bytes/n)
		if allocs > 5 || bytes > 2*n {
			t.Fatalf("frame.Read: %.0f allocations, %.0f bytes; ceiling 5 and 2x the %.0f-byte payload", allocs, bytes, n)
		}
	})

	t.Run("DecodeState", func(t *testing.T) {
		allocs, bytes := allocated(runs, func() {
			if _, err := DecodeState(s.params, payload); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%.0f allocations, %.0f bytes; polynomials %.0f bytes", allocs, bytes, polyBytes)
		perCt := (bytes - polyBytes) / float64(len(state))
		if allocs > 224 || perCt > 700 {
			t.Fatalf("DecodeState: %.0f allocations, %.0f bytes per ciphertext beyond the polynomials; ceiling 224 and 700", allocs, perCt)
		}
	})

	t.Run("DirStore.Put", func(t *testing.T) {
		store, err := NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		allocs, bytes := allocated(runs, func() {
			if err := store.Put(0, "00-square", payload); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%.0f allocations, %.0f bytes", allocs, bytes)
		// The bytes are path strings, which grow with the temp directory's
		// name; the count does not.
		if allocs > 21 || bytes > 4096 {
			t.Fatalf("DirStore.Put: %.0f allocations, %.0f bytes; ceiling 21 and 4096 (the payload is %.0f)", allocs, bytes, n)
		}
	})

	t.Run("WriteMessage", func(t *testing.T) {
		m := shard.Msg{Type: shard.MsgAssign, Shard: 0, Epoch: 1, Batch: payload}
		allocs, bytes := allocated(runs, func() {
			if err := shard.WriteMessage(io.Discard, m); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%.0f allocations, %.0f bytes", allocs, bytes)
		if allocs > 9 || bytes > 414 {
			t.Fatalf("WriteMessage: %.0f allocations, %.0f bytes; ceiling 9 and 414 (the batch is %.0f)", allocs, bytes, n)
		}
	})
}

// BenchmarkStateCodec times one hop of an 8-ciphertext LogN 12 batch —
// shard_job's batch — in its four parts: encode, frame write, frame
// read and decode.
func BenchmarkStateCodec(b *testing.B) {
	s, state := codecBatch(b, 12, 8)
	payload, err := EncodeState(state)
	if err != nil {
		b.Fatal(err)
	}
	var wire bytes.Buffer
	frame.Write(&wire, frame.Body, payload)
	framed := wire.Bytes()
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if _, err := EncodeState(state); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frame-write", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		var buf bytes.Buffer
		buf.Grow(len(framed))
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := frame.Write(&buf, frame.Body, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frame-read", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		r := bytes.NewReader(framed)
		for i := 0; i < b.N; i++ {
			r.Reset(framed)
			if _, _, err := frame.Read(r, uint32(len(framed))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeState(s.params, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// FuzzDecodeState: no batch panics DecodeState, anything it accepts
// passes the full Validate — its coefficient scan included, which
// DecodeState leaves to the unmarshal's range check — and re-encoding
// then decoding yields the same ciphertexts. The seeds are a good batch,
// one cut mid-row, one whose last coefficient of the last row equals its
// modulus (inner frame re-sealed, so only the range check can refuse
// it), one without its End frame, one with bytes after End and one whose
// inner frame declares 4 GiB.
func FuzzDecodeState(f *testing.F) {
	params, err := ckks.BuildParametersExt(core.BitPacker,
		core.ProgramSpec{MaxLevel: 1, TargetScaleBits: []float64{40, 40}, QMinBits: 60},
		core.SecuritySpec{LogN: 6}, core.HWSpec{WordBits: 61}, 8, 3.2, false)
	if err != nil {
		f.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, 1, 2)
	encr := ckks.NewEncryptor(params, kg.GenPublicKey(kg.GenSecretKey()), 3, 4)
	enc := ckks.NewEncoder(params)
	lvl := params.MaxLevel()
	var state []*ckks.Ciphertext
	for i := 0; i < 2; i++ {
		vals := randVals(params.Slots(), rand.New(rand.NewPCG(uint64(i), 7)))
		pt := &ckks.Plaintext{Value: enc.MustEncode(vals, params.DefaultScale(lvl), params.LevelModuli(lvl)), Level: lvl, Scale: params.DefaultScale(lvl)}
		state = append(state, encr.MustEncryptAtLevel(pt, lvl))
	}
	good, err := EncodeState(state)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2+3])
	atModulus := append([]byte(nil), good...)
	last := len(atModulus) - frame.HeaderLen // the End frame starts here
	at := last - frame.HeaderLen - state[1].BinarySize()
	moduli := params.LevelModuli(lvl)
	q := moduli[len(moduli)-1]
	for i := 0; i < 8; i++ {
		atModulus[last-8+i] = byte(q >> (8 * i))
	}
	frame.Finish(atModulus[:last], at, frame.Ciphertext)
	if _, err := DecodeState(params, good); err != nil {
		f.Fatalf("good batch refused: %v", err)
	}
	if _, err := DecodeState(params, atModulus); err == nil || !strings.Contains(err.Error(), "out of range") {
		f.Fatalf("coefficient equal to its modulus: %v, want the range check's refusal", err)
	}
	f.Add(atModulus)
	f.Add(good[:len(good)-frame.HeaderLen])
	f.Add(append(append([]byte(nil), good...), 0, 1, 2))
	f.Add([]byte{frame.Ciphertext, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 'B', 'P', 'C', 'T'})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeState(params, data)
		if err != nil {
			return
		}
		for i, ct := range got {
			if err := ct.Validate(params); err != nil {
				t.Fatalf("accepted ciphertext %d fails Validate: %v", i, err)
			}
		}
		again, err := EncodeState(got)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		back, err := DecodeState(params, again)
		if err != nil {
			t.Fatalf("re-encoded batch refused: %v", err)
		}
		if twice, _ := EncodeState(back); len(back) != len(got) || !bytes.Equal(twice, again) {
			t.Fatal("re-encoding then decoding changed the batch")
		}
	})
}
