package shard_test

// Fuzz coverage for the hardened protocol readers: DecodeWorkerMessage
// and Limit.ReadBatch are the single entry points for bytes that crossed
// a process or network boundary, so hostile, truncated, or oversized
// input must come back as errors — never a panic — and anything accepted
// must be inside the documented bounds (mirrors FuzzUnmarshalCiphertext
// for the serialization layer).

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"bitpacker/internal/frame"
	"bitpacker/internal/shard"
)

func FuzzDecodeWorkerMessage(f *testing.F) {
	seeds := []string{
		// Every well-formed message shape the protocol uses.
		`{"t":"ready"}`,
		`{"t":"ready","shard":3,"epoch":2}`,
		`{"t":"beat","shard":1,"step":2}`,
		`{"t":"done","shard":4,"epoch":7}`,
		`{"t":"fail","shard":2,"epoch":1,"class":"fault","err":"boom"}`,
		`{"t":"fail","shard":2,"epoch":1,"class":"canceled","err":"ctx"}`,
		`{"t":"hello","dir":"/tmp/job","fp":12345,"worker":1,"beat_ms":250}`,
		`{"t":"assign","shard":5,"epoch":9}`,
		`{"t":"drain"}`,
		`{"t":"reject","err":"fingerprint mismatch"}`,
		// Hostile shapes.
		``,
		`{}`,
		`null`,
		`42`,
		`"done"`,
		`[{"t":"done"}]`,
		`{"t":"done","shard":-1}`,
		`{"t":"done","shard":99999999999}`,
		`{"t":"done","epoch":-7}`,
		`{"t":"beat","step":2147483647}`,
		`{"t":"fail","class":"bogus"}`,
		`{"t":"nonsense"}`,
		`{"t":"done","shard":1`,
		`{"t":"done","shard":1}garbage`,
		"{\"t\":\"done\"}\n{\"t\":\"done\"}",
		`{"t":"fail","err":"` + strings.Repeat("x", 8192) + `"}`,
		`{"t":"` + strings.Repeat("a", 1024) + `"}`,
		"\x00\x01\x02\xff",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		m, err := shard.DecodeWorkerMessage(line) // must never panic
		if err != nil {
			return
		}
		// Accepted messages must respect every documented bound.
		switch m.Type {
		case shard.MsgReady, shard.MsgBeat, shard.MsgDone, shard.MsgFail,
			shard.MsgReject, shard.MsgHello, shard.MsgAssign, shard.MsgDrain:
		default:
			t.Fatalf("decoder accepted unknown type %q", m.Type)
		}
		if m.Shard < 0 || m.Step < 0 || m.Epoch < 0 || m.Worker < 0 {
			t.Fatalf("decoder accepted negative index fields: %+v", m)
		}
		switch m.Class {
		case "", shard.ClassCanceled, shard.ClassFault:
		default:
			t.Fatalf("decoder accepted unknown class %q", m.Class)
		}
		if len(m.Err) > 4<<10+3 {
			t.Fatalf("decoder passed through %d bytes of error text", len(m.Err))
		}
	})
}

// TestDecodeWorkerMessageOversized covers the length cap directly (the
// fuzzer rarely generates megabyte inputs).
func TestDecodeWorkerMessageOversized(t *testing.T) {
	line := []byte(`{"t":"done","err":"` + strings.Repeat("y", shard.MaxMsgBytes) + `"}`)
	if _, err := shard.DecodeWorkerMessage(line); err == nil {
		t.Fatal("oversized line was accepted")
	}
}

// batchLimit is FuzzReadBatch's job: one shard of two ciphertexts of at
// most 64 bytes each.
var batchLimit = shard.Limit{Counts: []int{2}, CiphertextBytes: 64}

// testBatch frames cts as a batch: one Ciphertext frame each, then End
// (unless end is false), all inside one Body frame.
func testBatch(end bool, cts ...string) []byte {
	var inner []byte
	for _, ct := range cts {
		inner = frame.Append(inner, frame.Ciphertext, []byte(ct))
	}
	if end {
		inner = frame.Append(inner, frame.End, nil)
	}
	return frame.Append(nil, frame.Body, inner)
}

// FuzzReadBatch covers the reader both ends of a worker session share
// for the batch frame after an assign (the worker) and after a done (the
// supervisor): hostile input comes back as an error, never a panic, and a
// batch it accepts is within the job's bound and has exactly the shard's
// ciphertext count. The checked-in corpus holds the three refusals that
// matter: a declared length above the bound, one ciphertext too many,
// and a batch cut before its End frame.
func FuzzReadBatch(f *testing.F) {
	f.Add(testBatch(true, "ct-0", "ct-1"))
	f.Add(testBatch(true, strings.Repeat("x", 64), ""))
	f.Add(testBatch(true, "ct-0", "ct-1", "ct-2"))
	f.Add(testBatch(false, "ct-0", "ct-1"))
	f.Fuzz(func(t *testing.T, stream []byte) {
		batch, err := batchLimit.ReadBatch(bytes.NewReader(stream), 0) // must never panic
		if err != nil {
			return
		}
		if max := 2*(frame.HeaderLen+64) + frame.HeaderLen; len(batch) > max {
			t.Fatalf("accepted a %d-byte batch, bound is %d", len(batch), max)
		}
		n := 0
		for rest := batch; ; n++ {
			kind, ct, next, err := frame.Split(rest)
			if err != nil {
				t.Fatalf("accepted batch does not parse at frame %d: %v", n, err)
			}
			if kind == frame.End {
				if len(next) != 0 {
					t.Fatalf("accepted batch has %d bytes after its End frame", len(next))
				}
				break
			}
			if kind != frame.Ciphertext || len(ct) > 64 {
				t.Fatalf("accepted batch's frame %d: kind %d, %d bytes", n, kind, len(ct))
			}
			rest = next
		}
		if n != 2 {
			t.Fatalf("accepted a batch of %d ciphertexts, the shard holds 2", n)
		}
	})
}

// TestReadBatchRefusals pins the shapes the corpus under
// testdata/fuzz/FuzzReadBatch/ seeds: each is refused, and a well-formed
// batch is not.
func TestReadBatchRefusals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stream []byte
		ok     bool
	}{
		{"well-formed", testBatch(true, "ct-0", "ct-1"), true},
		{"too-many-ciphertexts", testBatch(true, "ct-0", "ct-1", "ct-2"), false},
		{"too-few-ciphertexts", testBatch(true, "ct-0"), false},
		{"cut-before-end", testBatch(false, "ct-0", "ct-1"), false},
		{"oversized-ciphertext", testBatch(true, "ct-0", strings.Repeat("x", 65)), false},
	} {
		if _, err := batchLimit.ReadBatch(bytes.NewReader(tc.stream), 0); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want accepted %v", tc.name, err, tc.ok)
		}
	}
}

// TestReadBatchRefusesFromHeader: a batch frame declaring more than the
// job's bound is refused from its header alone — not one payload byte is
// read or allocated for it.
func TestReadBatchRefusesFromHeader(t *testing.T) {
	head := testBatch(true, "ct-0", "ct-1")[:frame.HeaderLen]
	head[1], head[2], head[3], head[4] = 0, 0, 0, 0x40 // declares 1 GiB
	r := io.MultiReader(bytes.NewReader(head), readerFunc(func([]byte) (int, error) {
		t.Fatal("the reader went past the header of an over-bound batch")
		return 0, io.EOF
	}))
	if _, err := batchLimit.ReadBatch(r, 0); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("over-bound batch: %v, want a refusal naming the limit", err)
	}
	if _, err := batchLimit.ReadBatch(bytes.NewReader(testBatch(true, "ct-0", "ct-1")), 1); err == nil {
		t.Fatal("a batch for a shard the job does not have was accepted")
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }
