package shard_test

// Fuzz coverage for the hardened protocol decoder: DecodeWorkerMessage
// is the supervisor's single entry point for bytes that crossed a
// process or network boundary, so hostile, truncated, or oversized lines
// must come back as errors — never a panic — and anything accepted must
// be inside the documented bounds (mirrors FuzzUnmarshalCiphertext for
// the serialization layer).

import (
	"strings"
	"testing"

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
