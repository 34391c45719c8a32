package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, []byte("x"), bytes.Repeat([]byte{0xab}, 4096), bytes.Repeat([]byte{0xcd}, 200<<10)}
	var blob []byte
	for i, p := range payloads {
		kind := byte(i%4 + 1)
		if err := Write(&buf, kind, p); err != nil {
			t.Fatal(err)
		}
		blob = Append(blob, kind, p)
	}
	if !bytes.Equal(buf.Bytes(), blob) {
		t.Fatal("Write and Append produce different bytes")
	}
	for i, p := range payloads {
		kind := byte(i%4 + 1)
		gotKind, got, err := Read(&buf, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if gotKind != kind || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: Read mismatch (kind %d->%d, %d->%d bytes)", i, kind, gotKind, len(p), len(got))
		}
		if gotKind, got, blob, err = Cut(blob); err != nil || gotKind != kind || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: Cut mismatch (kind %d->%d, %d->%d bytes, %v)", i, kind, gotKind, len(p), len(got), err)
		}
	}
	if _, _, err := Read(&buf, 1<<20); err != io.EOF {
		t.Fatalf("read past the last frame: %v, want io.EOF", err)
	}
}

// TestFrameRejectsOversizeDeclaration: a frame declaring more than the
// caller's bound is rejected from its header alone — before any payload
// allocation or read.
func TestFrameRejectsOversizeDeclaration(t *testing.T) {
	var head [HeaderLen]byte
	head[0] = Ciphertext
	binary.LittleEndian.PutUint32(head[1:], 1<<31)
	// The reader would panic if Read tried to consume the declared
	// payload; rejecting from the header means it never reads on.
	r := io.MultiReader(bytes.NewReader(head[:]), neverReader{})
	if _, _, err := Read(r, 1<<20); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversize declaration: got %v", err)
	}
}

// TestReadGrowsWithBytesReceived: under the bound, Read's buffer grows
// only as bytes arrive. A frame that declares 16 MiB and ships 100 KiB
// gets its truncation error having allocated no more than twice what it
// shipped plus the first 64 KiB; honest frames at and around the growth
// steps read back whole, in place and in a Begin/Finish frame.
func TestReadGrowsWithBytesReceived(t *testing.T) {
	head := Header(Body, make([]byte, 16<<20))
	shipped := bytes.Repeat([]byte{7}, 100<<10)
	liar := io.MultiReader(bytes.NewReader(head[:]), bytes.NewReader(shipped))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Read(liar, 32<<20)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("lying frame: %v, want a truncation", err)
	}
	if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(2*len(shipped)+growFrom+4096); got > ceiling {
		t.Fatalf("lying frame cost %d bytes for %d shipped; ceiling %d", got, len(shipped), ceiling)
	}
	for _, n := range []int{0, 1, growFrom - 1, growFrom, growFrom + 1, 3*growFrom + 5, 1 << 20} {
		payload := bytes.Repeat([]byte{byte(n)}, n)
		for i := range payload {
			payload[i] ^= byte(i)
		}
		framed := Append(nil, Ciphertext, payload)
		inPlace := append(Begin([]byte("x")), payload...)
		Finish(inPlace, 1, Ciphertext)
		if !bytes.Equal(inPlace[1:], framed) {
			t.Fatalf("%d bytes: Begin/Finish differs from Append", n)
		}
		kind, got, err := Read(bytes.NewReader(framed), uint32(n))
		if err != nil || kind != Ciphertext || !bytes.Equal(got, payload) {
			t.Fatalf("%d bytes: read back %d bytes, kind %d, %v", n, len(got), kind, err)
		}
	}
}

// neverReader fails the test if Read reads past the header of an
// oversize frame.
type neverReader struct{}

func (neverReader) Read([]byte) (int, error) {
	panic("frame: read past a rejected frame header")
}

// TestFrameTruncatedPayload: a frame that declares more bytes than the
// stream delivers errors instead of returning a short payload, from a
// stream and from a slice.
func TestFrameTruncatedPayload(t *testing.T) {
	whole := Append(nil, Meta, bytes.Repeat([]byte("ten bytes!"), 100))
	for _, cut := range []int{3, HeaderLen, HeaderLen + 10, len(whole) - 1} {
		_, _, err := Read(bytes.NewReader(whole[:cut]), 1<<20)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("stream cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
		if _, _, _, err := Cut(whole[:cut]); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("slice cut at %d: got %v", cut, err)
		}
	}
}

func TestExpectFrameType(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Ciphertext, []byte("ct")); err != nil {
		t.Fatal(err)
	}
	if _, err := Expect(&buf, Meta, 1<<10); err == nil {
		t.Fatal("wrong frame kind accepted")
	}
	if _, err := Only(Append(nil, Ciphertext, []byte("ct")), Meta); err == nil {
		t.Fatal("wrong frame kind accepted from a slice")
	}
	if _, err := Only(Append(Append(nil, Meta, nil), Meta, nil), Meta); err == nil {
		t.Fatal("trailing frame accepted by Only")
	}
}

// TestFrameChecksumCoversEveryByte: a flip of any bit of kind, length,
// checksum or payload is refused — the kind and length are covered too,
// so a corrupted header cannot reframe the stream.
func TestFrameChecksumCoversEveryByte(t *testing.T) {
	whole := Append(nil, Meta, []byte(`{"t":"done","shard":3}`))
	for i := range whole {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), whole...)
			bad[i] ^= 1 << bit
			if _, _, err := Read(bytes.NewReader(bad), 1<<10); err == nil {
				t.Fatalf("Read accepted a flip of bit %d of byte %d", bit, i)
			}
			if _, _, _, err := Cut(bad); err == nil {
				t.Fatalf("Cut accepted a flip of bit %d of byte %d", bit, i)
			}
		}
	}
}

// FuzzFrameRead: no input panics either reader, the two readers agree,
// and an accepted frame is exactly what Append writes for its kind and
// payload. The seed corpus (testdata/fuzz/FuzzFrameRead) holds a hostile
// length, a truncated payload and a flipped checksum.
func FuzzFrameRead(f *testing.F) {
	f.Add(Append(nil, Meta, []byte(`{"t":"ready"}`)))
	f.Add(Append(nil, Ciphertext, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, err := Read(bytes.NewReader(data), 1<<16)
		cutKind, cutPayload, rest, cutErr := Cut(data)
		if err != nil {
			if cutErr == nil && len(cutPayload) <= 1<<16 {
				t.Fatalf("Cut accepted what Read refused (%v)", err)
			}
			return
		}
		if cutErr != nil || !bytes.Equal(cutPayload, payload) || cutKind != kind {
			t.Fatalf("Read accepted what Cut refused or read differently (%v)", cutErr)
		}
		if !bytes.Equal(Append(nil, kind, payload), data[:len(data)-len(rest)]) {
			t.Fatal("accepted frame does not re-encode to its bytes")
		}
	})
}

// BenchmarkRead reads one 2 MiB frame — a shard batch's size — off a
// stream.
func BenchmarkRead(b *testing.B) {
	framed := Append(nil, Body, make([]byte, 2<<20))
	r := bytes.NewReader(framed)
	b.SetBytes(int64(len(framed)))
	for i := 0; i < b.N; i++ {
		r.Reset(framed)
		if _, _, err := Read(r, uint32(len(framed))); err != nil {
			b.Fatal(err)
		}
	}
}
