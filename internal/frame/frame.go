// Package frame is the library's one frame format. Every stream and
// stored blob — serve's eval and job streams and job files, pipeline
// checkpoints and state batches, the shard protocol and the batches it
// carries, a spawned worker's address and the shard job file — is a
// sequence of frames:
//
//	kind u8 | len u32 LE | crc32c u32 LE | payload
//
// The CRC-32C (Castagnoli) covers kind, length and payload, so a flipped
// bit anywhere in a frame, or a stream cut short, is refused instead of
// parsed. A reader names the kind it expects and the largest payload it
// will take; a declared length above the bound is refused from the
// header alone, before anything is allocated.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Kinds. A reader names the kind it expects, so a frame written for one
// use is never parsed as another.
const (
	Meta       byte = 1 // metadata: a serve header, protocol message or job file (JSON), a checkpoint head
	Ciphertext byte = 2 // one ciphertext in the v2 encoding
	Body       byte = 3 // a checkpoint's payload, or a shard's ciphertext batch on the worker wire
	Addr       byte = 4 // the listen address a spawned worker announces
	End        byte = 5 // closes a state batch, so one cut at a frame boundary is refused too
)

// HeaderLen is the fixed frame prefix: kind, length and checksum.
const HeaderLen = 9

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(head, payload []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, head[:5]), castagnoli, payload)
}

// Append appends one frame to dst and returns the extended slice.
func Append(dst []byte, kind byte, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(append(dst, kind), uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, checksum(dst[len(dst)-5:], payload))
	return append(dst, payload...)
}

// Write writes one frame to w in a single Write, so concurrent writers
// of whole frames on one connection cannot interleave.
func Write(w io.Writer, kind byte, payload []byte) error {
	_, err := w.Write(Append(make([]byte, 0, HeaderLen+len(payload)), kind, payload))
	return err
}

// Read reads one frame, refusing a declared length above max before any
// payload allocation. The payload buffer grows with the bytes actually
// received (io.ReadAll over a LimitReader), so a frame that lies about
// its length costs only the bytes it ships. A stream that ends between
// frames returns io.EOF.
func Read(r io.Reader, max uint32) (kind byte, payload []byte, err error) {
	var head [HeaderLen]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(head[1:])
	if n > max {
		return 0, nil, fmt.Errorf("frame: declares %d bytes, limit is %d", n, max)
	}
	if payload, err = io.ReadAll(io.LimitReader(r, int64(n))); err != nil {
		return 0, nil, err
	}
	if uint32(len(payload)) != n {
		return 0, nil, fmt.Errorf("frame: truncated: declared %d bytes, got %d: %w", n, len(payload), io.ErrUnexpectedEOF)
	}
	return head[0], payload, verify(head[:], payload)
}

// Expect reads one frame and checks its kind.
func Expect(r io.Reader, kind byte, max uint32) ([]byte, error) {
	got, payload, err := Read(r, max)
	if err == nil && got != kind {
		err = fmt.Errorf("frame: expected kind %d, got %d", kind, got)
	}
	return payload, err
}

// Cut parses the frame at the start of b and returns its kind, its
// payload and the bytes after it. The payload aliases b: a blob already
// in memory is parsed without a copy.
func Cut(b []byte) (kind byte, payload, rest []byte, err error) {
	if kind, payload, rest, err = Split(b); err != nil {
		return 0, nil, nil, err
	}
	return kind, payload, rest, verify(b[:HeaderLen], payload)
}

// Split is Cut without the checksum: it checks that the frame at the start
// of b is whole and leaves its content to whoever verifies and decodes it
// later — a reader that only checks the shape of a batch.
func Split(b []byte) (kind byte, payload, rest []byte, err error) {
	if len(b) < HeaderLen {
		return 0, nil, nil, fmt.Errorf("frame: truncated: %d bytes, header is %d", len(b), HeaderLen)
	}
	n := binary.LittleEndian.Uint32(b[1:])
	if uint64(n) > uint64(len(b)-HeaderLen) {
		return 0, nil, nil, fmt.Errorf("frame: truncated: declared %d bytes, got %d", n, len(b)-HeaderLen)
	}
	return b[0], b[HeaderLen : HeaderLen+int(n)], b[HeaderLen+int(n):], nil
}

// Only parses b as exactly one frame of the given kind.
func Only(b []byte, kind byte) ([]byte, error) {
	got, payload, rest, err := Cut(b)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("frame: %d trailing bytes", len(rest))
	}
	if err == nil && got != kind {
		err = fmt.Errorf("frame: expected kind %d, got %d", kind, got)
	}
	return payload, err
}

func verify(head, payload []byte) error {
	if binary.LittleEndian.Uint32(head[5:]) != checksum(head, payload) {
		return fmt.Errorf("frame: checksum mismatch (kind %d, %d bytes)", head[0], len(payload))
	}
	return nil
}
