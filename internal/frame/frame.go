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
	"net"
	"slices"
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

// Begin reserves a frame header at the end of dst and returns the
// extended slice. Append the payload to it, then Finish the frame at
// len(dst): a payload marshalled straight into its frame is never copied.
func Begin(dst []byte) []byte {
	return append(dst, make([]byte, HeaderLen)...)
}

// Finish fills in the header of the frame Begin reserved at b[at:],
// whose payload is everything after the header.
func Finish(b []byte, at int, kind byte) {
	seal(b[at:at+HeaderLen], kind, b[at+HeaderLen:])
}

func seal(head []byte, kind byte, payload []byte) {
	head[0] = kind
	binary.LittleEndian.PutUint32(head[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(head[5:], checksum(head, payload))
}

// Append appends one frame to dst and returns the extended slice.
func Append(dst []byte, kind byte, payload []byte) []byte {
	out := append(Begin(slices.Grow(dst, HeaderLen+len(payload))), payload...)
	Finish(out, len(dst), kind)
	return out
}

// Header returns the header of the frame carrying payload, for a writer
// that sends the two without joining them.
func Header(kind byte, payload []byte) [HeaderLen]byte {
	var head [HeaderLen]byte
	seal(head[:], kind, payload)
	return head
}

// Write writes one frame to w without copying its payload: header and
// payload go out as one vectored write (net.Buffers), which on a socket
// is a single writev under the connection's write lock, so concurrent
// writers of whole frames cannot interleave. Any other writer gets one
// Write per piece and must not be shared without a lock.
func Write(w io.Writer, kind byte, payload []byte) error {
	head := Header(kind, payload)
	_, err := (&net.Buffers{head[:], payload}).WriteTo(w)
	return err
}

// growFrom is the most Read allocates before the payload's bytes arrive.
const growFrom = 64 << 10

// Read reads one frame, refusing a declared length above max before any
// payload allocation. Under the bound the payload buffer starts at no
// more than 64 KiB and doubles, capped at the declared length, only as
// the bytes arrive — the first size is the declared length halved until
// it fits, so the doubling lands on it exactly. A frame that lies about
// its length therefore holds at most twice the bytes it ships (or
// 64 KiB), and an honest one allocates under twice its payload in all,
// copying each byte at most once per doubling. A stream that ends
// between frames returns io.EOF.
func Read(r io.Reader, max uint32) (kind byte, payload []byte, err error) {
	var head [HeaderLen]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, nil, err
	}
	declared := binary.LittleEndian.Uint32(head[1:])
	if declared > max {
		return 0, nil, fmt.Errorf("frame: declares %d bytes, limit is %d", declared, max)
	}
	n := int(declared)
	size := n
	for size > growFrom {
		size = (size + 1) / 2
	}
	payload = make([]byte, size)
	got := 0
	for {
		m, err := io.ReadFull(r, payload[got:])
		got += m
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("frame: truncated: declared %d bytes, got %d: %w", n, got, io.ErrUnexpectedEOF)
		}
		if err != nil {
			return 0, nil, err
		}
		if got == n {
			return head[0], payload, verify(head[:], payload)
		}
		grown := make([]byte, min(2*len(payload), n))
		copy(grown, payload)
		payload = grown
	}
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
