// Package serve is the multi-tenant FHE serving layer: an stdlib
// net/http service over bitpacker.Context with a per-tenant key
// registry, streaming v2 ciphertext framing, bounded request queues
// with backpressure, and a slot-packing batch scheduler that coalesces
// compatible small requests into shared ciphertexts so one keyswitch
// amortizes across tenants. Long jobs run through Context.RunSharded,
// in-process or on a worker fleet, and resume across server restarts.
package serve

import (
	"io"

	"bitpacker/internal/frame"
)

// Frame kinds (internal/frame) of the eval and job streams: a header
// frame, then a blob frame.
const (
	FrameHeader = frame.Meta       // JSON: EvalHeader / EvalResult / JobSpec
	FrameBlob   = frame.Ciphertext // the v2 ciphertext encoding
)

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	return frame.Write(w, typ, payload)
}

// ReadFrame reads one frame, rejecting declared lengths above maxLen
// before any payload allocation and a payload whose checksum fails.
func ReadFrame(r io.Reader, maxLen uint32) (byte, []byte, error) {
	return frame.Read(r, maxLen)
}
