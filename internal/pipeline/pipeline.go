// Package pipeline keeps a long computation's durable state: the
// checkpoint store (DirStore, one checksummed file per stage, written
// atomically; MemStore, its in-memory twin) and the state codec
// (EncodeState, DecodeState) that turns a slice of ciphertexts into a
// checkpoint's payload and back. The stage runner that writes and resumes
// the checkpoints is the root package's Context.RunPipeline; a sharded
// job's final checkpoints and its wire batches use the same two pieces.
package pipeline

import (
	"fmt"

	"bitpacker/internal/ckks"
	"bitpacker/internal/frame"
)

// EncodeState serializes a state slice: one frame (internal/frame) per
// ciphertext, carrying its v2 blob, then an End frame. The batch is sized
// exactly up front and every ciphertext is marshalled straight into its
// frame: one allocation, one copy of each coefficient.
func EncodeState(state []*ckks.Ciphertext) ([]byte, error) {
	size := frame.HeaderLen
	for _, ct := range state {
		size += frame.HeaderLen + ct.BinarySize()
	}
	out := make([]byte, 0, size)
	for i, ct := range state {
		at := len(out)
		var err error
		if out, err = ct.AppendBinary(frame.Begin(out)); err != nil {
			return nil, fmt.Errorf("pipeline: state ciphertext %d: %w", i, err)
		}
		frame.Finish(out, at, frame.Ciphertext)
	}
	return frame.Append(out, frame.End, nil), nil
}

// DecodeState reverses EncodeState through ckks.DecodeCiphertext: every
// ciphertext is validated against the parameters and has its RRNS spare
// channel reseeded when the chain carries one — a checkpoint load is a
// trusted point, exactly like a fresh encryption.
func DecodeState(params *ckks.Parameters, payload []byte) ([]*ckks.Ciphertext, error) {
	var state []*ckks.Ciphertext
	for i := 0; ; i++ {
		kind, blob, rest, err := frame.Cut(payload)
		if err != nil {
			return nil, fmt.Errorf("pipeline: state ciphertext %d: %w", i, err)
		}
		if kind == frame.End && len(blob) == 0 && len(rest) == 0 {
			return state, nil
		}
		if kind != frame.Ciphertext {
			return nil, fmt.Errorf("pipeline: state ciphertext %d: frame kind %d", i, kind)
		}
		payload = rest
		ct, err := ckks.DecodeCiphertext(params, blob)
		if err != nil {
			return nil, fmt.Errorf("pipeline: state ciphertext %d: %w", i, err)
		}
		state = append(state, ct)
	}
}
