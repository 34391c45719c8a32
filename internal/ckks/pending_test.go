package ckks

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"bitpacker/internal/core"
	"bitpacker/internal/fherr"
	"bitpacker/internal/ring"
)

// TestPendingFormRefused: a pending ciphertext never leaves the
// evaluator as P·m. Serializing or decrypting one is refused with
// fherr.ErrInvariant, and a pending form that arrives from outside — a
// ciphertext whose rows include a special prime without the evaluator
// having made it pending — fails Validate, UnmarshalCiphertext and
// DecodeCiphertext with typed errors.
func TestPendingFormRefused(t *testing.T) {
	for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
		s := newTestSetup(t, scheme, 2, 40, 61, 9, 3, nil)
		rng := rand.New(rand.NewPCG(601, 602))
		ct := s.encryptValues(randomValues(s.params.Slots(), rng))
		pending := s.ev.MustMulRelin(ct, ct)
		if !pending.pending() {
			t.Fatalf("%v: MulRelin output is not pending", scheme)
		}
		if err := pending.Validate(s.params); err != nil {
			t.Fatalf("%v: the evaluator's pending output fails Validate: %v", scheme, err)
		}
		if _, err := pending.MarshalBinary(); !errors.Is(err, fherr.ErrInvariant) {
			t.Errorf("%v: marshal of a pending ciphertext: %v, want ErrInvariant", scheme, err)
		}
		if _, err := s.dec.DecryptToPoly(pending); !errors.Is(err, fherr.ErrInvariant) {
			t.Errorf("%v: DecryptToPoly of a pending ciphertext: %v, want ErrInvariant", scheme, err)
		}
		if _, err := s.dec.DecryptAndDecode(pending, s.enc); !errors.Is(err, fherr.ErrInvariant) {
			t.Errorf("%v: DecryptAndDecode of a pending ciphertext: %v, want ErrInvariant", scheme, err)
		}

		forged := newCiphertext(pending.C0, pending.C1, pending.Level, pending.Scale, pending.NoiseBits)
		if err := forged.Validate(s.params); !errors.Is(err, fherr.ErrInvariant) {
			t.Errorf("%v: Validate of special-prime rows not made pending: %v, want ErrInvariant", scheme, err)
		}
		blob, err := forged.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalCiphertext(s.params, blob); !errors.Is(err, fherr.ErrInvariant) {
			t.Errorf("%v: UnmarshalCiphertext of a pending form: %v, want ErrInvariant", scheme, err)
		}
		if _, err := DecodeCiphertext(s.params, blob); !errors.Is(err, fherr.ErrInvalidParams) {
			t.Errorf("%v: DecodeCiphertext of a pending form: %v, want ErrInvalidParams", scheme, err)
		}
	}
}

// TestPendingReadsIndependentOfOrder: a pending value read by two
// consumers is divided by each, deterministically. Rescale then Decrypt
// and Decrypt then Rescale of one MulRelin output, and Rotate then Add
// and Add then Rotate of one rotation, give the same bytes in either
// order and at 1 and 4 workers, and leave the pending value and the
// operands as they were.
func TestPendingReadsIndependentOfOrder(t *testing.T) {
	s := newTestSetup(t, core.BitPacker, 2, 40, 28, 9, 3, []int{1, 2})
	rng := rand.New(rand.NewPCG(603, 604))
	a := s.encryptValues(randomValues(s.params.Slots(), rng))
	b := s.encryptValues(randomValues(s.params.Slots(), rng))
	before := [][]byte{marshalCt(t, s, a), marshalCt(t, s, b)}
	var want []byte
	for _, workers := range []int{1, 4} {
		for _, rescaleFirst := range []bool{true, false} {
			var got []byte
			runWithWorkers(t, workers, func() *Ciphertext {
				prod := s.ev.MustMulRelin(a, b)
				rot := s.ev.MustRotate(a, 1)
				snap := pendingRows(prod, rot)
				var parts [4][]byte
				rescale := func() { parts[0] = marshalCt(t, s, s.ev.MustRescale(prod)) }
				decrypt := func() { parts[1] = []byte(fmt.Sprint(s.decrypt(prod))) }
				rotate := func() { parts[2] = marshalCt(t, s, s.ev.MustRotate(rot, 2)) }
				add := func() { parts[3] = marshalCt(t, s, s.ev.MustAdd(rot, b)) }
				if rescaleFirst {
					rescale()
					decrypt()
					rotate()
					add()
				} else {
					decrypt()
					rescale()
					add()
					rotate()
				}
				if !bytes.Equal(snap, pendingRows(prod, rot)) {
					t.Fatalf("workers=%d rescaleFirst=%v: a consumer changed the pending value it read", workers, rescaleFirst)
				}
				got = bytes.Join(parts[:], nil)
				return nil
			})
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("workers=%d rescaleFirst=%v: consumer outputs differ from workers=1 in order", workers, rescaleFirst)
			}
		}
	}
	if !slices.EqualFunc(before, [][]byte{marshalCt(t, s, a), marshalCt(t, s, b)}, bytes.Equal) {
		t.Error("an operand changed")
	}
}

// pendingRows is every coefficient word of the given ciphertexts, pending
// rows included.
func pendingRows(cts ...*Ciphertext) []byte {
	var out []byte
	for _, ct := range cts {
		for _, p := range []*ring.Poly{ct.C0, ct.C1} {
			for _, row := range p.Coeffs {
				for _, w := range row {
					out = binary.LittleEndian.AppendUint64(out, w)
				}
			}
		}
	}
	return out
}
