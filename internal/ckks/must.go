package ckks

import (
	"math/big"

	"bitpacker/internal/ring"
)

// Must* wrappers: the documented panic boundary of the package. Each one
// delegates to its error-returning counterpart and panics on failure —
// for tests, benchmarks and examples where a typed error could only be
// a programming mistake. Library and application code should call the
// error-returning forms.

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// MustAdd is Add, panicking on error.
func (ev *Evaluator) MustAdd(a, b *Ciphertext) *Ciphertext { return must(ev.Add(a, b)) }

// MustSquare is Square, panicking on error.
func (ev *Evaluator) MustSquare(ct *Ciphertext) *Ciphertext { return must(ev.Square(ct)) }

// MustRescale is Rescale, panicking on error.
func (ev *Evaluator) MustRescale(ct *Ciphertext) *Ciphertext { return must(ev.Rescale(ct)) }

// MustAdjust is Adjust, panicking on error.
func (ev *Evaluator) MustAdjust(ct *Ciphertext) *Ciphertext { return must(ev.Adjust(ct)) }

// MustAdjustTo is AdjustTo, panicking on error.
func (ev *Evaluator) MustAdjustTo(ct *Ciphertext, level int) *Ciphertext {
	return must(ev.AdjustTo(ct, level))
}

// MustEncryptAtLevel is EncryptAtLevel, panicking on error.
func (enc *Encryptor) MustEncryptAtLevel(pt *Plaintext, level int) *Ciphertext {
	return must(enc.EncryptAtLevel(pt, level))
}

// MustEncode is Encode for inputs known to be valid (library-internal
// constants, pre-validated vectors), panicking on error.
func (e *Encoder) MustEncode(values []complex128, scale *big.Rat, moduli []uint64) *ring.Poly {
	return must(e.Encode(values, scale, moduli))
}

// MustDecryptAndDecode is DecryptAndDecode, panicking on error.
func (dec *Decryptor) MustDecryptAndDecode(ct *Ciphertext, encoder *Encoder) []complex128 {
	return must(dec.DecryptAndDecode(ct, encoder))
}
