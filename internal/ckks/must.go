package ckks

import (
	"math/big"

	"bitpacker/internal/ring"
	"bitpacker/internal/rns"
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

// MustSub is Sub, panicking on error.
func (ev *Evaluator) MustSub(a, b *Ciphertext) *Ciphertext { return must(ev.Sub(a, b)) }

// MustNeg is Neg, panicking on error.
func (ev *Evaluator) MustNeg(a *Ciphertext) *Ciphertext { return must(ev.Neg(a)) }

// MustAddPlain is AddPlain, panicking on error.
func (ev *Evaluator) MustAddPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	return must(ev.AddPlain(ct, pt))
}

// MustMulPlain is MulPlain, panicking on error.
func (ev *Evaluator) MustMulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	return must(ev.MulPlain(ct, pt))
}

// MustMulScalarInt is MulScalarInt, panicking on error.
func (ev *Evaluator) MustMulScalarInt(ct *Ciphertext, c int64) *Ciphertext {
	return must(ev.MulScalarInt(ct, c))
}

// MustMulRelin is MulRelin, panicking on error.
func (ev *Evaluator) MustMulRelin(a, b *Ciphertext) *Ciphertext { return must(ev.MulRelin(a, b)) }

// MustMulRescale is MulRescale, panicking on error.
func (ev *Evaluator) MustMulRescale(a, b *Ciphertext) *Ciphertext { return must(ev.MulRescale(a, b)) }

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

// MustRotate is Rotate, panicking on error.
func (ev *Evaluator) MustRotate(ct *Ciphertext, steps int) *Ciphertext {
	return must(ev.Rotate(ct, steps))
}

// MustConjugate is Conjugate, panicking on error.
func (ev *Evaluator) MustConjugate(ct *Ciphertext) *Ciphertext { return must(ev.Conjugate(ct)) }

// MustRotateHoisted is RotateHoisted, panicking on error.
func (ev *Evaluator) MustRotateHoisted(ct *Ciphertext, steps []int) []*Ciphertext {
	return must(ev.RotateHoisted(ct, steps))
}

// MustModRaise is ModRaise, panicking on error.
func (ev *Evaluator) MustModRaise(ct *Ciphertext, toLevel int) *Ciphertext {
	return must(ev.ModRaise(ct, toLevel))
}

// MustApplyLinearTransform is ApplyLinearTransform, panicking on error.
func (ev *Evaluator) MustApplyLinearTransform(ct *Ciphertext, lt *LinearTransform) *Ciphertext {
	return must(ev.ApplyLinearTransform(ct, lt))
}

// MustEncryptAtLevel is EncryptAtLevel, panicking on error.
func (enc *Encryptor) MustEncryptAtLevel(pt *Plaintext, level int) *Ciphertext {
	return must(enc.EncryptAtLevel(pt, level))
}

// MustEncryptAtLevel is EncryptAtLevel, panicking on error.
func (enc *SymmetricEncryptor) MustEncryptAtLevel(pt *Plaintext, level int) *Ciphertext {
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

// MustBasis is Basis, panicking on error.
func (dec *Decryptor) MustBasis(moduli []uint64) *rns.Basis { return must(dec.Basis(moduli)) }
