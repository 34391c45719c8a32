package ckks

import "bitpacker/internal/rns"

// The Must* wrappers only tests call.

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

// MustRotateHoistedMulRescale is RotateHoistedMulRescale, panicking on error.
func (ev *Evaluator) MustRotateHoistedMulRescale(ct *Ciphertext, steps []int, pt *Plaintext) []*Ciphertext {
	return must(ev.RotateHoistedMulRescale(ct, steps, pt))
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
func (enc *SymmetricEncryptor) MustEncryptAtLevel(pt *Plaintext, level int) *Ciphertext {
	return must(enc.EncryptAtLevel(pt, level))
}

// MustBasis is Basis, panicking on error.
func (dec *Decryptor) MustBasis(moduli []uint64) *rns.Basis { return must(dec.Basis(moduli)) }
