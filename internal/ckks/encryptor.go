package ckks

import (
	"math/big"
	"sync"

	"bitpacker/internal/fherr"
	"bitpacker/internal/ring"
	"bitpacker/internal/rns"
)

// Encryptor encrypts plaintexts under a public key.
type Encryptor struct {
	params  *Parameters
	pk      *PublicKey
	sampler *ring.Sampler
}

// NewEncryptor creates an encryptor with its own randomness stream.
func NewEncryptor(params *Parameters, pk *PublicKey, seed1, seed2 uint64) *Encryptor {
	return &Encryptor{params: params, pk: pk, sampler: ring.NewSampler(params.Ctx, seed1, seed2)}
}

// checkEncryptLevel validates an encryption target level against the chain.
func checkEncryptLevel(p *Parameters, level int) error {
	if level < 0 || level > p.MaxLevel() {
		return fherr.Wrap(fherr.ErrLevelMismatch,
			"ckks: encrypt level %d outside chain [0, %d]", level, p.MaxLevel())
	}
	return nil
}

// EncryptAtLevel encrypts pt (coefficient domain) producing a ciphertext
// at the given level. The plaintext must have been encoded over that
// level's moduli. The fresh ciphertext carries the noise model's
// fresh-encryption estimate.
func (enc *Encryptor) EncryptAtLevel(pt *Plaintext, level int) (*Ciphertext, error) {
	p := enc.params
	if err := checkEncryptLevel(p, level); err != nil {
		return nil, err
	}
	moduli := p.LevelModuli(level)
	v := enc.sampler.ZOPoly(moduli, 0.5)
	v.NTT()
	e0 := enc.sampler.GaussianPoly(moduli, p.Sigma)
	e0.NTT()
	e1 := enc.sampler.GaussianPoly(moduli, p.Sigma)
	e1.NTT()

	b := enc.pk.B.Restrict(moduli)
	var a *ring.Poly
	if enc.pk.A != nil {
		a = enc.pk.A.Restrict(moduli)
	} else {
		// Seed-compressed public key: regenerate exactly the level's rows
		// from the seed — row content depends only on (seed, modulus), so
		// this matches restricting the dense A bit for bit.
		a = ring.GetUniformPolyFromSeed(p.Ctx, moduli, enc.pk.ASeed)
		defer p.Ctx.PutPoly(a)
	}

	m := pt.Value.Copy()
	m.NTT()

	c0 := ring.NewPoly(p.Ctx, moduli)
	c0.IsNTT = true
	c0.MulCoeffs(v, b)
	c0.Add(c0, e0)
	c0.Add(c0, m)

	c1 := ring.NewPoly(p.Ctx, moduli)
	c1.IsNTT = true
	c1.MulCoeffs(v, a)
	c1.Add(c1, e1)

	fresh := NewNoiseModel(p).FreshBits()
	ct := newCiphertext(c0, c1, level, new(big.Rat).Set(pt.Scale), fresh)
	ct.SeedSpare(p)
	return ct, nil
}

// Decryptor decrypts ciphertexts with the secret key.
type Decryptor struct {
	params *Parameters
	sk     *SecretKey

	// basisMu guards basisCache: serving tenants decrypt concurrently
	// through one shared Decryptor.
	basisMu    sync.Mutex
	basisCache map[string]*rns.Basis
}

// NewDecryptor creates a decryptor.
func NewDecryptor(params *Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk, basisCache: map[string]*rns.Basis{}}
}

// DecryptToPoly returns the raw plaintext polynomial m = c0 + c1*s in the
// coefficient domain, together with the ciphertext's scale.
func (dec *Decryptor) DecryptToPoly(ct *Ciphertext) *Plaintext {
	s := dec.sk.S.Restrict(ct.C0.Moduli)
	m := ct.C1.Copy()
	m.MulCoeffs(m, s)
	m.Add(m, ct.C0)
	m.INTT()
	return &Plaintext{Value: m, Level: ct.Level, Scale: new(big.Rat).Set(ct.Scale)}
}

// Basis returns (caching) the CRT basis for a modulus list. An invalid
// modulus list fails with fherr.ErrInvalidParams.
func (dec *Decryptor) Basis(moduli []uint64) (*rns.Basis, error) {
	key := ""
	for _, q := range moduli {
		key += string(rune(q % 65536))
	}
	dec.basisMu.Lock()
	defer dec.basisMu.Unlock()
	if b, ok := dec.basisCache[key]; ok && sameModuli(b.Moduli, moduli) {
		return b, nil
	}
	b, err := rns.NewBasis(dec.params.N(), moduli)
	if err != nil {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "ckks: CRT basis: %v", err)
	}
	dec.basisCache[key] = b
	return b, nil
}

func sameModuli(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DecryptAndDecode decrypts ct and decodes its slots.
func (dec *Decryptor) DecryptAndDecode(ct *Ciphertext, encoder *Encoder) ([]complex128, error) {
	pt := dec.DecryptToPoly(ct)
	basis, err := dec.Basis(pt.Value.Moduli)
	if err != nil {
		return nil, err
	}
	return encoder.Decode(pt.Value, basis, pt.Scale), nil
}

// SymmetricEncryptor encrypts directly under the secret key, producing
// fresh ciphertexts with slightly less noise than public-key encryption
// (no v*e_pk term). Used server-side or for test vectors.
type SymmetricEncryptor struct {
	params  *Parameters
	sk      *SecretKey
	sampler *ring.Sampler
}

// NewSymmetricEncryptor creates a secret-key encryptor.
func NewSymmetricEncryptor(params *Parameters, sk *SecretKey, seed1, seed2 uint64) *SymmetricEncryptor {
	return &SymmetricEncryptor{params: params, sk: sk, sampler: ring.NewSampler(params.Ctx, seed1, seed2)}
}

// EncryptAtLevel encrypts pt at the given level: c1 uniform, c0 = -c1*s + e + m.
func (enc *SymmetricEncryptor) EncryptAtLevel(pt *Plaintext, level int) (*Ciphertext, error) {
	p := enc.params
	if err := checkEncryptLevel(p, level); err != nil {
		return nil, err
	}
	moduli := p.LevelModuli(level)
	c1 := enc.sampler.UniformPoly(moduli)
	e := enc.sampler.GaussianPoly(moduli, p.Sigma)
	e.NTT()
	m := pt.Value.Copy()
	m.NTT()
	s := enc.sk.S.Restrict(moduli)
	c0 := ring.NewPoly(p.Ctx, moduli)
	c0.IsNTT = true
	c0.MulCoeffs(c1, s)
	c0.Neg(c0)
	c0.Add(c0, e)
	c0.Add(c0, m)
	fresh := NewNoiseModel(p).FreshBits()
	ct := newCiphertext(c0, c1, level, new(big.Rat).Set(pt.Scale), fresh)
	ct.SeedSpare(p)
	return ct, nil
}
