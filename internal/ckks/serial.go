package ckks

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"slices"

	"bitpacker/internal/fherr"
	"bitpacker/internal/ring"
)

// Binary serialization for ciphertexts (network/storage interchange).
// Format (little-endian):
//
//	magic "BPCT" | version u8 | level u32 | isNTT u8 | noiseBits f64 (v2+)
//	scaleNum len u32 | bytes | scaleDen len u32 | bytes
//	R u32 | N u32 | moduli [R]u64 | c0 residues [R][N]u64 | c1 ...
//
// Version 2 added the noise-budget estimate; version-1 blobs are still
// accepted and get the conservative fresh-encryption estimate.

const ctMagic = "BPCT"
const ctVersion = 2

// MarshalBinary encodes the ciphertext.
func (ct *Ciphertext) MarshalBinary() ([]byte, error) {
	return ct.AppendBinary(nil)
}

// BinarySize is the length of the ciphertext's encoding, so a caller can
// size a buffer for AppendBinary exactly (0 for an incomplete one).
func (ct *Ciphertext) BinarySize() int {
	if ct.C0 == nil || ct.C1 == nil {
		return 0
	}
	num, den := scaleParts(ct.Scale)
	r, n := ct.C0.R(), ct.C0.N()
	return 4 + 1 + 4 + 1 + 8 + 4 + byteLen(num) + 4 + byteLen(den) + 4 + 4 + 8*r + 2*8*r*n
}

// AppendBinary appends the ciphertext's encoding to dst, growing it at
// most once, and returns the extended slice.
func (ct *Ciphertext) AppendBinary(dst []byte) ([]byte, error) {
	if ct.C0 == nil || ct.C1 == nil {
		return nil, fmt.Errorf("ckks: marshal of incomplete ciphertext")
	}
	if ct.C0.IsNTT != ct.C1.IsNTT || ct.C0.R() != ct.C1.R() {
		return nil, fmt.Errorf("ckks: inconsistent ciphertext polynomials")
	}
	if ct.pending() {
		return nil, errPending("marshal")
	}
	r, n := ct.C0.R(), ct.C0.N()
	num, den := scaleParts(ct.Scale)
	out := slices.Grow(dst, ct.BinarySize())
	out = append(out, ctMagic...)
	out = append(out, ctVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(ct.Level))
	ntt := byte(0)
	if ct.C0.IsNTT {
		ntt = 1
	}
	out = append(out, ntt)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(ct.NoiseBits))
	out = appendNat(out, num)
	out = appendNat(out, den)
	out = binary.LittleEndian.AppendUint32(out, uint32(r))
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	for _, q := range ct.C0.Moduli {
		out = binary.LittleEndian.AppendUint64(out, q)
	}
	for _, p := range []*ring.Poly{ct.C0, ct.C1} {
		for i := 0; i < r; i++ {
			for _, c := range p.Coeffs[i] {
				out = binary.LittleEndian.AppendUint64(out, c)
			}
		}
	}
	return out, nil
}

var bigOne = big.NewInt(1)

// scaleParts returns the scale's numerator and denominator without the
// allocation Rat.Denom makes for an integer scale.
func scaleParts(s *big.Rat) (num, den *big.Int) {
	if s.IsInt() {
		return s.Num(), bigOne
	}
	return s.Num(), s.Denom()
}

func byteLen(x *big.Int) int { return (x.BitLen() + 7) / 8 }

// appendNat appends |x| as a u32 length and its big-endian bytes — what
// x.Bytes() holds, written in place.
func appendNat(out []byte, x *big.Int) []byte {
	k := byteLen(x)
	out = binary.LittleEndian.AppendUint32(out, uint32(k))
	x.FillBytes(out[len(out) : len(out)+k])
	return out[:len(out)+k]
}

// MaxCiphertextBytes bounds MarshalBinary of any ciphertext of the
// chain: the encoding of a top-level one, with one residue row's worth of
// bytes for its scale's numerator and denominator — far more than any
// scale the chain produces.
func MaxCiphertextBytes(params *Parameters) int {
	r, n := len(params.LevelModuli(params.MaxLevel())), params.N()
	return 4 + 1 + 4 + 1 + 8 + 4 + 4 + 8*n + 4 + 4 + 8*r + 2*8*r*n
}

// DecodeCiphertext is the decode of a trusted point: UnmarshalCiphertext,
// then Validate's structural, moduli, scale and metadata checks (the
// unmarshal has just range-checked every coefficient, so Validate's own
// coefficient scan is not repeated), then the RRNS spare channel seeded
// when the chain carries one — like a fresh encryption. Every ciphertext
// that enters the library from bytes (a served blob, a shard batch, a
// checkpoint) comes through here. An untyped parse error wraps
// ErrInvalidParams; a typed one (the pending form's ErrInvariant) and a
// failed check (Validate's ErrInvariant) come back as they are.
func DecodeCiphertext(params *Parameters, data []byte) (*Ciphertext, error) {
	ct, err := UnmarshalCiphertext(params, data)
	if err != nil {
		if !fherr.Typed(err) {
			err = fherr.Wrap(fherr.ErrInvalidParams, "%v", err)
		}
		return nil, err
	}
	if err := ct.validateStructure(params); err != nil {
		return nil, err
	}
	if params.SpareModulus() != 0 {
		ct.SeedSpare(params)
	}
	return ct, nil
}

// UnmarshalCiphertext decodes a ciphertext serialized by MarshalBinary,
// range-checking every coefficient against its modulus. The parameters
// supply the ring context; the moduli are carried in the encoding and
// validated against it.
func UnmarshalCiphertext(params *Parameters, data []byte) (*Ciphertext, error) {
	rd := reader{buf: data}
	if string(rd.take(4)) != ctMagic {
		return nil, fmt.Errorf("ckks: bad magic")
	}
	version := rd.u8()
	if version != 1 && version != ctVersion {
		return nil, fmt.Errorf("ckks: unsupported version %d", version)
	}
	level := int(rd.u32())
	isNTT := rd.u8() == 1
	noiseBits := NewNoiseModel(params).FreshBits() // v1 default: conservative fresh estimate
	if version >= 2 {
		noiseBits = math.Float64frombits(rd.u64())
		if math.IsNaN(noiseBits) || math.IsInf(noiseBits, 0) {
			return nil, fmt.Errorf("ckks: non-finite noise estimate")
		}
	}
	num := new(big.Int).SetBytes(rd.take(int(rd.u32())))
	den := new(big.Int).SetBytes(rd.take(int(rd.u32())))
	if rd.err != nil {
		return nil, rd.err
	}
	if den.Sign() == 0 {
		return nil, fmt.Errorf("ckks: zero scale denominator")
	}
	r := int(rd.u32())
	n := int(rd.u32())
	if rd.err != nil {
		return nil, rd.err
	}
	if n != params.N() {
		return nil, fmt.Errorf("ckks: ring degree %d does not match parameters (%d)", n, params.N())
	}
	if level < 0 || level > params.MaxLevel() {
		return nil, fmt.Errorf("ckks: level %d out of range", level)
	}
	if r <= 0 || r > 1024 {
		return nil, fmt.Errorf("ckks: implausible residue count %d", r)
	}
	moduli := make([]uint64, r)
	for i := range moduli {
		if moduli[i] = rd.u64(); slices.Contains(params.Chain.Special, moduli[i]) {
			return nil, fherr.Wrap(fherr.ErrInvariant, "ckks: residue %d is over special prime %d: a pending form, which never travels", i, moduli[i])
		}
	}
	want := params.LevelModuli(level)
	if len(want) != r {
		return nil, fmt.Errorf("ckks: level %d expects %d residues, got %d", level, len(want), r)
	}
	for i := range want {
		if moduli[i] != want[i] {
			return nil, fmt.Errorf("ckks: modulus %d mismatch at level %d", i, level)
		}
	}
	// The coefficient payload size is fully determined by the validated
	// header; check it before allocating the polynomials so a truncated or
	// padded blob fails here instead of mid-decode.
	if rem := len(rd.buf) - rd.off; rem != 2*8*r*n {
		return nil, fmt.Errorf("ckks: coefficient payload is %d bytes, need %d", rem, 2*8*r*n)
	}
	polys := make([]*ring.Poly, 2)
	for pi := range polys {
		p := ring.NewPoly(params.Ctx, moduli)
		p.IsNTT = isNTT
		for i, row := range p.Coeffs {
			q := moduli[i]
			src := rd.take(8 * len(row))
			for k := range row {
				c := binary.LittleEndian.Uint64(src[8*k:])
				if c >= q {
					return nil, fmt.Errorf("ckks: residue out of range")
				}
				row[k] = c
			}
		}
		polys[pi] = p
	}
	if rd.err != nil {
		return nil, rd.err
	}
	if len(rd.buf) != rd.off {
		return nil, fmt.Errorf("ckks: %d trailing bytes", len(rd.buf)-rd.off)
	}
	return newCiphertext(polys[0], polys[1], level, new(big.Rat).SetFrac(num, den), noiseBits), nil
}

// reader is a bounds-checked cursor.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err == nil && n >= 0 && n <= len(r.buf)-r.off {
		out := r.buf[r.off : r.off+n]
		r.off += n
		return out
	}
	if r.err == nil {
		r.err = fmt.Errorf("ckks: truncated blob (declared %d bytes, %d remain)", n, len(r.buf)-r.off)
	}
	// Failure path: n came from the (possibly hostile) blob itself, so it
	// must never size an allocation the payload cannot back. The primitive
	// reads (u8/u32/u64) index into the result, so hand back a small zero
	// buffer instead of n bytes.
	if n < 0 || n > 8 {
		n = 8
	}
	return make([]byte, n)
}

func (r *reader) u8() byte    { return r.take(1)[0] }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }
