package bitpacker

import (
	"bytes"
	"math"
	"math/cmplx"
	"strings"
	"testing"
)

func testCtx(t *testing.T, scheme Scheme) *Context {
	t.Helper()
	ctx, err := New(Config{
		Scheme:    scheme,
		LogN:      10,
		Levels:    3,
		ScaleBits: 40,
		WordBits:  28,
		Rotations: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestPublicAPIRoundTrip(t *testing.T) {
	for _, scheme := range []Scheme{RNSCKKS, BitPacker} {
		ctx := testCtx(t, scheme)
		in := []float64{0.5, -0.25, 0.125}
		ct, err := ctx.EncryptReal(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ctx.DecryptReal(ct)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range in {
			if math.Abs(out[i]-v) > 1e-6 {
				t.Fatalf("%v slot %d: got %v want %v", scheme, i, out[i], v)
			}
		}
	}
}

func TestPublicAPIArithmetic(t *testing.T) {
	ctx := testCtx(t, BitPacker)
	a, _ := ctx.EncryptReal([]float64{0.5, 0.25})
	b, _ := ctx.EncryptReal([]float64{0.25, 0.5})

	sum, _ := ctx.DecryptReal(ctx.MustAdd(a, b))
	if math.Abs(sum[0]-0.75) > 1e-6 || math.Abs(sum[1]-0.75) > 1e-6 {
		t.Fatalf("add: %v", sum[:2])
	}

	prod := ctx.MustRescale(ctx.MustMul(a, b))
	if prod.Level() != ctx.MaxLevel()-1 {
		t.Fatalf("level after rescale: %d", prod.Level())
	}
	got, _ := ctx.DecryptReal(prod)
	if math.Abs(got[0]-0.125) > 1e-5 {
		t.Fatalf("mul: %v", got[0])
	}

	// x^2 + x via Adjust.
	sq := ctx.MustRescale(ctx.MustMul(a, a))
	adj := ctx.MustAdjust(a, sq.Level())
	res, _ := ctx.DecryptReal(ctx.MustAdd(sq, adj))
	if math.Abs(res[0]-0.75) > 1e-4 {
		t.Fatalf("x^2+x: %v", res[0])
	}

	rot, _ := ctx.Decrypt(ctx.MustRotate(a, 1))
	if cmplx.Abs(rot[0]-complex(0.25, 0)) > 1e-5 {
		t.Fatalf("rotate: %v", rot[0])
	}
}

func TestPublicAPIConstOps(t *testing.T) {
	ctx := testCtx(t, BitPacker)
	a, _ := ctx.EncryptReal([]float64{0.5})
	w := make([]complex128, 1)
	w[0] = complex(0.5, 0)
	prod := ctx.MustRescale(ctx.MustMulConst(a, w))
	got, _ := ctx.DecryptReal(prod)
	if math.Abs(got[0]-0.25) > 1e-5 {
		t.Fatalf("mulConst: %v", got[0])
	}
	sum, _ := ctx.DecryptReal(ctx.MustAddConst(a, w))
	if math.Abs(sum[0]-1.0) > 1e-6 {
		t.Fatalf("addConst: %v", sum[0])
	}
}

// TestEncodePlainKeepsEvaluationDomain: a Plain is stored in the form
// MulPlain reads, so a use costs no transform — and, the transform being
// deterministic, the product is byte for byte MulConst's, which encodes
// and transforms the same vector per call.
func TestEncodePlainKeepsEvaluationDomain(t *testing.T) {
	for _, scheme := range []Scheme{RNSCKKS, BitPacker} {
		for _, w := range []int{28, 61} {
			ctx, err := New(Config{Scheme: scheme, LogN: 10, Levels: 3, ScaleBits: 40, WordBits: w})
			if err != nil {
				t.Fatal(err)
			}
			v := []complex128{0.5, complex(-0.25, 0.75), 0.125, 1}
			a, err := ctx.Encrypt([]complex128{0.3, 0.6, complex(0, -0.9)})
			if err != nil {
				t.Fatal(err)
			}
			p, err := ctx.EncodePlain(v, a.Level())
			if err != nil {
				t.Fatal(err)
			}
			if !p.pt.Value.IsNTT {
				t.Fatalf("%v w=%d: EncodePlain left the plaintext in the coefficient domain", scheme, w)
			}
			for use := 0; use < 2; use++ { // a reused Plain is not consumed
				prod, err := ctx.MulPlain(a, p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ctx.MarshalCiphertext(prod)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ctx.MarshalCiphertext(ctx.MustMulConst(a, v))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%v w=%d use %d: MulPlain(EncodePlain(v)) differs from MulConst(v)", scheme, w, use)
				}
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{LogN: 10, Levels: 2}); err == nil {
		t.Fatal("missing scale accepted")
	}
	if _, err := New(Config{LogN: 10, Levels: 2, ScaleSchedule: []float64{40}}); err == nil {
		t.Fatal("bad schedule length accepted")
	}
	// Insecure parameters must be rejected when SecurityBits is set:
	// depth 8 at 40-bit scales needs ~400 modulus bits, far beyond the
	// 128-bit budget at N=2^10.
	if _, err := New(Config{LogN: 10, Levels: 8, ScaleBits: 40, SecurityBits: 128}); err == nil {
		t.Fatal("insecure parameters accepted")
	}
}

func TestCiphertextIntrospection(t *testing.T) {
	ctx := testCtx(t, BitPacker)
	ct, _ := ctx.EncryptReal([]float64{0.5})
	if ct.Level() != ctx.MaxLevel() {
		t.Fatalf("fresh ciphertext level %d", ct.Level())
	}
	if ct.Residues() <= 0 {
		t.Fatal("no residues")
	}
	if s := ct.ScaleLog2(); math.Abs(s-40) > 1 {
		t.Fatalf("scale %f, want ~40", s)
	}
	desc := ctx.ChainDescription()
	if !strings.Contains(desc, "BitPacker") || !strings.Contains(desc, "L0") {
		t.Fatalf("chain description malformed:\n%s", desc)
	}
}

// TestTopLevelResidueCounts freezes the residue counts of a fresh
// ciphertext at the benchmark's chain (bench/infer.go: LogN 13, Levels 8,
// ScaleBits 40). The paper's headline host ratio (14/9 = 1.56 residues,
// infer_bp28 vs infer_rns61), DESIGN.md's transform-count table and the
// core.residues_top.* metrics all rest on these four numbers, so a
// chain-builder change that moves one must show up here.
func TestTopLevelResidueCounts(t *testing.T) {
	for _, tc := range []struct {
		scheme   Scheme
		wordBits int
		want     int
	}{
		{BitPacker, 28, 14},
		{RNSCKKS, 61, 9},
		{RNSCKKS, 28, 19},
		{BitPacker, 61, 7},
	} {
		ctx, err := New(Config{
			Scheme:        tc.scheme,
			LogN:          13,
			Levels:        8,
			ScaleBits:     40,
			WordBits:      tc.wordBits,
			KeyCacheBytes: 1 << 20, // keys on demand: none are needed here
		})
		if err != nil {
			t.Fatalf("%v w=%d: %v", tc.scheme, tc.wordBits, err)
		}
		ct, err := ctx.EncryptReal([]float64{0.5})
		if err != nil {
			t.Fatalf("%v w=%d: %v", tc.scheme, tc.wordBits, err)
		}
		if got := ct.Residues(); got != tc.want {
			t.Errorf("%v w=%d: fresh ciphertext has %d residues, want %d", tc.scheme, tc.wordBits, got, tc.want)
		}
	}
}
