package ntt

import (
	"math/bits"
	"math/rand/v2"
	"testing"

	"bitpacker/internal/nt"
)

func testTable(t *testing.T, q uint64, n int) *Table {
	t.Helper()
	tab, err := NewTable(q, n)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestNewTableErrors(t *testing.T) {
	if _, err := NewTable(7681, 100); err == nil {
		t.Fatal("non-power-of-two size accepted")
	}
	if _, err := NewTable(7680, 256); err == nil {
		t.Fatal("composite modulus accepted")
	}
	if _, err := NewTable(17, 256); err == nil {
		t.Fatal("non NTT-friendly prime accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, n := range []int{8, 64, 1024} {
		q := nt.PreviousNTTPrime(1<<59, uint64(2*n))
		tab := testTable(t, q, n)
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() % q
		}
		orig := append([]uint64(nil), a...)
		tab.Forward(a)
		tab.Inverse(a)
		for i := range a {
			if a[i] != orig[i] {
				t.Fatalf("n=%d: roundtrip mismatch at %d", n, i)
			}
		}
	}
}

// schoolbookNegacyclic computes a*b mod (X^N+1, q) naively.
func schoolbookNegacyclic(a, b []uint64, q uint64) []uint64 {
	n := len(a)
	out := make([]uint64, n)
	for i, ai := range a {
		for j, bj := range b {
			p := nt.MulMod(ai, bj, q)
			k := i + j
			if k < n {
				out[k] = nt.AddMod(out[k], p, q)
			} else {
				out[k-n] = nt.SubMod(out[k-n], p, q)
			}
		}
	}
	return out
}

func TestNegacyclicConvolution(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for _, n := range []int{8, 32, 256} {
		q := nt.PreviousNTTPrime(1<<30, uint64(2*n))
		tab := testTable(t, q, n)
		a := make([]uint64, n)
		b := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() % q
			b[i] = rng.Uint64() % q
		}
		want := schoolbookNegacyclic(a, b, q)
		got := make([]uint64, n)
		tab.PolyMul(got, a, b)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d q=%d: coeff %d: got %d want %d", n, q, i, got[i], want[i])
			}
		}
	}
}

func TestForwardIsEvaluationHomomorphic(t *testing.T) {
	// NTT(a) + NTT(b) must equal NTT(a+b) pointwise.
	n := 128
	q := nt.PreviousNTTPrime(1<<40, uint64(2*n))
	tab := testTable(t, q, n)
	rng := rand.New(rand.NewPCG(11, 12))
	a := make([]uint64, n)
	b := make([]uint64, n)
	s := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % q
		b[i] = rng.Uint64() % q
		s[i] = nt.AddMod(a[i], b[i], q)
	}
	tab.Forward(a)
	tab.Forward(b)
	tab.Forward(s)
	for i := range s {
		if s[i] != nt.AddMod(a[i], b[i], q) {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

// TestLazyReductionBounds drives the lazy-reduction butterflies with
// worst-case inputs (including all coefficients at q-1 for the widest
// supported 62-bit modulus) and asserts every output of the correction
// pass is fully reduced below q, in both directions and after pointwise
// products.
func TestLazyReductionBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for _, n := range []int{8, 256, 2048} {
		// The widest modulus the package supports: lazy values reach
		// almost 4q ~ 2^64 here, so any missing correction overflows.
		q := nt.PreviousNTTPrime(uint64(1)<<nt.MaxModulusBits, uint64(2*n))
		tab := testTable(t, q, n)
		cases := [][]uint64{
			make([]uint64, n), // all zero
			make([]uint64, n), // all q-1
			make([]uint64, n), // random
		}
		for i := range cases[1] {
			cases[1][i] = q - 1
		}
		for i := range cases[2] {
			cases[2][i] = rng.Uint64() % q
		}
		for ci, a := range cases {
			fwd := append([]uint64(nil), a...)
			tab.Forward(fwd)
			for i, x := range fwd {
				if x >= q {
					t.Fatalf("n=%d case %d: Forward output[%d]=%d >= q=%d", n, ci, i, x, q)
				}
			}
			prod := make([]uint64, n)
			tab.MulCoeffs(prod, fwd, fwd)
			for i, x := range prod {
				if x >= q {
					t.Fatalf("n=%d case %d: MulCoeffs output[%d]=%d >= q=%d", n, ci, i, x, q)
				}
			}
			inv := append([]uint64(nil), fwd...)
			tab.Inverse(inv)
			for i, x := range inv {
				if x >= q {
					t.Fatalf("n=%d case %d: Inverse output[%d]=%d >= q=%d", n, ci, i, x, q)
				}
				if x != a[i] {
					t.Fatalf("n=%d case %d: roundtrip mismatch at %d", n, ci, i)
				}
			}
		}
	}
}

func TestMulCoeffsAddAccumulates(t *testing.T) {
	n := 64
	q := nt.PreviousNTTPrime(1<<45, uint64(2*n))
	tab := testTable(t, q, n)
	rng := rand.New(rand.NewPCG(23, 24))
	a := make([]uint64, n)
	b := make([]uint64, n)
	acc := make([]uint64, n)
	want := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % q
		b[i] = rng.Uint64() % q
		acc[i] = rng.Uint64() % q
		want[i] = nt.AddMod(acc[i], nt.MulMod(a[i], b[i], q), q)
	}
	tab.MulCoeffsAdd(acc, a, b)
	for i := range acc {
		if acc[i] != want[i] {
			t.Fatalf("MulCoeffsAdd coeff %d: got %d want %d", i, acc[i], want[i])
		}
	}
}

// TestPointwiseKernelsMatchMulMod checks MulCoeffs, MulCoeffsAdd and
// MulCoeffsCross against nt.MulMod on random and boundary operands
// (q−1, 0) at every width class: 20-, 28-, 31- and 32-bit primes take
// the one-word reduction, 33- and 61-bit primes must not.
func TestPointwiseKernelsMatchMulMod(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewPCG(25, 26))
	for _, c := range []struct {
		bits   int
		narrow bool
	}{{20, true}, {28, true}, {31, true}, {32, true}, {33, false}, {61, false}} {
		q := nt.PreviousNTTPrime(1<<c.bits, 2*n)
		if got := bits.Len64(q); got != c.bits {
			t.Fatalf("prime below 2^%d has %d bits", c.bits, got)
		}
		tab := testTable(t, q, n)
		if (tab.mu != 0) != c.narrow {
			t.Fatalf("%d-bit prime: narrow path selected = %v, want %v", c.bits, tab.mu != 0, c.narrow)
		}
		vecs := make([][]uint64, 5) // a0, b1, a1, b0, acc
		for v := range vecs {
			vecs[v] = make([]uint64, n)
			for i := range vecs[v] {
				vecs[v][i] = rng.Uint64() % q
			}
		}
		// Boundary operands: every combination of q−1 and 0 in the
		// first slots, all-(q−1) in the next.
		for i := 0; i < 32; i++ {
			for v := range vecs {
				vecs[v][i] = uint64(i>>v&1) * (q - 1)
			}
		}
		a0, b1, a1, b0, acc := vecs[0], vecs[1], vecs[2], vecs[3], vecs[4]
		mul, add, cross := make([]uint64, n), append([]uint64(nil), acc...), make([]uint64, n)
		tab.MulCoeffs(mul, a0, b1)
		tab.MulCoeffsAdd(add, a0, b1)
		tab.MulCoeffsCross(cross, a0, b1, a1, b0)
		for i := 0; i < n; i++ {
			x, y := nt.MulMod(a0[i], b1[i], q), nt.MulMod(a1[i], b0[i], q)
			if mul[i] != x || add[i] != nt.AddMod(acc[i], x, q) || cross[i] != nt.AddMod(x, y, q) {
				t.Fatalf("%d-bit prime, coeff %d: kernels disagree with nt.MulMod", c.bits, i)
			}
		}
	}
}

func TestMulByXShiftsNegacyclically(t *testing.T) {
	// (X * a(X)) mod X^N+1 rotates coefficients with sign flip at wrap.
	n := 64
	q := nt.PreviousNTTPrime(1<<45, uint64(2*n))
	tab := testTable(t, q, n)
	a := make([]uint64, n)
	for i := range a {
		a[i] = uint64(i + 1)
	}
	x := make([]uint64, n)
	x[1] = 1
	got := make([]uint64, n)
	tab.PolyMul(got, a, x)
	if got[0] != q-uint64(n) {
		t.Fatalf("wrap coeff: got %d want %d", got[0], q-uint64(n))
	}
	for i := 1; i < n; i++ {
		if got[i] != uint64(i) {
			t.Fatalf("shift coeff %d: got %d want %d", i, got[i], i)
		}
	}
}

func BenchmarkForwardN8192(b *testing.B) {
	n := 8192
	q := nt.PreviousNTTPrime(1<<59, uint64(2*n))
	tab, err := NewTable(q, n)
	if err != nil {
		b.Fatal(err)
	}
	a := make([]uint64, n)
	for i := range a {
		a[i] = uint64(i) % q
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Forward(a)
	}
}

func BenchmarkInverseN8192(b *testing.B) {
	n := 8192
	q := nt.PreviousNTTPrime(1<<59, uint64(2*n))
	tab, err := NewTable(q, n)
	if err != nil {
		b.Fatal(err)
	}
	a := make([]uint64, n)
	for i := range a {
		a[i] = uint64(i) % q
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Inverse(a)
	}
}
