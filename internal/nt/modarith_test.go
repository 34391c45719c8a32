package nt

import (
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

const testPrime = uint64(0x1fffffffffe00001) // 61-bit NTT-friendly prime (p ≡ 1 mod 2^21)

func TestAddSubNegMod(t *testing.T) {
	q := uint64(17)
	for x := uint64(0); x < q; x++ {
		for y := uint64(0); y < q; y++ {
			if got, want := AddMod(x, y, q), (x+y)%q; got != want {
				t.Fatalf("AddMod(%d,%d)=%d want %d", x, y, got, want)
			}
			if got, want := SubMod(x, y, q), (x+q-y)%q; got != want {
				t.Fatalf("SubMod(%d,%d)=%d want %d", x, y, got, want)
			}
		}
		if got, want := NegMod(x, q), (q-x)%q; got != want {
			t.Fatalf("NegMod(%d)=%d want %d", x, got, want)
		}
	}
}

func TestMulModAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	q := testPrime
	bq := new(big.Int).SetUint64(q)
	for i := 0; i < 2000; i++ {
		x := rng.Uint64() % q
		y := rng.Uint64() % q
		want := new(big.Int).Mul(new(big.Int).SetUint64(x), new(big.Int).SetUint64(y))
		want.Mod(want, bq)
		if got := MulMod(x, y, q); got != want.Uint64() {
			t.Fatalf("MulMod(%d,%d)=%d want %d", x, y, got, want.Uint64())
		}
	}
}

func TestMulModBarrett(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	qs := []uint64{3, 97, 7681, 1<<30 - 35, 1<<45 - 55, testPrime, 1<<62 - 57}
	for _, q := range qs {
		bhi, blo := BarrettConstant(q)
		// Edge cases: the extremes where the quotient estimate is tightest.
		edges := [][2]uint64{{0, 0}, {0, q - 1}, {q - 1, q - 1}, {1, q - 1}, {q / 2, q - 1}}
		for _, e := range edges {
			if got, want := MulModBarrett(e[0], e[1], q, bhi, blo), MulMod(e[0], e[1], q); got != want {
				t.Fatalf("q=%d MulModBarrett(%d,%d)=%d want %d", q, e[0], e[1], got, want)
			}
		}
		for i := 0; i < 2000; i++ {
			x := rng.Uint64() % q
			y := rng.Uint64() % q
			if got, want := MulModBarrett(x, y, q, bhi, blo), MulMod(x, y, q); got != want {
				t.Fatalf("q=%d MulModBarrett(%d,%d)=%d want %d", q, x, y, got, want)
			}
		}
	}
}

// TestReduceWord: the one-word Barrett reduction must agree with % over
// the whole word, in particular at the multiples of q (where an estimate
// one short leaves exactly q) and at the top of the range.
func TestReduceWord(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, q := range []uint64{3, 97, 7681, 1<<28 - 57, 1<<32 - 5, 1<<45 - 55, testPrime, 1<<62 - 57} {
		mu := WordBarrett(q)
		top := ^uint64(0) / q * q
		for _, x := range []uint64{0, 1, q - 1, q, q + 1, 2*q - 1, 2 * q, top - 1, top, top + 1, ^uint64(0)} {
			if got, want := ReduceWord(x, q, mu), x%q; got != want {
				t.Fatalf("q=%d ReduceWord(%d)=%d want %d", q, x, got, want)
			}
		}
		for i := 0; i < 2000; i++ {
			x := rng.Uint64()
			if got, want := ReduceWord(x, q, mu), x%q; got != want {
				t.Fatalf("q=%d ReduceWord(%d)=%d want %d", q, x, got, want)
			}
		}
	}
}

func TestBarrettConstantAgainstBig(t *testing.T) {
	for _, q := range []uint64{3, 97, 1<<30 - 35, testPrime, 1<<62 - 57} {
		want := new(big.Int).Lsh(big.NewInt(1), 128)
		want.Div(want, new(big.Int).SetUint64(q))
		hi, lo := BarrettConstant(q)
		got := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		got.Add(got, new(big.Int).SetUint64(lo))
		if got.Cmp(want) != 0 {
			t.Fatalf("BarrettConstant(%d) = %v want %v", q, got, want)
		}
	}
}

func TestMulModShoup(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, q := range []uint64{97, 7681, 1<<30 - 35, testPrime} {
		for i := 0; i < 500; i++ {
			x := rng.Uint64() % q
			w := rng.Uint64() % q
			ws := ShoupPrecomp(w, q)
			if got, want := MulModShoup(x, w, ws, q), MulMod(x, w, q); got != want {
				t.Fatalf("q=%d MulModShoup(%d,%d)=%d want %d", q, x, w, got, want)
			}
			lazy := MulModLazyShoup(x, w, ws, q)
			if lazy >= 2*q {
				t.Fatalf("lazy result %d out of [0,2q) for q=%d", lazy, q)
			}
			if lazy%q != MulMod(x, w, q) {
				t.Fatalf("lazy result incongruent")
			}
		}
	}
}

func TestPowInvMod(t *testing.T) {
	q := uint64(7681)
	for x := uint64(1); x < 200; x++ {
		inv := InvMod(x, q)
		if MulMod(x, inv, q) != 1 {
			t.Fatalf("InvMod(%d) wrong", x)
		}
	}
	if got := PowMod(3, 0, q); got != 1 {
		t.Fatalf("x^0 = %d want 1", got)
	}
	if got := PowMod(0, 5, q); got != 0 {
		t.Fatalf("0^5 = %d want 0", got)
	}
}

func TestInvModZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	InvMod(0, 17)
}

func TestPowModProperty(t *testing.T) {
	// Fermat: x^(q-1) = 1 mod q for prime q and x != 0.
	q := testPrime
	f := func(seed uint64) bool {
		x := seed%(q-1) + 1
		return PowMod(x, q-1, q) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIsPrimeSmall(t *testing.T) {
	primes := map[uint64]bool{}
	// Sieve up to 2000.
	limit := uint64(2000)
	comp := make([]bool, limit+1)
	for i := uint64(2); i <= limit; i++ {
		if !comp[i] {
			primes[i] = true
			for j := i * i; j <= limit; j += i {
				comp[j] = true
			}
		}
	}
	for n := uint64(0); n <= limit; n++ {
		if IsPrime(n) != primes[n] {
			t.Fatalf("IsPrime(%d)=%v want %v", n, IsPrime(n), primes[n])
		}
	}
}

func TestIsPrimeLarge(t *testing.T) {
	cases := map[uint64]bool{
		testPrime:                  true,
		(1 << 61) - 1:              true,  // Mersenne prime
		(1 << 62) - 1:              false, // 3 * ...
		18446744073709551557:       true,  // largest 64-bit prime
		18446744073709551555:       false,
		2305843009213693951 * 2:    false,
		6700417 * 6700417:          false, // square of a prime
		(1 << 40) * 65536 * 2 * 31: false,
	}
	for n, want := range cases {
		if got := IsPrime(n); got != want {
			t.Fatalf("IsPrime(%d)=%v want %v", n, got, want)
		}
	}
}

func TestFactor(t *testing.T) {
	cases := []uint64{1, 2, 12, 97, 1024, 3 * 5 * 7 * 11 * 13, 6700417 * 6700417, testPrime - 1, 600851475143}
	for _, n := range cases {
		f := Factor(n)
		prod := uint64(1)
		for p, e := range f {
			if !IsPrime(p) {
				t.Fatalf("Factor(%d): factor %d not prime", n, p)
			}
			for i := 0; i < e; i++ {
				prod *= p
			}
		}
		if n >= 2 && prod != n {
			t.Fatalf("Factor(%d): product %d", n, prod)
		}
		if n < 2 && len(f) != 0 {
			t.Fatalf("Factor(%d) nonempty", n)
		}
	}
}

func TestPrimitiveRoot(t *testing.T) {
	for _, p := range []uint64{3, 5, 7, 97, 7681, 12289} {
		g := PrimitiveRoot(p)
		// g must have order exactly p-1.
		for f := range Factor(p - 1) {
			if PowMod(g, (p-1)/f, p) == 1 {
				t.Fatalf("p=%d: %d is not a primitive root", p, g)
			}
		}
	}
}

func TestPrimitiveNthRoot(t *testing.T) {
	p := uint64(7681) // 7681 = 2^9*15 + 1, supports NTT up to 2N=512
	n := uint64(512)
	w := PrimitiveNthRoot(n, p)
	if PowMod(w, n, p) != 1 {
		t.Fatalf("w^n != 1")
	}
	if PowMod(w, n/2, p) == 1 {
		t.Fatalf("w has order < n")
	}
}

func TestNTTPrimeSearch(t *testing.T) {
	m := uint64(1 << 12) // 2N for N=2^11
	p := PreviousNTTPrime(1<<30, m)
	if p == 0 || !IsNTTFriendly(p, m) || p >= 1<<30 {
		t.Fatalf("PreviousNTTPrime bad: %d", p)
	}
	p2 := NextNTTPrime(1<<30, m)
	if p2 == 0 || !IsNTTFriendly(p2, m) || p2 <= 1<<30 {
		t.Fatalf("NextNTTPrime bad: %d", p2)
	}
	list := NTTPrimesBelow(1<<30, m, 10)
	if len(list) != 10 {
		t.Fatalf("want 10 primes, got %d", len(list))
	}
	for i, q := range list {
		if !IsNTTFriendly(q, m) {
			t.Fatalf("prime %d not NTT friendly", q)
		}
		if i > 0 && q >= list[i-1] {
			t.Fatalf("not descending")
		}
	}
}

func TestNTTPrimesNearOrdering(t *testing.T) {
	m := uint64(128)
	target := uint64(1 << 20)
	list := NTTPrimesNear(target, m, 8)
	if len(list) != 8 {
		t.Fatalf("want 8, got %d", len(list))
	}
	dist := func(p uint64) uint64 {
		if p > target {
			return p - target
		}
		return target - p
	}
	for i := 1; i < len(list); i++ {
		if dist(list[i]) < dist(list[i-1]) {
			t.Fatalf("not ordered by distance: %v", list)
		}
	}
}

func TestPaperPrimeCounts(t *testing.T) {
	// Paper Sec. 3.3: "with N = 64K and w = 28 bits, there are only 244
	// NTT-friendly primes" and "with N = 64K, all NTT-friendly primes are
	// 17 bits or wider".
	m := uint64(2 * 65536)
	count := 0
	for p := NextNTTPrime(m, m); p != 0 && p < 1<<28; p = NextNTTPrime(p, m) {
		count++
	}
	if count != 244 {
		t.Fatalf("expected 244 NTT-friendly primes below 2^28 for N=64K, got %d", count)
	}
	first := NextNTTPrime(m, m)
	if first <= m {
		t.Fatalf("smallest NTT-friendly prime for N=64K must exceed 2N=2^17, got %d", first)
	}
}

func BenchmarkMulMod(b *testing.B) {
	q := testPrime
	x, y := q-12345, q-67891
	for i := 0; i < b.N; i++ {
		x = MulMod(x, y, q)
	}
	sinkU64 = x
}

func BenchmarkMulModShoup(b *testing.B) {
	q := testPrime
	w := q - 67891
	ws := ShoupPrecomp(w, q)
	x := q - 12345
	for i := 0; i < b.N; i++ {
		x = MulModShoup(x, w, ws, q)
	}
	sinkU64 = x
}

var sinkU64 uint64
