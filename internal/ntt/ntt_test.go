package ntt

import (
	"math/big"
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

// refForward and refInverse are the package's transforms as they stood
// before the radix-4 kernels: one radix-2 stage per pass, operands in
// [0, 4q) forward and [0, 2q) inverse at every modulus. They are kept
// as the oracle the kernels are compared with word for word; both
// directions emit canonical residues, so equality is exact.
func refForward(t *Table, a []uint64) {
	q, q2, n := t.Q, t.Q<<1, t.N
	step := n
	for m := 1; m < n>>1; m <<= 1 {
		step >>= 1
		for i := 0; i < m; i++ {
			w, ws := t.psi[m+i], t.psiShoup[m+i]
			j1 := 2 * i * step
			lo, hi := a[j1:j1+step], a[j1+step:j1+2*step]
			for j := range lo {
				u := lo[j]
				if u >= q2 {
					u -= q2
				}
				v := nt.MulModLazyShoup(hi[j], w, ws, q)
				lo[j], hi[j] = u+v, u+q2-v
			}
		}
	}
	reduce := func(x uint64) uint64 {
		if x >= q2 {
			x -= q2
		}
		if x >= q {
			x -= q
		}
		return x
	}
	if n == 1 {
		a[0] = reduce(a[0])
	}
	for i, m := 0, n>>1; i < m; i++ {
		u := a[2*i]
		if u >= q2 {
			u -= q2
		}
		v := nt.MulModLazyShoup(a[2*i+1], t.psi[m+i], t.psiShoup[m+i], q)
		a[2*i], a[2*i+1] = reduce(u+v), reduce(u+q2-v)
	}
}

func refInverse(t *Table, a []uint64) {
	q, q2, n := t.Q, t.Q<<1, t.N
	if n == 1 {
		a[0] = nt.MulModShoup(a[0], t.nInv, t.nInvSh, q)
		return
	}
	step := 1
	for m := n >> 1; m >= 2; m >>= 1 {
		for i := 0; i < m; i++ {
			w, ws := t.inv[m+i], t.invShoup[m+i]
			j1 := 2 * i * step
			lo, hi := a[j1:j1+step], a[j1+step:j1+2*step]
			for j := range lo {
				u, v := lo[j], hi[j]
				s := u + v
				if s >= q2 {
					s -= q2
				}
				lo[j], hi[j] = s, nt.MulModLazyShoup(u+q2-v, w, ws, q)
			}
		}
		step <<= 1
	}
	half := n >> 1
	for j := 0; j < half; j++ {
		u, v := a[j], a[j+half]
		s := u + v
		if s >= q2 {
			s -= q2
		}
		a[j] = nt.MulModShoup(s, t.nInv, t.nInvSh, q)
		a[j+half] = nt.MulModShoup(u+q2-v, t.invN1, t.invN1Sh, q)
	}
}

// lazyCases returns the input classes every transform test drives: all
// zero, all q−1, uniform below q, and the documented lazy contract's
// upper end — all 2q−1, and uniform below 2q.
func lazyCases(rng *rand.Rand, q uint64, n int) [][]uint64 {
	cases := make([][]uint64, 5)
	for c := range cases {
		cases[c] = make([]uint64, n)
	}
	for i := 0; i < n; i++ {
		cases[1][i] = q - 1
		cases[2][i] = rng.Uint64() % q
		cases[3][i] = 2*q - 1
		cases[4][i] = rng.Uint64() % (2 * q)
	}
	return cases
}

// TestTransformsMatchRadix2Reference asserts word-for-word equality of
// Forward and Inverse with the radix-2 references at every size from
// N = 1 (no stage) through the small sizes that bypass the 8-point
// blocks to logN 15 (both parities of the radix-4 sweep count), at
// widths on both sides of every selection: one-word products (≤ 32
// bits), the correction-free regime (2N·q < 2^64) and the corrected one.
func TestTransformsMatchRadix2Reference(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	regimes := map[bool]int{}
	for logN := 0; logN <= 15; logN++ {
		n := 1 << logN
		for _, width := range []int{28, 31, 32, 33, 45, 59, 61, 62} {
			q := nt.PreviousNTTPrime(1<<width, uint64(2*n))
			if bits.Len64(q) != width {
				t.Fatalf("logN=%d: prime below 2^%d has %d bits", logN, width, bits.Len64(q))
			}
			tab := testTable(t, q, n)
			regimes[tab.lazyMu != 0]++
			for ci, in := range lazyCases(rng, q, n) {
				for _, dir := range []struct {
					name     string
					got, ref func([]uint64)
				}{
					{"Forward", tab.Forward, func(a []uint64) { refForward(tab, a) }},
					{"Inverse", tab.Inverse, func(a []uint64) { refInverse(tab, a) }},
				} {
					got := append([]uint64(nil), in...)
					want := append([]uint64(nil), in...)
					dir.got(got)
					dir.ref(want)
					for i := range got {
						if got[i] != want[i] || got[i] >= q {
							t.Fatalf("logN=%d width=%d case %d: %s[%d] = %d, reference %d (q=%d)",
								logN, width, ci, dir.name, i, got[i], want[i], q)
						}
					}
				}
			}
		}
	}
	if regimes[true] == 0 || regimes[false] == 0 {
		t.Fatalf("one regime never ran: %v", regimes)
	}
}

// TestRegimeSelection pins the rule NewTable chooses the lazy regime by:
// correction-free exactly when 2N·q < 2^64. At each size it takes the
// largest NTT-friendly prime the rule admits and the next one above the
// bound; every prime below 2^32 qualifies at any size it is friendly for.
func TestRegimeSelection(t *testing.T) {
	for _, logN := range []int{0, 1, 3, 10, 13, 15} {
		n := 1 << logN
		bound := uint64(1) << (63 - logN) // 2N·q < 2^64  ⇔  q < bound
		// At logN ≤ 1 the bound is past the package's own width limit:
		// every supported modulus qualifies and none lies above.
		below := nt.PreviousNTTPrime(min(bound, 1<<nt.MaxModulusBits), uint64(2*n))
		above := nt.NextNTTPrime(bound, uint64(2*n))
		if tab := testTable(t, below, n); tab.lazyMu != nt.WordBarrett(below) {
			t.Errorf("logN=%d q=%d (largest below the bound): corrected regime selected", logN, below)
		}
		if bits.Len64(above) > nt.MaxModulusBits {
			continue
		}
		if tab := testTable(t, above, n); tab.lazyMu != 0 {
			t.Errorf("logN=%d q=%d (first above the bound): correction-free regime selected", logN, above)
		}
	}
	// 2^32 − 2^20 + 1 is friendly up to N = 2^19, the largest size a
	// one-word modulus admits here; 2N < q keeps it under the bound.
	if tab := testTable(t, 1<<32-1<<20+1, 1<<12); tab.lazyMu == 0 || tab.mu == 0 {
		t.Error("32-bit prime: correction-free regime not selected")
	}
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

// TestLazyReductionBounds drives the lazy butterflies with worst-case
// inputs at the edge of each regime's word budget and asserts every
// output is fully reduced below q, in both directions and after
// pointwise products. Corrected regime: the widest supported 62-bit
// modulus, where lazy values reach almost 4q ~ 2^64 and any missing
// correction overflows. Correction-free regime: the largest modulus the
// selection rule admits at each size (2N·q just under 2^64, up to the
// largest size tested anywhere, logN 15), where one stage more, one
// offset doubled too often or an input above the 2q contract would wrap.
func TestLazyReductionBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for _, c := range []struct {
		logN int
		free bool
	}{{3, false}, {8, false}, {11, false}, {3, true}, {4, true}, {8, true}, {11, true}, {15, true}} {
		n := 1 << c.logN
		limit := uint64(1) << nt.MaxModulusBits
		if c.free {
			limit = 1 << (63 - c.logN)
		}
		q := nt.PreviousNTTPrime(limit, uint64(2*n))
		tab := testTable(t, q, n)
		if (tab.lazyMu != 0) != c.free {
			t.Fatalf("n=%d q=%d: correction-free regime = %v, want %v", n, q, tab.lazyMu != 0, c.free)
		}
		for ci, a := range lazyCases(rng, q, n) {
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
			// The inverse's own lazy contract: the evaluation-domain
			// words shifted up by q where the case is a lazy one.
			inv := append([]uint64(nil), fwd...)
			if ci >= 3 {
				for i := range inv {
					inv[i] += q
				}
			}
			tab.Inverse(inv)
			for i, x := range inv {
				if x >= q {
					t.Fatalf("n=%d case %d: Inverse output[%d]=%d >= q=%d", n, ci, i, x, q)
				}
				if x != a[i]%q {
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

// TestInnerProductHeadroom checks InnerProduct against math/big at the
// headroom boundaries of its unreduced sums: a prime just below 2^32
// (one product per one-word group), one below 2^28 (a group of at least
// 256, here exceeded twice), and primes just below 2^61 and 2^62 (two-word
// groups of 64 and 16, so the sums fold twice). A wide sum takes enough
// terms to pass 2^128 unfolded: ReduceWide's result is exact for any
// 128-bit word pair (its quotient is only needed mod 2^64), so only an
// overflow of the pair itself can show a missing fold or a group one
// term longer than nt.WideTerms. Every word of
// every operand is q−1 in one pass — the largest sums the bound admits —
// and random in the other; X is read directly and through a gather, and
// every other term streams its Y1.
func TestInnerProductHeadroom(t *testing.T) {
	const n = 2*ipBlock + 64 // two full blocks and a partial one
	for _, c := range []struct {
		bits  int
		group int // 0: at least 256
	}{{32, 1}, {28, 0}, {61, 64}, {62, 16}} {
		q := nt.PreviousNTTPrime(1<<c.bits, 2*512)
		tab := testTable(t, q, 512)
		if c.group != 0 && tab.group != c.group || c.group == 0 && tab.group < 256 {
			t.Fatalf("%d-bit prime %d: group %d, want %d", c.bits, q, tab.group, c.group)
		}
		terms := 2*tab.group + 1
		if tab.mu == 0 {
			sq := new(big.Int).SetUint64(q - 1)
			sq.Mul(sq, sq)
			unfolded := new(big.Int).Lsh(big.NewInt(1), 128)
			terms = max(terms, int(unfolded.Div(unfolded, sq).Int64())+1)
		}
		gather := make([]uint64, n)
		for k := range gather {
			gather[k] = uint64(k*5) % n
		}
		bq := new(big.Int).SetUint64(q)
		rng := rand.New(rand.NewPCG(uint64(c.bits), 27))
		for _, maximal := range []bool{true, false} {
			word := func() uint64 {
				if maximal {
					return q - 1
				}
				return rng.Uint64N(q)
			}
			row := func() []uint64 {
				r := make([]uint64, n)
				for k := range r {
					r[k] = word()
				}
				return r
			}
			ts := make([]Term, terms)
			y1s := make([][]uint64, terms) // what each term's Y1 is, streamed or not
			for i := range ts {
				ts[i] = Term{X: row(), Y0: row()}
				if i%2 == 0 {
					ts[i].Y1 = row()
					y1s[i] = ts[i].Y1
				} else {
					y1s[i] = make([]uint64, n)
					ref := rand.New(rand.NewPCG(uint64(i), 1))
					for k := range y1s[i] {
						y1s[i][k] = ref.Uint64N(q)
					}
				}
			}
			for _, g := range [][]uint64{nil, gather} {
				for i := range ts {
					if ts[i].Y1 == nil {
						ts[i].Stream = rand.New(rand.NewPCG(uint64(i), 1))
					}
				}
				o0, o1 := make([]uint64, n), make([]uint64, n)
				tab.InnerProduct(o0, o1, g, ts)
				for k := 0; k < n; k++ {
					j := k
					if g != nil {
						j = int(g[k])
					}
					s0, s1, p := new(big.Int), new(big.Int), new(big.Int)
					for i, tm := range ts {
						x := new(big.Int).SetUint64(tm.X[j])
						s0.Add(s0, p.Mul(x, new(big.Int).SetUint64(tm.Y0[k])))
						s1.Add(s1, p.Mul(x, new(big.Int).SetUint64(y1s[i][k])))
					}
					w0, w1 := s0.Mod(s0, bq).Uint64(), s1.Mod(s1, bq).Uint64()
					if o0[k] != w0 || o1[k] != w1 {
						t.Fatalf("%d-bit q=%d, %d terms, maximal=%v, gather=%v, coeff %d: got (%d, %d), math/big says (%d, %d)",
							c.bits, q, terms, maximal, g != nil, k, o0[k], o1[k], w0, w1)
					}
				}
			}
		}
	}
}

// TestInnerProductRunsMatchDense: a term whose X holds one word per run
// of 1<<s (N>>s words) gives the same words as the same term with X expanded to
// its dense row. Every shift from 0 to log2 N appears, so runs shorter
// than, as long as and longer than ipBlock, the whole row at the last;
// narrow and wide moduli, more terms than the table's group so the sums
// fold, under the identity and a gather map.
func TestInnerProductRunsMatchDense(t *testing.T) {
	const logN = 10
	const n = 1 << logN
	gather := make([]uint64, n)
	for k := range gather {
		gather[k] = uint64(k*5) % n
	}
	for _, bits := range []int{28, 31, 61, 62} {
		q := nt.PreviousNTTPrime(1<<bits, 2*n)
		tab := testTable(t, q, n)
		rng := rand.New(rand.NewPCG(uint64(bits), 48))
		row := func(m int) []uint64 {
			r := make([]uint64, m)
			for k := range r {
				r[k] = rng.Uint64N(q)
			}
			return r
		}
		terms := max(tab.group+3, 2*(logN+1))
		runs, dense := make([]Term, terms), make([]Term, terms)
		for i := range runs {
			s := uint(i % (logN + 1))
			x := row(n >> s)
			wide := make([]uint64, n)
			for k := range wide {
				wide[k] = x[k>>s]
			}
			y0, y1 := row(n), row(n)
			runs[i] = Term{X: x, Y0: y0, Y1: y1}
			dense[i] = Term{X: wide, Y0: y0, Y1: y1}
		}
		for _, g := range [][]uint64{nil, gather} {
			got0, got1 := make([]uint64, n), make([]uint64, n)
			want0, want1 := make([]uint64, n), make([]uint64, n)
			tab.InnerProduct(got0, got1, g, runs)
			tab.InnerProduct(want0, want1, g, dense)
			for k := range got0 {
				if got0[k] != want0[k] || got1[k] != want1[k] {
					t.Fatalf("%d-bit q=%d, %d terms (group %d), gather=%v, coeff %d: runs give (%d, %d), dense rows (%d, %d)",
						bits, q, terms, tab.group, g != nil, k, got0[k], got1[k], want0[k], want1[k])
				}
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

// benchTransform times one direction at a (modulus width, logN) point
// and reports ns per butterfly (N/2·logN of them per transform), the unit
// in which sizes and widths compare.
func benchTransform(b *testing.B, width, logN int, inverse bool) {
	n := 1 << logN
	q := nt.PreviousNTTPrime(1<<width, uint64(2*n))
	tab, err := NewTable(q, n)
	if err != nil {
		b.Fatal(err)
	}
	a := make([]uint64, n)
	for i := range a {
		a[i] = uint64(i) % q
	}
	run := tab.Forward
	if inverse {
		run = tab.Inverse
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(a)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n/2*logN), "ns/butterfly")
}

func BenchmarkForwardN8192(b *testing.B)     { benchTransform(b, 59, 13, false) }
func BenchmarkInverseN8192(b *testing.B)     { benchTransform(b, 59, 13, true) }
func BenchmarkForwardN8192W28(b *testing.B)  { benchTransform(b, 28, 13, false) }
func BenchmarkInverseN8192W28(b *testing.B)  { benchTransform(b, 28, 13, true) }
func BenchmarkForwardN4096(b *testing.B)     { benchTransform(b, 59, 12, false) }
func BenchmarkForwardN4096W28(b *testing.B)  { benchTransform(b, 28, 12, false) }
func BenchmarkForwardN16384(b *testing.B)    { benchTransform(b, 59, 14, false) }
func BenchmarkForwardN16384W28(b *testing.B) { benchTransform(b, 28, 14, false) }
