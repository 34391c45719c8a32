package rns

import (
	"math/big"
	"math/rand/v2"
	"testing"

	"bitpacker/internal/engine"
	"bitpacker/internal/nt"
)

func primes(t testing.TB, bits uint, m uint64, count int) []uint64 {
	t.Helper()
	ps := nt.NTTPrimesBelow(uint64(1)<<bits, m, count)
	if len(ps) != count {
		t.Fatalf("not enough primes below 2^%d", bits)
	}
	return ps
}

func TestComposeDecomposeRoundTrip(t *testing.T) {
	b, err := NewBasis(64, primes(t, 45, 128, 5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 100; i++ {
		x := randBig(rng, b.Q)
		xs := b.Decompose(x)
		got := b.Compose(xs)
		if got.Cmp(x) != 0 {
			t.Fatalf("roundtrip failed: %v -> %v", x, got)
		}
	}
}

func TestDecomposeNegative(t *testing.T) {
	b, err := NewBasis(64, primes(t, 30, 128, 3))
	if err != nil {
		t.Fatal(err)
	}
	x := big.NewInt(-7)
	xs := b.Decompose(x)
	for i, q := range b.Moduli {
		if xs[i] != q-7 {
			t.Fatalf("residue %d: got %d want %d", i, xs[i], q-7)
		}
	}
	c := b.ComposeCentered(xs)
	if c.Int64() != -7 {
		t.Fatalf("centered compose: got %v want -7", c)
	}
}

func TestNewBasisErrors(t *testing.T) {
	if _, err := NewBasis(64, nil); err == nil {
		t.Fatal("empty basis accepted")
	}
	if _, err := NewBasis(64, []uint64{15}); err == nil {
		t.Fatal("composite modulus accepted")
	}
	if _, err := NewBasis(64, []uint64{97, 97}); err == nil {
		t.Fatal("duplicate modulus accepted")
	}
}

func TestConvApproximate(t *testing.T) {
	src := primes(t, 40, 128, 3)
	dst := primes(t, 50, 128, 4)
	c := NewConv(src, dst)
	srcBasis, _ := NewBasis(64, src)
	rng := rand.New(rand.NewPCG(2, 2))
	k := new(big.Int).SetInt64(int64(len(src)))
	for i := 0; i < 200; i++ {
		x := randBig(rng, srcBasis.Q)
		out := c.ConvertScalar(srcBasis.Decompose(x))
		// The converted value must equal (x + e*P) mod t_j with 0 <= e < k,
		// and e must be consistent across target moduli.
		matched := false
		for e := new(big.Int); e.Cmp(k) < 0; e.Add(e, big.NewInt(1)) {
			v := new(big.Int).Mul(e, c.P)
			v.Add(v, x)
			ok := true
			for j, tm := range dst {
				want := new(big.Int).Mod(v, new(big.Int).SetUint64(tm)).Uint64()
				if out[j] != want {
					ok = false
					break
				}
			}
			if ok {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("conversion of %v not within e*P overshoot", x)
		}
	}
}

func TestExactDivFloors(t *testing.T) {
	shed := primes(t, 35, 128, 2)
	kept := primes(t, 45, 128, 3)
	d := NewExactDiv(shed, kept)
	full := append(append([]uint64(nil), kept...), shed...)
	fb, _ := NewBasis(64, full)
	keptBasis, _ := NewBasis(64, kept)
	rng := rand.New(rand.NewPCG(3, 3))
	maxErr := int64(len(shed)) // e < k
	for i := 0; i < 200; i++ {
		x := randBig(rng, fb.Q)
		xs := fb.Decompose(x)
		out := d.ApplyScalar(xs[:len(kept)], xs[len(kept):])
		got := keptBasis.Compose(out)
		want := new(big.Int).Div(x, d.Conv.P) // floor, x >= 0
		// got = want - e mod Qkept with 0 <= e < k.
		diff := new(big.Int).Sub(want, got)
		diff.Mod(diff, keptBasis.Q)
		if diff.Cmp(big.NewInt(maxErr)) >= 0 {
			t.Fatalf("x=%v: floor error %v >= %d", x, diff, maxErr)
		}
	}
}

func TestExactDivVector(t *testing.T) {
	shed := primes(t, 30, 128, 2)
	kept := primes(t, 40, 128, 2)
	d := NewExactDiv(shed, kept)
	full := append(append([]uint64(nil), kept...), shed...)
	fb, _ := NewBasis(64, full)
	keptBasis, _ := NewBasis(64, kept)
	rng := rand.New(rand.NewPCG(4, 4))
	n := 16
	keptRes := [][]uint64{make([]uint64, n), make([]uint64, n)}
	shedRes := [][]uint64{make([]uint64, n), make([]uint64, n)}
	vals := make([]*big.Int, n)
	for k := 0; k < n; k++ {
		x := randBig(rng, fb.Q)
		vals[k] = x
		xs := fb.Decompose(x)
		for j := 0; j < 2; j++ {
			keptRes[j][k] = xs[j]
			shedRes[j][k] = xs[2+j]
		}
	}
	d.Apply(keptRes, shedRes)
	for k := 0; k < n; k++ {
		got := keptBasis.Compose([]uint64{keptRes[0][k], keptRes[1][k]})
		want := new(big.Int).Div(vals[k], d.Conv.P)
		diff := new(big.Int).Sub(want, got)
		diff.Mod(diff, keptBasis.Q)
		if diff.Cmp(big.NewInt(2)) >= 0 {
			t.Fatalf("coeff %d: floor error %v", k, diff)
		}
	}
}

// randBig returns a uniform big.Int in [0, max) drawn from rng.
func randBig(rng *rand.Rand, max *big.Int) *big.Int {
	buf := make([]byte, len(max.Bytes())+8)
	for i := range buf {
		buf[i] = byte(rng.Uint64())
	}
	v := new(big.Int).SetBytes(buf)
	return v.Mod(v, max)
}

// TestApplyBatchMatchesApply checks the fused-batched scaleDown against
// per-target Apply, bit for bit, at workers 1 and 4, including the fused
// epilogue hook.
func TestApplyBatchMatchesApply(t *testing.T) {
	shed := primes(t, 30, 128, 2)
	kept := primes(t, 40, 128, 3)
	d := NewExactDiv(shed, kept)
	rng := rand.New(rand.NewPCG(5, 5))
	n := 64

	mkTarget := func() (shedRes, keptRes [][]uint64) {
		shedRes = make([][]uint64, len(shed))
		for i, q := range shed {
			shedRes[i] = make([]uint64, n)
			for k := range shedRes[i] {
				shedRes[i][k] = rng.Uint64N(q)
			}
		}
		keptRes = make([][]uint64, len(kept))
		for j, q := range kept {
			keptRes[j] = make([]uint64, n)
			for k := range keptRes[j] {
				keptRes[j][k] = rng.Uint64N(q)
			}
		}
		return
	}
	clone := func(rows [][]uint64) [][]uint64 {
		out := make([][]uint64, len(rows))
		for i := range rows {
			out[i] = append([]uint64(nil), rows[i]...)
		}
		return out
	}

	shed0, kept0 := mkTarget()
	shed1, kept1 := mkTarget()

	want0, want1 := clone(kept0), clone(kept1)
	d.Apply(want0, shed0)
	d.Apply(want1, shed1)

	engine.SetMinParallelOps(1)
	defer func() {
		engine.SetWorkers(0)
		engine.SetMinParallelOps(0)
	}()
	for _, w := range []int{1, 4} {
		engine.SetWorkers(w)
		out0 := make([][]uint64, len(kept))
		for j := range out0 {
			out0[j] = make([]uint64, n)
		}
		d.ApplyBatch([]DivBatchTarget{
			{Shed: shed0, Kept: kept0, Out: out0},
			{Shed: shed1, Kept: clone(kept1), Out: clone(kept1)},
		})
		for j := range kept {
			for k := 0; k < n; k++ {
				if out0[j][k] != want0[j][k] {
					t.Fatalf("workers=%d: row %d coeff %d differs", w, j, k)
				}
			}
		}
		// Out aliasing Kept (in-place) must also match.
		inPlace := clone(kept1)
		d.ApplyBatch([]DivBatchTarget{{Shed: shed1, Kept: inPlace, Out: inPlace}})
		for j := range kept {
			for k := 0; k < n; k++ {
				if inPlace[j][k] != want1[j][k] {
					t.Fatalf("workers=%d: in-place row %d coeff %d differs", w, j, k)
				}
			}
		}
	}
}

// convReference computes Conv's defining sum over math/big for one
// coefficient: Σ_i [x_i·(P/p_i)^{-1}]_{p_i}·(P/p_i) mod t_j.
func convReference(c *Conv, xs []uint64) []uint64 {
	sum := new(big.Int)
	for i, p := range c.Src {
		bp := new(big.Int).SetUint64(p)
		pHat := new(big.Int).Div(c.P, bp)
		y := new(big.Int).ModInverse(new(big.Int).Mod(pHat, bp), bp)
		y.Mul(y, new(big.Int).SetUint64(xs[i])).Mod(y, bp)
		sum.Add(sum, y.Mul(y, pHat))
	}
	out := make([]uint64, len(c.Dst))
	for j, t := range c.Dst {
		out[j] = new(big.Int).Mod(sum, new(big.Int).SetUint64(t)).Uint64()
	}
	return out
}

// TestConvDeferredBoundCountsEverySource: a BitPacker chain at 61-bit
// words packs narrow terminal primes beside 61-bit ones, so whether a
// target column may defer its reduction cannot be read off the target
// alone. On mixed-width bases the choice per column must equal the
// math/big bound Σ_i (p_i−1)(t_j−1) < 2^64 — in particular no column
// with a 61-bit modulus on either side defers — and Convert must match
// the math/big reference on worst-case inputs either way.
func TestConvDeferredBoundCountsEverySource(t *testing.T) {
	const n = 8
	wide := primes(t, 61, 2*n, 4)
	narrow := primes(t, 28, 2*n, 8)
	word := new(big.Int).Lsh(big.NewInt(1), 64)
	for _, c := range []struct {
		name     string
		src, dst []uint64
		deferred bool // expected for every column
	}{
		{"narrow->narrow", narrow[:5], narrow[5:], true},
		{"wide->wide", wide[:2], wide[2:], false},
		{"wide->narrow", wide[:1], narrow[:3], false},
		{"narrow->wide", narrow[:1], wide[:3], false},
		{"mixed->narrow", []uint64{narrow[0], narrow[1], wide[0]}, narrow[2:5], false},
		{"mixed->mixed", []uint64{narrow[0], wide[0]}, []uint64{narrow[1], wide[1]}, false},
	} {
		cv := NewConv(c.src, c.dst)
		for j, tj := range c.dst {
			bound := new(big.Int)
			for _, p := range c.src {
				term := new(big.Int).SetUint64(p - 1)
				bound.Add(bound, term.Mul(term, new(big.Int).SetUint64(tj-1)))
			}
			if got, want := cv.sumMu[j] != 0, bound.Cmp(word) < 0; got != want || got != c.deferred {
				t.Fatalf("%s column %d (t=%d): deferred=%v, bound says %v, expected %v", c.name, j, tj, got, want, c.deferred)
			}
		}
		// Coefficient 0: every residue p_i−1. Coefficient 1: the inputs
		// whose scaled values y_i are p_i−1, the largest terms the sum
		// can see. The rest: random.
		rng := rand.New(rand.NewPCG(5, 6))
		src := make([][]uint64, len(c.src))
		for i, p := range c.src {
			src[i] = make([]uint64, n)
			pHat := new(big.Int).Div(cv.P, new(big.Int).SetUint64(p))
			src[i][0] = p - 1
			src[i][1] = p - new(big.Int).Mod(pHat, new(big.Int).SetUint64(p)).Uint64()
			for k := 2; k < n; k++ {
				src[i][k] = rng.Uint64N(p)
			}
		}
		out := make([][]uint64, len(c.dst))
		for j := range out {
			out[j] = make([]uint64, n)
		}
		cv.Convert(out, src)
		xs := make([]uint64, len(c.src))
		for k := 0; k < n; k++ {
			for i := range xs {
				xs[i] = src[i][k]
			}
			want := convReference(cv, xs)
			scalar := cv.ConvertScalar(xs)
			for j := range c.dst {
				if out[j][k] != want[j] || scalar[j] != want[j] {
					t.Fatalf("%s coeff %d target %d: Convert %d, ConvertScalar %d, math/big %d", c.name, k, j, out[j][k], scalar[j], want[j])
				}
			}
		}
	}
}

// TestConvDeferredRowWorstCase drives the deferred multiply-accumulate
// at its bound: every scaled residue p_i−1 against every weight t−1 —
// weights no real basis produces all at once, planted here — for 1, 5
// and 19 terms and for the largest count the bound admits; one term
// more must be refused.
func TestConvDeferredRowWorstCase(t *testing.T) {
	const n = 8
	ps := primes(t, 28, 2*n, 300)
	tgt, srcAll := ps[0], ps[1:]
	word := new(big.Int).Lsh(big.NewInt(1), 64)
	worst := func(k int) *big.Int { // Σ_{i<k} (p_i−1)(t−1)
		sum := new(big.Int)
		for _, p := range srcAll[:k] {
			term := new(big.Int).SetUint64(p - 1)
			sum.Add(sum, term.Mul(term, new(big.Int).SetUint64(tgt-1)))
		}
		return sum
	}
	kmax := 1
	for worst(kmax+1).Cmp(word) < 0 {
		kmax++
	}
	if kmax < 200 || kmax+1 > len(srcAll) {
		t.Fatalf("kmax=%d: expected about 2^8 28-bit terms to fit a word", kmax)
	}
	if cv := NewConv(srcAll[:kmax+1], []uint64{tgt}); cv.sumMu[0] != 0 {
		t.Fatalf("%d terms exceed the word bound but the column defers", kmax+1)
	}
	for _, k := range []int{1, 5, 19, kmax} {
		cv := NewConv(srcAll[:k], []uint64{tgt})
		if cv.sumMu[0] == 0 {
			t.Fatalf("%d narrow terms fit a word but the column does not defer", k)
		}
		y := make([][]uint64, k)
		for i, p := range srcAll[:k] {
			cv.col[0][i] = tgt - 1
			cv.colSh[0][i] = nt.ShoupPrecomp(tgt-1, tgt)
			y[i] = make([]uint64, n)
			for kk := range y[i] {
				y[i][kk] = p - 1
			}
		}
		want := new(big.Int).Mod(worst(k), new(big.Int).SetUint64(tgt)).Uint64()
		got := make([]uint64, n)
		cv.row(got, y, 0)
		cv.sumMu[0] = 0 // the per-term path must agree on the same sum
		perTerm := make([]uint64, n)
		cv.row(perTerm, y, 0)
		for kk := range got {
			if got[kk] != want || perTerm[kk] != want {
				t.Fatalf("%d terms, coeff %d: deferred %d, per-term %d, math/big %d", k, kk, got[kk], perTerm[kk], want)
			}
		}
	}
}
