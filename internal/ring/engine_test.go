package ring

import (
	"math/big"
	"math/rand/v2"
	"testing"

	"bitpacker/internal/engine"
)

// Differential tests: every Poly operation must produce bit-identical
// results under sequential (workers=1) and parallel (workers=N) dispatch.
// forceEngine drops the inline threshold so even the small test
// polynomials take the parallel path.

func forceEngine(t *testing.T) {
	t.Helper()
	engine.SetMinParallelOps(1)
	t.Cleanup(func() {
		engine.SetWorkers(0)
		engine.SetMinParallelOps(0)
	})
}

// runBothWorkerCounts executes op twice on deep copies of the inputs —
// once sequentially, once with 4 workers — and asserts the outputs are
// bit-identical.
func runBothWorkerCounts(t *testing.T, name string, inputs []*Poly, op func([]*Poly) *Poly) {
	t.Helper()
	copyIn := func() []*Poly {
		out := make([]*Poly, len(inputs))
		for i, p := range inputs {
			out[i] = p.Copy()
		}
		return out
	}

	engine.SetWorkers(1)
	seq := op(copyIn())
	engine.SetWorkers(4)
	par := op(copyIn())

	if !seq.Equal(par) {
		t.Fatalf("%s: parallel result differs from sequential", name)
	}
}

func TestParallelMatchesSequentialPolyOps(t *testing.T) {
	forceEngine(t)
	n := 256
	ctx := testCtx(t, n)
	moduli := testModuli(t, n, 55, 5)
	rng := rand.New(rand.NewPCG(31, 32))
	a := randPoly(ctx, moduli, rng)
	b := randPoly(ctx, moduli, rng)

	runBothWorkerCounts(t, "Add", []*Poly{a, b}, func(in []*Poly) *Poly {
		out := NewPoly(ctx, moduli)
		out.Add(in[0], in[1])
		return out
	})
	runBothWorkerCounts(t, "Sub", []*Poly{a, b}, func(in []*Poly) *Poly {
		out := NewPoly(ctx, moduli)
		out.Sub(in[0], in[1])
		return out
	})
	runBothWorkerCounts(t, "Neg", []*Poly{a}, func(in []*Poly) *Poly {
		out := NewPoly(ctx, moduli)
		out.Neg(in[0])
		return out
	})
	runBothWorkerCounts(t, "MulScalarBig", []*Poly{a}, func(in []*Poly) *Poly {
		out := NewPoly(ctx, moduli)
		out.MulScalarBig(in[0], new(big.Int).SetInt64(-987654321))
		return out
	})
	runBothWorkerCounts(t, "NTT", []*Poly{a}, func(in []*Poly) *Poly {
		in[0].NTT()
		return in[0]
	})
	runBothWorkerCounts(t, "NTT+INTT", []*Poly{a}, func(in []*Poly) *Poly {
		in[0].NTT()
		in[0].INTT()
		return in[0]
	})
	runBothWorkerCounts(t, "MulCoeffs", []*Poly{a, b}, func(in []*Poly) *Poly {
		in[0].NTT()
		in[1].NTT()
		out := NewPoly(ctx, moduli)
		out.IsNTT = true
		out.MulCoeffs(in[0], in[1])
		return out
	})
	runBothWorkerCounts(t, "MulCoeffsAdd", []*Poly{a, b}, func(in []*Poly) *Poly {
		in[0].NTT()
		in[1].NTT()
		out := NewPoly(ctx, moduli)
		out.IsNTT = true
		out.MulCoeffsAdd(in[0], in[1])
		out.MulCoeffsAdd(in[1], in[0])
		return out
	})
	runBothWorkerCounts(t, "Automorphism", []*Poly{a}, func(in []*Poly) *Poly {
		return in[0].Automorphism(GaloisElementForRotation(3, n))
	})
	up := testModuli(t, n, 53, 2)
	runBothWorkerCounts(t, "ScaleUp+ScaleDown", []*Poly{a}, func(in []*Poly) *Poly {
		s := in[0].ScaleUp(up)
		pos := []int{len(moduli), len(moduli) + 1}
		return s.ScaleDown(NewScaleDownParams(s.Moduli, pos))
	})
}

func TestScratchPolyRoundTrip(t *testing.T) {
	n := 128
	ctx := testCtx(t, n)
	moduli := testModuli(t, n, 55, 3)
	rng := rand.New(rand.NewPCG(33, 34))
	a := randPoly(ctx, moduli, rng)

	s := a.ScratchCopy()
	if !s.Equal(a) {
		t.Fatal("ScratchCopy differs from source")
	}
	ctx.PutPoly(s)

	z := ctx.GetPolyZero(moduli)
	for i := range z.Coeffs {
		for k, v := range z.Coeffs[i] {
			if v != 0 {
				t.Fatalf("GetPolyZero row %d coeff %d = %d, want 0", i, k, v)
			}
		}
	}
	ctx.PutPoly(z)
}

func TestRestrictViewAliasesAndRefusesRecycling(t *testing.T) {
	n := 64
	ctx := testCtx(t, n)
	moduli := testModuli(t, n, 55, 3)
	rng := rand.New(rand.NewPCG(35, 36))
	a := randPoly(ctx, moduli, rng)

	v := a.RestrictView(moduli[1:])
	if &v.Coeffs[0][0] != &a.Coeffs[1][0] {
		t.Fatal("RestrictView must alias the source rows")
	}
	if !v.Equal(a.Restrict(moduli[1:])) {
		t.Fatal("RestrictView content differs from Restrict")
	}
	// Releasing a view must not poison the pool with shared rows.
	ctx.PutPoly(v)
	fresh := ctx.GetVec()
	if &fresh[0] == &a.Coeffs[1][0] || &fresh[0] == &a.Coeffs[2][0] {
		t.Fatal("view row leaked into the scratch pool")
	}
	ctx.PutVec(fresh)
}

func TestContextTableConcurrent(t *testing.T) {
	n := 64
	ctx := testCtx(t, n)
	moduli := testModuli(t, n, 55, 4)
	done := make(chan struct{}, 8)
	for g := 0; g < 8; g++ {
		go func(seed uint64) {
			rng := rand.New(rand.NewPCG(seed, seed+1))
			p := randPoly(ctx, moduli, rng)
			p.NTT()
			p.INTT()
			done <- struct{}{}
		}(uint64(100 + g))
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
