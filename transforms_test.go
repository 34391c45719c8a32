package bitpacker

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"bitpacker/internal/ntt"
)

// TestTransformCountsPerOp pins the NTTs (forward + inverse calls, counted
// by internal/ntt) of every operation of one unit of the benchmark's infer
// workloads (bench/infer.go: Apply → Rescale → degree-7 Chebyshev → Apply
// → Rescale → MulRescale → Adjust → Add → InnerSum(32) over 8 levels of
// 40-bit scale, 32×32 dense matrices, LogN 13), plus a MulRescale at the
// top level. A count is a property of the code, not of the host, and
// DESIGN.md's transform tables quote these rows; any change to where an
// operation divides or transforms must update them. The benchmark's
// LogN is kept: LogN 11 and 12 chains hold as many residues per level,
// but other primes, and where a level reuses a retired or special prime
// the division sheds fewer rows (bp28's top MulRescale reads 99 at
// LogN 12). With MulRescale and InnerSum dividing once, bp28 reads 1,349
// per unit (1,481 when each divided per step, MulRescale at the top 129)
// and rns61 762 (842); with the apply's output pending until its rescale
// sheds P with the retired moduli, 1,307 and 736: apply+rescale 357 ->
// 329 and 222 -> 204, apply2+rescale2 220 -> 206 and 127 -> 119, the
// rescale rows taking the division the applies give up. The top-level
// rows other than MulRescale were recorded before Rotate and Conjugate
// became the one-step hoisted rotation, which runs the same transforms;
// Mul, Rotate, Conjugate and RotateHoisted settle their outputs, so
// their rows hold. With each keyswitch decomposing into as few groups of
// key digits as P covers (one group per digit at the top level, fewer
// below it), 1,136 and 615: chebyshev 499 -> 486 and 287 -> 259, apply2
// 180 -> 132 and 105 -> 49, mulrescale 54 -> 34 and 30 -> 18, innersum
// 189 -> 99 and 80 -> 55; the top-level rows hold.
func TestTransformCountsPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("key generation for two chains")
	}
	ops := []string{"apply", "rescale", "chebyshev", "apply2", "rescale2", "mulrescale", "adjust", "add", "innersum"}
	for _, c := range []struct {
		name   string
		scheme Scheme
		w      int
		top    map[string]uint64 // per top-level op
		unit   []uint64          // per op, in ops order
	}{
		{"bp28", BitPacker, 28, map[string]uint64{"mulRescaleTop": 101, "mulRelinTop": 95, "rotateTop": 95, "conjugateTop": 95, "rotateHoisted8Top": 361},
			[]uint64{285, 44, 486, 132, 26, 34, 30, 0, 99}},
		{"rns61", RNSCKKS, 61, map[string]uint64{"mulRescaleTop": 60, "mulRelinTop": 60, "rotateTop": 60, "conjugateTop": 60, "rotateHoisted8Top": 228},
			[]uint64{180, 24, 259, 49, 14, 18, 16, 0, 55}},
	} {
		runtime.GC() // the previous chain's keys and diagonals
		cfg := Config{Scheme: c.scheme, LogN: 13, Levels: 8, ScaleBits: 40, WordBits: c.w, Seed: 1, KeyCacheBytes: 256 << 20}
		ctx, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(1, uint64(c.w)))
		matrix := func() [][]complex128 {
			m := make([][]complex128, 32)
			for i := range m {
				m[i] = make([]complex128, 32)
				for j := range m[i] {
					m[i][j] = complex((2*rng.Float64()-1)/32, 0)
				}
			}
			return m
		}
		top := ctx.MaxLevel()
		t1, err := ctx.NewMatrixTransform(matrix(), top)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := ctx.NewMatrixTransform(matrix(), top-1-ChebyshevDepth(7))
		if err != nil {
			t.Fatal(err)
		}
		cheb := []float64{0.1, 0.4, -0.2, 0.1, 0.05, -0.04, 0.03, 0.02}
		x := make([]complex128, 32)
		for i := range x {
			x[i] = complex(2*rng.Float64()-1, 0)
		}
		in, err := ctx.Encrypt(ctx.Replicate(x, 32))
		if err != nil {
			t.Fatal(err)
		}
		// unit runs the program, returning each op's transform count.
		unit := func() []uint64 {
			counts := make([]uint64, 0, len(ops))
			step := func(f func() (*Ciphertext, error)) *Ciphertext {
				t.Helper()
				before := ntt.Transforms()
				out, err := f()
				if err != nil {
					t.Fatal(err)
				}
				counts = append(counts, ntt.Transforms()-before)
				return out
			}
			a := step(func() (*Ciphertext, error) { return ctx.Apply(in, t1) })
			a = step(func() (*Ciphertext, error) { return ctx.Rescale(a) })
			b := step(func() (*Ciphertext, error) { return ctx.Chebyshev(a, cheb) })
			b = step(func() (*Ciphertext, error) { return ctx.Apply(b, t2) })
			b = step(func() (*Ciphertext, error) { return ctx.Rescale(b) })
			sq := step(func() (*Ciphertext, error) { return ctx.MulRescale(b, b) })
			skip := step(func() (*Ciphertext, error) { return ctx.Adjust(a, sq.Level()) })
			sum := step(func() (*Ciphertext, error) { return ctx.Add(sq, skip) })
			step(func() (*Ciphertext, error) { return ctx.InnerSum(sum, 32) })
			return counts
		}
		unit() // generates every key into the cache
		got := unit()
		var total uint64
		for i, op := range ops {
			total += got[i]
			if got[i] != c.unit[i] {
				t.Errorf("%s %s: %d transforms, pinned %d", c.name, op, got[i], c.unit[i])
			}
		}
		t.Logf("%s: %d transforms per unit %v", c.name, total, got)
		eight := []int{1, 2, 3, 4, 5, 6, 7, 8}
		for name, op := range map[string]func() error{
			"mulRescaleTop": func() error { _, err := ctx.MulRescale(in, in); return err },
			"mulRelinTop":   func() error { _, err := ctx.Mul(in, in); return err },
			"rotateTop":     func() error { _, err := ctx.Rotate(in, 1); return err },
			"conjugateTop":  func() error { _, err := ctx.Conjugate(in); return err },
			"rotateHoisted8Top": func() error {
				_, err := ctx.RotateHoisted(in, eight)
				return err
			},
		} {
			// The first call generates the op's keys into the cache.
			for run := 0; run < 2; run++ {
				before := ntt.Transforms()
				if err := op(); err != nil {
					t.Fatal(err)
				}
				if n := ntt.Transforms() - before; run == 1 && n != c.top[name] {
					t.Errorf("%s %s: %d transforms, pinned %d", c.name, name, n, c.top[name])
				}
			}
		}
	}
}
