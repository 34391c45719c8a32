package main

import (
	"fmt"
	"math"
	"time"

	"bitpacker"
)

const (
	inferDim    = 32 // dense matrix side, and the width InnerSum folds
	inferInputs = 8  // distinct encrypted inputs the caller cycles through
	chebDegree  = 7
)

// infer is encrypted inference through the root API: two dense layers
// with a Chebyshev activation between them, a squared term, a skip
// connection brought down with Adjust, and a final InnerSum — 7 of 8
// levels consumed, every hot operation of the library used once.
type infer struct {
	cfg    bitpacker.Config
	ctx    *bitpacker.Context
	t1, t2 *bitpacker.Transform
	cheb   []float64
	in     []*bitpacker.Ciphertext
	want   []float64 // the scalar every slot holds after InnerSum, per input
}

func newInfer(e env, scheme bitpacker.Scheme, wordBits int) (instance, error) {
	w := &infer{cfg: bitpacker.Config{
		Scheme:        scheme,
		LogN:          e.logN(13),
		Levels:        8,
		ScaleBits:     40,
		WordBits:      wordBits,
		Seed:          e.seed,
		KeyCacheBytes: 256 << 20, // every key of the program stays resident: all hits after warm-up
		Workers:       e.procs,
	}}
	var err error
	if w.ctx, err = bitpacker.New(w.cfg); err != nil {
		return nil, err
	}
	rng := e.rng(1)
	matrix := func() [][]complex128 {
		m := make([][]complex128, inferDim)
		for i := range m {
			m[i] = make([]complex128, inferDim)
			for j := range m[i] {
				// Row sums stay within [-1, 1], the Chebyshev domain.
				m[i][j] = complex((2*rng.Float64()-1)/inferDim, 0)
			}
		}
		return m
	}
	m1, m2 := matrix(), matrix()
	w.cheb = make([]float64, chebDegree+1)
	for k := range w.cheb {
		w.cheb[k] = (rng.Float64() - 0.5) / (1 + float64(k)/2)
	}
	top := w.ctx.MaxLevel()
	if w.t1, err = w.ctx.NewMatrixTransform(m1, top); err != nil {
		return nil, err
	}
	if w.t2, err = w.ctx.NewMatrixTransform(m2, top-1-bitpacker.ChebyshevDepth(chebDegree)); err != nil {
		return nil, err
	}
	for k := 0; k < inferInputs; k++ {
		x := make([]float64, inferDim)
		xc := make([]complex128, inferDim)
		for i := range x {
			x[i] = 2*rng.Float64() - 1
			xc[i] = complex(x[i], 0)
		}
		ct, err := w.ctx.Encrypt(w.ctx.Replicate(xc, inferDim))
		if err != nil {
			return nil, err
		}
		w.in = append(w.in, ct)
		w.want = append(w.want, inferReference(m1, m2, w.cheb, x))
	}
	// Warm-up: generates every switching key into the cache and fills
	// the pools and NTT tables.
	if _, _, err := w.unit(0, nil); err != nil {
		return nil, fmt.Errorf("warm-up inference: %w", err)
	}
	return w, nil
}

// inferReference is the plaintext program: sum_i ((M2·cheb(M1·x))_i^2 + (M1·x)_i).
func inferReference(m1, m2 [][]complex128, cheb, x []float64) float64 {
	matvec := func(m [][]complex128, v []float64) []float64 {
		out := make([]float64, len(m))
		for i := range m {
			for j := range v {
				out[i] += real(m[i][j]) * v[j]
			}
		}
		return out
	}
	a := matvec(m1, x)
	b := make([]float64, len(a))
	for i, v := range a {
		prev, cur := 1.0, v
		b[i] = cheb[0] + cheb[1]*v
		for k := 2; k < len(cheb); k++ {
			prev, cur = cur, 2*v*cur-prev
			b[i] += cheb[k] * cur
		}
	}
	c := matvec(m2, b)
	sum := 0.0
	for i := range c {
		sum += c[i]*c[i] + a[i]
	}
	return sum
}

func (w *infer) config() bitpacker.Config { return w.cfg }
func (w *infer) livePIDs() []int          { return nil }
func (w *infer) close() error             { return nil }

func (w *infer) run(until time.Time, first int, tr *tracer) window {
	return closedLoop(until, first, func(i int) (float64, float64, error) { return w.unit(i, tr) })
}

// unit evaluates one inference; the clock covers evaluation only.
func (w *infer) unit(i int, tr *tracer) (ms, absErr float64, err error) {
	ctx, k := w.ctx, i%inferInputs
	// op runs one root-API call under a span; after the first error the
	// remaining calls are skipped.
	var root int
	op := func(name string, f func() (*bitpacker.Ciphertext, error)) *bitpacker.Ciphertext {
		if err != nil {
			return nil
		}
		id := tr.start(i, root, "bitpacker", name)
		var out *bitpacker.Ciphertext
		out, err = f()
		tr.end(id)
		return out
	}
	t0 := time.Now()
	root = tr.start(i, 0, "bench", "unit")
	a := op("apply", func() (*bitpacker.Ciphertext, error) { return ctx.Apply(w.in[k], w.t1) })
	a = op("rescale", func() (*bitpacker.Ciphertext, error) { return ctx.Rescale(a) })
	b := op("chebyshev", func() (*bitpacker.Ciphertext, error) { return ctx.Chebyshev(a, w.cheb) })
	c := op("apply", func() (*bitpacker.Ciphertext, error) { return ctx.Apply(b, w.t2) })
	c = op("rescale", func() (*bitpacker.Ciphertext, error) { return ctx.Rescale(c) })
	sq := op("mulrescale", func() (*bitpacker.Ciphertext, error) { return ctx.MulRescale(c, c) })
	skip := op("adjust", func() (*bitpacker.Ciphertext, error) { return ctx.Adjust(a, sq.Level()) })
	sum := op("add", func() (*bitpacker.Ciphertext, error) { return ctx.Add(sq, skip) })
	out := op("innersum", func() (*bitpacker.Ciphertext, error) { return ctx.InnerSum(sum, inferDim) })
	tr.end(root)
	ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return 0, 0, err
	}
	got, err := ctx.DecryptReal(out)
	if err != nil {
		return 0, 0, err
	}
	// The input is replicated across blocks, so after InnerSum every
	// slot holds the same total.
	for _, v := range got {
		absErr = math.Max(absErr, math.Abs(v-w.want[k]))
	}
	if absErr > tolerance {
		return 0, 0, fmt.Errorf("inference %d: |decrypted - reference| = %.3g > 2^-14", i, absErr)
	}
	return ms, absErr, nil
}
