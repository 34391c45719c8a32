package experiments

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"sort"
	"time"

	"bitpacker/internal/ckks"
	"bitpacker/internal/core"
	"bitpacker/internal/workloads"
)

// The functional experiments run the real CKKS library (both level-
// management backends) rather than the accelerator model. They use
// laptop-scale ring degrees; precision behavior is N-independent and the
// CPU comparison measures the same arithmetic Lattigo-class libraries run.

// funcSetup builds a working scheme instance.
type funcSetup struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	sk     *ckks.SecretKey
	encr   *ckks.Encryptor
	dec    *ckks.Decryptor
	ev     *ckks.Evaluator
}

func newFuncSetup(scheme core.Scheme, levels int, scaleBits float64, w, logN int, seed uint64) (*funcSetup, error) {
	targets := make([]float64, levels+1)
	for i := range targets {
		targets[i] = scaleBits
	}
	prog := core.ProgramSpec{MaxLevel: levels, TargetScaleBits: targets, QMinBits: scaleBits + 20}
	params, err := ckks.BuildParameters(scheme, prog, core.SecuritySpec{LogN: logN}, core.HWSpec{WordBits: w}, 3, 3.2)
	if err != nil {
		return nil, err
	}
	kg := ckks.NewKeyGenerator(params, seed, seed+1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	return &funcSetup{
		params: params,
		enc:    ckks.NewEncoder(params),
		sk:     sk,
		encr:   ckks.NewEncryptor(params, pk, seed+2, seed+3),
		dec:    ckks.NewDecryptor(params, sk),
		ev:     ckks.NewEvaluator(params, ckks.NewClosedKeyManager(params, kg, sk, nil, false)),
	}, nil
}

func (s *funcSetup) encryptTop(values []complex128) *ckks.Ciphertext {
	lvl := s.params.MaxLevel()
	pt := &ckks.Plaintext{
		Value: s.enc.MustEncode(values, s.params.DefaultScale(lvl), s.params.LevelModuli(lvl)),
		Level: lvl,
		Scale: s.params.DefaultScale(lvl),
	}
	return s.encr.MustEncryptAtLevel(pt, lvl)
}

// ---------------------------------------------------------------------------
// FIG13: CPU execution time, 64-bit words
// ---------------------------------------------------------------------------

func init() {
	register("fig13", "CPU execution time, 64-bit words (paper Fig. 13)", runFig13)
}

// cpuKernel runs a squaring chain down the whole modulus chain, the
// dominant pattern of leveled CKKS programs, and returns wall time.
func cpuKernel(s *funcSetup, reps int) time.Duration {
	rng := rand.New(rand.NewPCG(99, 100))
	vals := make([]complex128, s.params.Slots())
	for i := range vals {
		vals[i] = complex(rng.Float64()*0.5+0.5, 0)
	}
	start := time.Now()
	for rep := 0; rep < reps; rep++ {
		ct := s.encryptTop(vals)
		for ct.Level > 0 {
			ct = s.ev.MustRescale(s.ev.MustSquare(ct))
		}
	}
	return time.Since(start)
}

func runFig13(quick bool) (*Result, error) {
	logN := 12
	reps := 3
	if quick {
		logN = 11
		reps = 2
	}
	res := &Result{
		ID:     "FIG13",
		Title:  "Measured CPU time, 64-bit words, depth-L squaring chain (paper: BitPacker gmean 24% faster)",
		Header: []string{"benchmark schedule", "levels", "BitPacker[ms]", "RNS-CKKS[ms]", "RC/BP"},
	}
	var ratios []float64
	for _, b := range workloads.Benchmarks() {
		levels := b.AppLevels + 6 // app depth plus a slice of bootstrap depth
		var times [2]time.Duration
		for i, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
			s, err := newFuncSetup(scheme, levels, b.AppScale, 64, logN, 7)
			if err != nil {
				return nil, fmt.Errorf("%s %v: %w", b.Name, scheme, err)
			}
			times[i] = cpuKernel(s, reps)
		}
		ratio := float64(times[1]) / float64(times[0])
		ratios = append(ratios, ratio)
		res.Rows = append(res.Rows, []string{
			b.Name, fmt.Sprintf("%d", levels),
			f1(float64(times[0].Milliseconds())), f1(float64(times[1].Milliseconds())), f2(ratio),
		})
	}
	res.Rows = append(res.Rows, []string{"gmean", "", "", "", f2(gmean(ratios))})
	res.Notes = append(res.Notes,
		fmt.Sprintf("measured with the functional Go library at N=2^%d; the paper used a Rust library at N=2^16", logN))
	return res, nil
}

// ---------------------------------------------------------------------------
// TAB1: error-free mantissa bits per benchmark
// ---------------------------------------------------------------------------

func init() {
	register("tab1", "Error-free mantissa bits (paper Table 1)", runTab1)
}

// precisionRun executes a depth-matched synthetic computation (alternating
// squarings and cross-level adds via adjust, the paper's noise-relevant op
// mix) and returns the mean and worst-case error-free mantissa bits.
func precisionRun(s *funcSetup, depth int, seed uint64) (mean, worst float64) {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e37))
	n := s.params.Slots()
	vals := make([]complex128, n)
	for i := range vals {
		vals[i] = complex(2*rng.Float64()-1, 0)
	}
	ct := s.encryptTop(vals)
	ref := append([]complex128(nil), vals...)
	orig := ct.CopyNew()
	origRef := append([]complex128(nil), ref...)
	for d := 0; d < depth; d++ {
		ct = s.ev.MustRescale(s.ev.MustSquare(ct))
		for i := range ref {
			ref[i] *= ref[i]
		}
		// Cross-level add to exercise adjust.
		adj := s.ev.MustAdjustTo(orig.CopyNew(), ct.Level)
		ct = s.ev.MustAdd(ct, adj)
		for i := range ref {
			ref[i] += origRef[i]
		}
		if ct.Level == 0 {
			break
		}
	}
	got := s.dec.MustDecryptAndDecode(ct, s.enc)
	meanBits, worstBits := 0.0, math.Inf(1)
	for i := range ref {
		err := cmplx.Abs(got[i] - ref[i])
		mag := cmplx.Abs(ref[i])
		if mag < 1 {
			mag = 1
		}
		bits := -math.Log2(err / mag)
		meanBits += bits
		if bits < worstBits {
			worstBits = bits
		}
	}
	return meanBits / float64(len(ref)), worstBits
}

func runTab1(quick bool) (*Result, error) {
	logN := 12
	if quick {
		logN = 11
	}
	res := &Result{
		ID:     "TAB1",
		Title:  "Error-free mantissa bits, depth-matched synthetic workloads (paper Table 1)",
		Header: []string{"benchmark", "scale", "BP mean", "RC mean", "BP worst", "RC worst"},
	}
	for _, b := range workloads.Benchmarks() {
		depth := 6
		var means, worsts [2]float64
		for i, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
			w := 61
			if scheme == core.BitPacker {
				w = 28 // the paper tests BitPacker at its most-constrained word size
			}
			s, err := newFuncSetup(scheme, depth+1, b.AppScale, w, logN, 21)
			if err != nil {
				return nil, fmt.Errorf("%s %v: %w", b.Name, scheme, err)
			}
			means[i], worsts[i] = precisionRun(s, depth, 31)
		}
		res.Rows = append(res.Rows, []string{
			b.Name, fmt.Sprintf("%.0f", b.AppScale),
			f1(means[0]), f1(means[1]), f1(worsts[0]), f1(worsts[1]),
		})
	}
	res.Notes = append(res.Notes,
		"BitPacker at 28-bit words vs RNS-CKKS at 64-bit words, as in the paper",
		"paper: differences within the 0.5-bit moduli-selection margin (1 bit for ResNet-20+AESPA)")
	return res, nil
}

// ---------------------------------------------------------------------------
// FIG18 / FIG19: rescale and adjust error distributions
// ---------------------------------------------------------------------------

func init() {
	register("fig18", "Rescale error distribution vs scale (paper Fig. 18)", runFig18)
	register("fig19", "Adjust error distribution vs scale (paper Fig. 19)", runFig19)
}

type distStats struct{ min, q1, med, q3, max float64 }

func quartiles(bits []float64) distStats {
	sort.Float64s(bits)
	n := len(bits)
	at := func(f float64) float64 { return bits[int(f*float64(n-1))] }
	return distStats{min: bits[0], q1: at(0.25), med: at(0.5), q3: at(0.75), max: bits[n-1]}
}

// levelOpErrors measures per-slot precision (in bits) after one squaring+
// rescale (adjust=false) or one adjust (adjust=true), starting from level
// L=10, for one scheme/scale.
func levelOpErrors(scheme core.Scheme, scaleBits float64, w, logN, reps int, adjust bool) ([]float64, error) {
	s, err := newFuncSetup(scheme, 10, scaleBits, w, logN, 55)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(77, 78))
	var bits []float64
	for rep := 0; rep < reps; rep++ {
		n := s.params.Slots()
		vals := make([]complex128, n)
		for i := range vals {
			vals[i] = complex(2*rng.Float64()-1, 0)
		}
		ct := s.encryptTop(vals)
		var got []complex128
		ref := make([]complex128, n)
		if adjust {
			out := s.ev.MustAdjust(ct)
			got = s.dec.MustDecryptAndDecode(out, s.enc)
			copy(ref, vals)
		} else {
			out := s.ev.MustRescale(s.ev.MustSquare(ct))
			got = s.dec.MustDecryptAndDecode(out, s.enc)
			for i := range ref {
				ref[i] = vals[i] * vals[i]
			}
		}
		for i := range ref {
			err := cmplx.Abs(got[i] - ref[i])
			if err == 0 {
				err = math.Ldexp(1, -60)
			}
			bits = append(bits, -math.Log2(err))
		}
	}
	return bits, nil
}

func runErrDist(id, title string, adjust bool, quick bool) (*Result, error) {
	logN, reps := 12, 4
	if quick {
		logN, reps = 11, 2
	}
	res := &Result{
		ID:     id,
		Title:  title,
		Header: []string{"scale", "scheme", "min", "q1", "median", "q3", "max"},
	}
	for _, scale := range []float64{30, 35, 40, 45, 50, 55, 60} {
		for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
			w := 61
			if scheme == core.BitPacker {
				w = 28
			}
			bits, err := levelOpErrors(scheme, scale, w, logN, reps, adjust)
			if err != nil {
				return nil, fmt.Errorf("scale %.0f %v: %w", scale, scheme, err)
			}
			d := quartiles(bits)
			res.Rows = append(res.Rows, []string{
				fmt.Sprintf("%.0f", scale), scheme.String(),
				f1(d.min), f1(d.q1), f1(d.med), f1(d.q3), f1(d.max),
			})
		}
	}
	res.Notes = append(res.Notes,
		"BitPacker at 28-bit words vs RNS-CKKS at 61-bit (functional cap of the 64-bit datapath), L=10, values uniform in [-1,1]",
		fmt.Sprintf("samples per box: slots x %d repetitions at N=2^%d (paper used 1M samples)", reps, logN))
	return res, nil
}

func runFig18(quick bool) (*Result, error) {
	return runErrDist("FIG18", "Precision bits after square+rescale (paper Fig. 18: distributions match within 0.5 bits)", false, quick)
}

func runFig19(quick bool) (*Result, error) {
	return runErrDist("FIG19", "Precision bits after adjust (paper Fig. 19: distributions match within 0.5 bits)", true, quick)
}
