package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"bitpacker"
	"bitpacker/internal/accel"
	"bitpacker/internal/ckks"
	"bitpacker/internal/core"
	"bitpacker/internal/engine"
	"bitpacker/internal/nt"
	"bitpacker/internal/pipeline"
	"bitpacker/internal/ring"
	"bitpacker/internal/rns"
	"bitpacker/internal/serve"
)

// timeIt returns the median nanoseconds per call of fn: one untimed
// call that also sizes the batches (about two milliseconds each), then
// batches until the budget is spent, three at least.
func timeIt(budget time.Duration, fn func()) float64 { return timeRoundRobin(budget, fn)[0] }

// timeRoundRobin times several functions batch by batch in turn, so
// that drift of a shared host lands on all of them alike and their
// ratios and differences mean something. The budget is per function.
func timeRoundRobin(budget time.Duration, fns ...func()) []float64 {
	per := make([]int, len(fns))
	for i, fn := range fns {
		t0 := time.Now()
		fn()
		per[i] = int(2*time.Millisecond/max(time.Since(t0), 1)) + 1
	}
	batches := make([][]float64, len(fns))
	for start := time.Now(); len(batches[0]) < 3 || time.Since(start) < budget*time.Duration(len(fns)); {
		for i, fn := range fns {
			t := time.Now()
			for k := 0; k < per[i]; k++ {
				fn()
			}
			batches[i] = append(batches[i], float64(time.Since(t).Nanoseconds())/float64(per[i]))
		}
	}
	out := make([]float64, len(fns))
	for i := range fns {
		out[i] = median(batches[i])
	}
	return out
}

// walk collects the layer walk's timings: m receives them by metric
// name, item is the time budget of one timing, err the first error of a
// timed call.
type walk struct {
	m    map[string]float64
	item time.Duration
	err  error
}

func (w *walk) ns(name string, fn func()) float64 {
	w.m[name] = timeIt(w.item, fn)
	return w.m[name]
}

func (w *walk) ms(name string, fn func()) { w.m[name] = timeIt(w.item, fn) / 1e6 }

// check keeps the first error of calls made inside timed closures.
func (w *walk) check(_ any, err error) {
	if err != nil && w.err == nil {
		w.err = err
	}
}

// layerWalk times every layer below a workload, bottom-up, at the
// moduli and shapes of that workload's own chain, by calling each
// layer's exported functions.
func layerWalk(cfg bitpacker.Config, e env, item time.Duration, m map[string]float64) error {
	defer engine.SetWorkers(cfg.Workers)
	engine.SetWorkers(e.procs)
	w := &walk{m: m, item: item}
	ns := w.ns

	params, err := buildParams(cfg.Scheme, cfg.WordBits, cfg)
	if err != nil {
		return err
	}
	chain, n, top := params.Chain, params.N(), params.MaxLevel()
	moduli := chain.Levels[top].Moduli
	q := moduli[0]
	seed := ring.Seed{cfg.Seed, 0x62656e6368}
	row := func(q uint64, label uint64) []uint64 {
		v := make([]uint64, n)
		ring.UniformRowFromSeed(v, q, seed.Derive(label))
		return v
	}
	rows := func(qs []uint64, label uint64) [][]uint64 {
		out := make([][]uint64, len(qs))
		for i, q := range qs {
			out[i] = row(q, label+uint64(i))
		}
		return out
	}

	// host: the denominator of every *_gbps below.
	m["host.cpus"] = float64(runtime.NumCPU())
	m["host.llc_mb"], m["host.stream_array_mb"], m["host.stream_gbps"] = streamTriad(e.procs, e.quick)

	// nt: one modular multiply, amortised over a row.
	a, b, out := row(q, 1), row(q, 2), make([]uint64, n)
	bhi, blo := nt.BarrettConstant(q)
	m["nt.mulmod_barrett_ns"] = timeIt(item, func() {
		for i := range out {
			out[i] = nt.MulModBarrett(a[i], b[i], q, bhi, blo)
		}
	}) / float64(n)
	c := b[0]
	cShoup := nt.ShoupPrecomp(c, q)
	m["nt.mulmod_shoup_ns"] = timeIt(item, func() {
		for i := range out {
			out[i] = nt.MulModShoup(a[i], c, cShoup, q)
		}
	}) / float64(n)

	// ntt: one row of the top level's first modulus.
	tab := params.Ctx.Table(q)
	fwd := ns("ntt.forward_ns", func() { tab.Forward(a) })
	ns("ntt.inverse_ns", func() { tab.Inverse(a) })
	ns("ntt.mulcoeffs_ns", func() { tab.MulCoeffs(out, a, b) })
	logN := math.Log2(float64(n))
	m["ntt.forward_butterflies"] = float64(n) / 2 * logN
	// Computed bytes: the row read and written once per stage.
	m["ntt.forward_gbps"] = 16 * float64(n) * logN / fwd

	// rns: the conversions of the top level's rescale and ModUp.
	tr := chain.TransitionDown(top)
	wide := append(append([]uint64(nil), moduli...), tr.Up...)
	var kept []uint64
	for _, q := range wide {
		if !slices.Contains(tr.Down, q) {
			kept = append(kept, q)
		}
	}
	alpha := (len(moduli) + params.Dnum - 1) / params.Dnum
	conv := rns.NewConv(moduli[:alpha], chain.Special)
	convSrc, convOut := rows(moduli[:alpha], 10), rows(chain.Special, 30)
	ns("rns.conv_ns", func() { conv.Convert(convOut, convSrc) })
	div := rns.NewExactDiv(tr.Down, kept)
	target := func(label uint64) rns.DivBatchTarget {
		k := rows(kept, label)
		return rns.DivBatchTarget{Shed: rows(tr.Down, label+50), Kept: k, Out: k}
	}
	pair := []rns.DivBatchTarget{target(100), target(200)} // a ciphertext's two polynomials
	ns("rns.exactdiv_ns", func() { div.ApplyBatch(pair) })
	ns("rns.exactdiv_ntt_ns", func() {
		div.ApplyBatchNTT(pair, func(j int, r []uint64) { params.Ctx.Table(kept[j]).Forward(r) })
	})

	// ring: whole-polynomial kernels at the top level's residue count.
	rc := params.Ctx
	p0 := ring.UniformPolyFromSeed(rc, moduli, seed.Derive(300))
	p1 := ring.UniformPolyFromSeed(rc, moduli, seed.Derive(301))
	prod := ring.NewPoly(rc, moduli)
	nttBatch := func() {
		p0.IsNTT, p1.IsNTT = false, false
		ring.NTTBatch(p0, p1)
	}
	tP := ns("ring.ntt_batch_ns", nttBatch)
	prod.IsNTT = true
	mul := ns("ring.mulcoeffs_ns", func() { prod.MulCoeffs(p0, p1) })
	m["ring.mulcoeffs_gbps"] = 3 * 8 * float64(n*len(moduli)) / mul
	ns("ring.permute_ntt_ns", func() { rc.PutPoly(p0.PermuteNTT(ring.GaloisElementForRotation(1, n))) })
	if len(tr.Up) > 0 { // RNS-CKKS never scales up: the metric stays 0 there
		ns("ring.scaleup_ns", func() { p0.ScaleUp(tr.Up) })
	}
	down := ring.UniformPolyFromSeed(rc, wide, seed.Derive(302))
	down.IsNTT = false // scaleDown reads coefficient-domain rows; uniform words serve in either domain
	var shedPos []int
	for i, q := range wide {
		if slices.Contains(tr.Down, q) {
			shedPos = append(shedPos, i)
		}
	}
	sdp := ring.NewScaleDownParams(wide, shedPos)
	ns("ring.scaledown_ns", func() { rc.PutPoly(down.ScaleDown(sdp)) })
	ns("ring.seeded_row_ns", func() { ring.UniformRowFromSeed(out, q, seed) })

	// engine: fork/join cost, and how well the batch NTT uses the workers.
	ns("engine.dispatch_ns", func() { engine.Dispatch(16, 1<<20, func(int) {}) })
	engine.SetWorkers(1)
	t1 := timeIt(item, nttBatch)
	engine.SetWorkers(e.procs)
	m["engine.scaling_eff"] = t1 / (float64(e.procs) * tP)

	// core: chain construction, and the paper's residue-count shape.
	w.ms("core.build_chain_ms", func() { w.check(buildParams(cfg.Scheme, cfg.WordBits, cfg)) })
	m["core.residues_top"] = float64(len(moduli))
	for _, c := range []struct {
		tag    string
		scheme core.Scheme
		bits   int
	}{{"bp28", core.BitPacker, 28}, {"rns28", core.RNSCKKS, 28}, {"rns61", core.RNSCKKS, 61}, {"bp61", core.BitPacker, 61}} {
		p, err := buildParams(c.scheme, c.bits, cfg)
		if err != nil {
			return err
		}
		m["core.residues_top."+c.tag] = float64(len(p.Chain.Levels[top].Moduli))
	}

	if ckksMulRescale := walkCKKS(w, cfg, e, params); w.err == nil {
		walkRoot(w, cfg, e, ckksMulRescale)
	}
	walkAccel(cfg, params, m)
	return w.err
}

// buildParams derives the ckks parameters the root package would build
// for cfg, at the given scheme and word size.
func buildParams(scheme core.Scheme, wordBits int, cfg bitpacker.Config) (*ckks.Parameters, error) {
	schedule := make([]float64, cfg.Levels+1)
	for i := range schedule {
		schedule[i] = cfg.ScaleBits
	}
	qMin := cfg.QMinBits
	if qMin == 0 {
		qMin = cfg.ScaleBits + 20
	}
	prog := core.ProgramSpec{MaxLevel: cfg.Levels, TargetScaleBits: schedule, QMinBits: qMin}
	return ckks.BuildParameters(scheme, prog, core.SecuritySpec{LogN: cfg.LogN}, core.HWSpec{WordBits: wordBits}, 3, 3.2)
}

// streamTriad measures a[i] = b[i] + s*c[i] over three float64 arrays of
// four times the last-level cache each (32 MiB at least, 128 MiB at
// most), on procs goroutines, and returns the cache size, the array size
// and the best rate of five passes (24 computed bytes per element).
func streamTriad(procs int, quick bool) (llcMB, arrayMB, gbps float64) {
	llc := 8 << 20 // assumed when sysfs does not say
	if data, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size"); err == nil {
		if kb, err := strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(string(data)), "K")); err == nil {
			llc = kb << 10
		}
	}
	size := min(max(4*llc, 32<<20), 128<<20) // capped: some hosts report a quarter gigabyte of L3
	if quick {
		size = 1 << 20
	}
	n := size / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = float64(i), float64(n-i)
	}
	best := math.Inf(1)
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			lo, hi := p*n/procs, (p+1)*n/procs
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					a[i] = b[i] + 3*c[i]
				}
			}()
		}
		wg.Wait()
		best = math.Min(best, float64(time.Since(t0).Nanoseconds()))
	}
	return float64(llc) / (1 << 20), float64(size) / (1 << 20), 24 * float64(n) / best
}

// walkCKKS times the evaluator's operations on a ciphertext at the top
// level, driving internal/ckks directly, then the checkpoint encodings
// and stores and the serving layer's framing on the same ciphertext. It
// hands back its MulRescale call so the root API's can be timed against
// it; on an error (kept in w.err) it stops early.
func walkCKKS(w *walk, cfg bitpacker.Config, e env, params *ckks.Parameters) (mulRescale func()) {
	ns, ms, check, m := w.ns, w.ms, w.check, w.m
	top := params.MaxLevel()
	enc := ckks.NewEncoder(params)
	kg := ckks.NewKeyGenerator(params, cfg.Seed, cfg.Seed+1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	var relin *ckks.SwitchingKey
	ms("ckks.keygen_ms", func() { relin = kg.GenRelinKey(sk) })
	newEval := func(budget int64) *ckks.Evaluator {
		ev := ckks.NewEvaluator(params, nil)
		ev.SetKeyManager(ckks.NewKeyManager(params, kg, sk, budget))
		return ev
	}
	ev := newEval(1 << 40) // every key stays resident, as in the infer workloads
	encryptor := ckks.NewEncryptor(params, pk, cfg.Seed+2, cfg.Seed+3)
	dec := ckks.NewDecryptor(params, sk)

	rng := e.rng(4)
	vals := make([]complex128, params.Slots())
	for i := range vals {
		vals[i] = complex(2*rng.Float64()-1, 0)
	}
	var ct *ckks.Ciphertext
	ns("ckks.encrypt_ns", func() {
		poly, err := enc.Encode(vals, params.DefaultScale(top), params.LevelModuli(top))
		check(nil, err)
		ct, err = encryptor.EncryptAtLevel(&ckks.Plaintext{Value: poly, Level: top, Scale: params.DefaultScale(top)}, top)
		check(nil, err)
	})
	if w.err != nil {
		return nil
	}
	ns("ckks.decrypt_ns", func() { check(dec.DecryptAndDecode(ct, enc)) })

	mulRescale = func() { check(ev.MulRescale(ct, ct)) }
	pair := timeRoundRobin(w.item, mulRescale, func() {
		ev.SetFused(false)
		mulRescale()
		ev.SetFused(true)
	})
	m["ckks.fused_over_staged"] = pair[0] / pair[1]
	ns("ckks.adjust_ns", func() { check(ev.AdjustTo(ct, top-1)) })
	product, err := ev.MulRelin(ct, ct)
	if check(nil, err); err != nil {
		return nil
	}
	ns("ckks.rescale_ns", func() { check(ev.Rescale(product)) })
	ns("ckks.rotate_ns", func() { check(ev.Rotate(ct, 1)) })
	steps := []int{1, 2, 3, 4, 5, 6, 7, 8}
	ns("ckks.rotate_hoisted8_ns", func() { check(ev.RotateHoisted(ct, steps)) })

	mat := make([][]complex128, inferDim)
	for i := range mat {
		mat[i] = make([]complex128, inferDim)
		for j := range mat[i] {
			mat[i][j] = complex((2*rng.Float64()-1)/inferDim, 0)
		}
	}
	lt, err := ckks.NewLinearTransform(params, enc, mat, top)
	if check(nil, err); err != nil {
		return nil
	}
	ns("ckks.lintrans32_ns", func() { check(ev.ApplyLinearTransform(ct, lt)) })
	// Degree 7 where the chain has the four levels it needs, else degree 3.
	deg := chebDegree
	if top < ckks.ChebyshevDepth(deg) {
		deg = 3
	}
	coeffs := make([]float64, deg+1)
	for k := range coeffs {
		coeffs[k] = 0.5 / float64(k+1)
	}
	ns("ckks.chebyshev_ns", func() { check(ev.EvalChebyshev(enc, ct, coeffs)) })

	var blob []byte
	ns("ckks.marshal_ns", func() { blob, err = ct.MarshalBinary(); check(nil, err) })
	ns("ckks.unmarshal_ns", func() { check(ckks.UnmarshalCiphertext(params, blob)) })
	m["ckks.ct_bytes"] = float64(len(blob))

	// A key budget of four full keys against six rotation steps, four
	// passes: keys are generated, demoted to their seeded half so that
	// all six fit, and their A halves regenerated inside the keyswitch.
	tight := newEval(4 * relin.ResidentBytes())
	var perRotation []float64
	for pass := 0; pass < 4; pass++ {
		for step := 1; step <= 6; step++ {
			t0 := time.Now()
			check(tight.Rotate(ct, step))
			perRotation = append(perRotation, float64(time.Since(t0).Nanoseconds()))
		}
	}
	st := tight.KeyManager().Stats()
	m["ckks.rotate_cold_ns"] = median(perRotation)
	m["ckks.keycache_hit_ratio"] = float64(st.Hits) / float64(max(st.Hits+st.Misses, 1))
	m["ckks.key_a_regens"] = float64(st.ARegens)

	// pipeline: a four-ciphertext shard state through the checkpoint
	// encodings and stores.
	state := []*ckks.Ciphertext{ct, ct.CopyNew(), ct.CopyNew(), ct.CopyNew()}
	var payload []byte
	ns("pipeline.encode_state_ns", func() { payload, err = pipeline.EncodeState(state); check(nil, err) })
	ns("pipeline.decode_state_ns", func() { check(pipeline.DecodeState(params, payload)) })
	dirPath, err := os.MkdirTemp(e.dir, "store-")
	if check(nil, err); err != nil {
		return nil
	}
	defer os.RemoveAll(dirPath)
	dir, err := pipeline.NewDirStore(filepath.Join(dirPath, "s"))
	if check(nil, err); err != nil {
		return nil
	}
	ms("pipeline.dirstore_put_ms", func() { check(nil, dir.Put(0, "bench", payload)) })
	ms("pipeline.dirstore_get_ms", func() { _, _, err = dir.Get(0); check(nil, err) })
	mem := pipeline.NewMemStore()
	ns("pipeline.memstore_put_ns", func() { check(nil, mem.Put(0, "bench", payload)) })

	// serve: framing one ciphertext blob.
	var buf bytes.Buffer
	ns("serve.frame_ns", func() {
		buf.Reset()
		check(nil, serve.WriteFrame(&buf, serve.FrameBlob, blob))
		_, _, err = serve.ReadFrame(&buf, serve.DefaultMaxBlobBytes)
		check(nil, err)
	})
	return mulRescale
}

// walkRoot times the root API: what it adds over ckks, what its guards
// cost, the set-up a shard worker pays, and a bootstrap.
func walkRoot(w *walk, cfg bitpacker.Config, e env, ckksMulRescale func()) {
	ms, check, m := w.ms, w.check, w.m
	cfg.Workers = e.procs
	// MulRescale through ckks, the plain root API, the root API with
	// every guard on, and with the redundant residue channel, in turn.
	guarded, rrns := cfg, cfg
	guarded.Retry, guarded.CheckInvariants, guarded.NoiseGuardBits = &bitpacker.RetryPolicy{}, true, 1
	rrns.RedundantResidue = true
	calls := []func(){ckksMulRescale}
	var plain *bitpacker.Context // the last one built: the unguarded configuration
	var ct *bitpacker.Ciphertext
	for _, c := range []bitpacker.Config{rrns, guarded, cfg} {
		var err error
		if plain, err = bitpacker.New(c); err == nil {
			ct, err = plain.EncryptReal([]float64{0.5, 0.25, -0.75})
		}
		if check(nil, err); err != nil {
			return
		}
		ctx, in := plain, ct
		calls = append(calls, func() { check(ctx.MulRescale(in, in)) })
	}
	t := timeRoundRobin(w.item, calls...)
	m["ckks.mulrescale_ns"] = t[0]
	m["bitpacker.op_overhead_ns"] = t[3] - t[0]
	m["bitpacker.guarded_over_plain"] = t[2] / t[3]
	m["bitpacker.rrns_over_plain"] = t[1] / t[3]

	ms("shard.worker_setup_ms", func() { check(bitpacker.New(cfg)) })
	// The quartic the serving layer evaluates, straight through the Context.
	ms("serve.direct_eval_ms", func() {
		sq, err := plain.MulRescale(ct, ct)
		if check(nil, err); err == nil {
			check(plain.MulRescale(sq, sq))
		}
	})
	// One shard's input blob: eight ciphertexts.
	shardIn := make([]*bitpacker.Ciphertext, 8)
	for i := range shardIn {
		shardIn[i] = ct
	}
	var blob []byte
	ms("shard.encode_inputs_ms", func() {
		var err error
		blob, err = plain.EncodeCiphertexts(shardIn)
		check(nil, err)
	})
	m["shard.input_bytes"] = float64(len(blob))

	// Bootstrap at the toy parameters the old BENCH records used, in the
	// workload's scheme.
	deg := 7
	boot, err := bitpacker.New(bitpacker.Config{
		Scheme: cfg.Scheme, LogN: 8, Levels: bitpacker.ChebyshevDepth(deg) + 3, ScaleBits: 40, WordBits: 61, QMinBits: 48,
		SparseSecretWeight: 3, Seed: cfg.Seed, Workers: e.procs,
		Bootstrap: &bitpacker.BootstrapOptions{KRange: 2, SineDegree: deg},
	})
	if check(nil, err); err != nil {
		return
	}
	fresh, err := boot.EncryptReal([]float64{0.5, 0.25})
	if check(nil, err); err != nil {
		return
	}
	exhausted, err := boot.Adjust(fresh, 0)
	if check(nil, err); err != nil {
		return
	}
	ms("ckks.bootstrap_ms", func() { check(boot.Refresh(exhausted)) })
}

// walkAccel puts the accelerator model's predictions beside the host's
// measurements of the same operations, at the workload's word size, ring
// degree and top-level residue count. They are exact: two commits that
// do not mean to change the model must print the same numbers.
func walkAccel(cfg bitpacker.Config, params *ckks.Parameters, m map[string]float64) {
	top := params.MaxLevel()
	tr := params.Chain.TransitionDown(top)
	model := accel.CraterLake(cfg.WordBits)
	model.N = params.N()
	r := len(params.Chain.Levels[top].Moduli)
	m["accel.pred_rescale_us"] = accel.RescaleMicros(model, r, len(tr.Up), len(tr.Down))
	m["accel.pred_mulrescale_us"] = accel.HMulMicros(model, r, params.Dnum) + m["accel.pred_rescale_us"]
	m["accel.pred_rotate_us"] = accel.HRotMicros(model, r, params.Dnum)
}
