package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metricSpec names one metric and its unit; BENCHMARK.json lists the
// same names with the same units (bench_test.go holds the two together).
type metricSpec struct{ name, unit string }

// endToEnd is what a user of each workload sees. Every workload reports
// every one of them, for its own unit of work: an inference, a served
// request, a sharded job.
var endToEnd = []metricSpec{
	{"latency_ms", "ms"},        // wall per verified unit: median over the slices of the slice's median
	{"throughput_per_s", "1/s"}, // verified units per second: median over the slices
	{"cpu_ms_per_unit", "ms"},   // CPU of this process, its workers and fleet, per verified unit: median over the slices
	{"precision_bits", "bits"},  // -log2 of the worst |decrypted - plaintext reference|
	{"peak_rss_mb", "MB"},       // generator's peak RSS plus its largest worker's
	{"setup_s", "s"},            // median of the set-ups of one run
	// The four timings are scaled to a quiet host: see reference.go.
}

const setupRepeats = 3

// perLayer is every layer metric, in bottom-up order. The layer walk
// fills those above the line at the workload's own parameter set; the
// rest come from the workload's spans and from counters of the layer it
// drives, and read 0 in workloads that do not exercise that layer.
var perLayer = []metricSpec{
	{"host.cpus", "count"}, {"host.llc_mb", "MB"}, {"host.stream_array_mb", "MB"}, {"host.stream_gbps", "GB/s"},
	{"nt.mulmod_barrett_ns", "ns"}, {"nt.mulmod_shoup_ns", "ns"},
	{"ntt.forward_ns", "ns"}, {"ntt.inverse_ns", "ns"}, {"ntt.mulcoeffs_ns", "ns"}, {"ntt.forward_gbps", "GB/s"}, {"ntt.forward_butterflies", "count"},
	{"rns.conv_ns", "ns"}, {"rns.exactdiv_ns", "ns"}, {"rns.exactdiv_ntt_ns", "ns"},
	{"ring.ntt_batch_ns", "ns"}, {"ring.mulcoeffs_ns", "ns"}, {"ring.mulcoeffs_gbps", "GB/s"}, {"ring.scaleup_ns", "ns"},
	{"ring.scaledown_ns", "ns"}, {"ring.permute_ntt_ns", "ns"}, {"ring.seeded_row_ns", "ns"},
	{"engine.dispatch_ns", "ns"}, {"engine.scaling_eff", "ratio"},
	{"core.build_chain_ms", "ms"}, {"core.residues_top", "count"},
	{"core.residues_top.bp28", "count"}, {"core.residues_top.rns28", "count"}, {"core.residues_top.rns61", "count"}, {"core.residues_top.bp61", "count"},
	{"ckks.keygen_ms", "ms"}, {"ckks.encrypt_ns", "ns"}, {"ckks.decrypt_ns", "ns"},
	{"ckks.mulrescale_ns", "ns"}, {"ckks.fused_over_staged", "ratio"}, {"ckks.adjust_ns", "ns"}, {"ckks.rescale_ns", "ns"},
	{"ckks.rotate_ns", "ns"}, {"ckks.rotate_hoisted8_ns", "ns"}, {"ckks.lintrans32_ns", "ns"}, {"ckks.chebyshev_ns", "ns"},
	{"ckks.marshal_ns", "ns"}, {"ckks.unmarshal_ns", "ns"}, {"ckks.ct_bytes", "B"},
	{"ckks.rotate_cold_ns", "ns"}, {"ckks.keycache_hit_ratio", "ratio"}, {"ckks.key_a_regens", "count"}, {"ckks.bootstrap_ms", "ms"},
	{"pipeline.encode_state_ns", "ns"}, {"pipeline.decode_state_ns", "ns"}, {"pipeline.dirstore_put_ms", "ms"},
	{"pipeline.dirstore_get_ms", "ms"}, {"pipeline.memstore_put_ns", "ns"},
	{"serve.frame_ns", "ns"}, {"serve.direct_eval_ms", "ms"},
	{"shard.worker_setup_ms", "ms"}, {"shard.encode_inputs_ms", "ms"}, {"shard.input_bytes", "B"},
	{"bitpacker.op_overhead_ns", "ns"}, {"bitpacker.guarded_over_plain", "ratio"}, {"bitpacker.rrns_over_plain", "ratio"},
	{"accel.pred_mulrescale_us", "us"}, {"accel.pred_rescale_us", "us"}, {"accel.pred_rotate_us", "us"},
	// ---- from the traced units of the workload itself ----
	{"unit.p50_ms", "ms"}, {"unit.mean_ms", "ms"}, {"unit.tail_ms", "ms"}, {"unit.tail_percentile", "count"}, {"unit.samples", "count"},
	{"unit.cpu_ms", "ms"}, {"unit.alloc_mb", "MB"}, {"unit.self_ms", "ms"}, {"bench.trace_overhead_ratio", "ratio"},
	{"infer.apply_ms", "ms"}, {"infer.rescale_ms", "ms"}, {"infer.chebyshev_ms", "ms"}, {"infer.mulrescale_ms", "ms"},
	{"infer.adjust_ms", "ms"}, {"infer.add_ms", "ms"}, {"infer.innersum_ms", "ms"},
	{"serve.http_ms", "ms"}, {"serve.read_frames_ms", "ms"},
	{"serve.latency_p95_ms", "ms"}, {"serve.latency_p99_ms", "ms"}, {"serve.latency_p50_ms.packed", "ms"}, {"serve.latency_p50_ms.solo", "ms"},
	{"serve.packed_ratio", "ratio"}, {"serve.mean_batch", "count"}, {"serve.rejected", "count"}, {"serve.fallbacks", "count"},
	{"serve.keycache_hit_ratio", "ratio"}, {"serve.overhead_ms", "ms"},
	{"shard.fork_ms", "ms"}, {"shard.tcp_ms", "ms"}, {"shard.serial_ms", "ms"}, {"shard.inproc_allcores_ms", "ms"},
	{"shard.speedup_fork", "ratio"}, {"shard.speedup_tcp", "ratio"}, {"shard.predicted_speedup", "ratio"},
	{"shard.overhead_fork_ms", "ms"}, {"shard.overhead_tcp_ms", "ms"}, {"shard.spawns_per_job", "count"},
	{"shard.redispatches", "count"}, {"shard.degraded", "count"}, {"shard.stale_epoch_rejects", "count"},
}

// spanMetric maps a span's "layer.name" to the per-layer metric its self
// time is reported under.
var spanMetric = map[string]string{
	"bench.unit":                 "unit.self_ms",
	"bitpacker.apply":            "infer.apply_ms",
	"bitpacker.rescale":          "infer.rescale_ms",
	"bitpacker.chebyshev":        "infer.chebyshev_ms",
	"bitpacker.mulrescale":       "infer.mulrescale_ms",
	"bitpacker.adjust":           "infer.adjust_ms",
	"bitpacker.add":              "infer.add_ms",
	"bitpacker.innersum":         "infer.innersum_ms",
	"serve.http":                 "serve.http_ms",
	"serve.read_frames":          "serve.read_frames_ms",
	"bitpacker.run_sharded_fork": "shard.fork_ms",
	"bitpacker.run_sharded_tcp":  "shard.tcp_ms",
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOptions is one invocation by the driver.
type runOptions struct {
	workload string
	seconds  float64
	trace    bool
	outDir   string
	env      env
}

// runOnce sets the workload up, measures it for the given seconds,
// verifies every output, and returns the report. log gets the progress
// lines and the first failure.
func runOnce(o runOptions, log io.Writer) (report, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	runtime.GOMAXPROCS(o.env.procs)
	run := runTimed
	if o.trace {
		run = runTraced
	}
	rep, err := run(w, o, time.Duration(o.seconds*float64(time.Second)), log)
	if err != nil {
		return report{}, err
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

// runTimed is the untraced run the end-to-end metrics come from. Every
// timing in it is taken between two readings of the reference and scaled
// to a quiet host (reference.go).
func runTimed(w workload, o runOptions, window time.Duration, log io.Writer) (report, error) {
	var (
		inst   instance
		setups []float64
		err    error
	)
	ref := newReference()
	ref.ms() // brings its rows into the cache
	// The set-up is repeated so that its time is a median too; only the
	// last instance is measured.
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return report{}, fmt.Errorf("close after set-up %d: %w", i, err)
			}
			inst = nil
			debug.FreeOSMemory()
		}
		refBefore := ref.ms()
		t0 := time.Now()
		if inst, err = w.setup(o.env); err != nil {
			return report{}, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		secs := time.Since(t0).Seconds()
		setups = append(setups, secs*quietScale((refBefore+ref.ms())/2, w.insensitive))
	}
	defer inst.close()
	fmt.Fprintf(log, "%s: set-ups %.3f s (scaled), measuring %v on %d cpus\n", w.name, setups, window, o.env.procs)

	res, sl, err := runSlices(inst, ref, w, window)
	if err != nil {
		return report{}, err
	}
	logFailure(log, w.name, res)
	if len(sl.latMs) == 0 {
		return report{}, fmt.Errorf("no unit of %d passed verification: %w", res.attempted, res.firstErr)
	}
	fmt.Fprintf(log, "%s: %d units in %d slices; quartiles of the slices: reference %.4g %.4g %.4g ms (quiet %.4g), latency as measured %.5g %.5g %.5g ms, scaled %.5g %.5g %.5g ms\n",
		w.name, len(res.lat), len(sl.latMs),
		quantile(sl.refMs, 0.25), median(sl.refMs), quantile(sl.refMs, 0.75), refQuietMs,
		quantile(sl.rawMs, 0.25), median(sl.rawMs), quantile(sl.rawMs, 0.75),
		quantile(sl.latMs, 0.25), median(sl.latMs), quantile(sl.latMs, 0.75))
	peak, err := takeUsage(inst.livePIDs())
	if err != nil {
		return report{}, err
	}
	rep := report{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	values := map[string]float64{
		"latency_ms":       median(sl.latMs),
		"throughput_per_s": median(sl.perS),
		"cpu_ms_per_unit":  median(sl.cpuMs),
		"precision_bits":   -math.Log2(res.worstErr),
		"peak_rss_mb":      float64(peak.peakKB) / 1024,
		"setup_s":          median(setups),
	}
	for _, s := range endToEnd {
		rep.Metrics[s.name] = metricValue{values[s.name], s.unit}
	}
	return rep, nil
}

// sliceStats holds one value per slice that verified at least one unit:
// the median latency of its units, its units per second and its CPU per
// unit, all three scaled to a quiet host; beside them the latency as
// measured and the reference reading the scale came from.
type sliceStats struct{ latMs, perS, cpuMs, rawMs, refMs []float64 }

// runSlices measures the instance slice after slice (each of the
// workload's slice length and at least one unit) until the window is
// spent, reading the reference between slices, and returns the totals
// beside the per-slice figures.
func runSlices(inst instance, ref *reference, w workload, length time.Duration) (window, sliceStats, error) {
	var (
		total window
		sl    sliceStats
	)
	refBefore := ref.ms()
	for end := time.Now().Add(length); time.Now().Before(end); {
		before, err := takeUsage(inst.livePIDs())
		if err != nil {
			return total, sl, err
		}
		res := inst.run(time.Now().Add(w.slice), total.attempted, nil)
		after, err := takeUsage(inst.livePIDs())
		if err != nil {
			return total, sl, err
		}
		refAfter := ref.ms()
		refMs := (refBefore + refAfter) / 2
		refBefore = refAfter
		total.add(res)
		if n := float64(len(res.lat)); n > 0 {
			scale := quietScale(refMs, w.insensitive)
			sl.refMs = append(sl.refMs, refMs)
			sl.rawMs = append(sl.rawMs, median(res.lat))
			sl.latMs = append(sl.latMs, median(res.lat)*scale)
			sl.perS = append(sl.perS, n/res.wall.Seconds()/scale)
			sl.cpuMs = append(sl.cpuMs, float64((after.cpu-before.cpu).Nanoseconds())/1e6/n*scale)
		}
	}
	return total, sl, nil
}

// runTraced spends the window three ways: untraced units and the same
// units under spans, in alternating slices so both see the same host,
// then the bottom-up walk of the layers beneath them.
func runTraced(w workload, o runOptions, window time.Duration, log io.Writer) (report, error) {
	inst, err := w.setup(o.env)
	if err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	values := map[string]float64{}

	tr := newTracer()
	var (
		plain, traced      []float64
		rep                = report{Metrics: map[string]metricValue{}}
		cpu                time.Duration
		memBefore, memNext runtime.MemStats
		alloc              uint64
	)
	for slice := 0; slice < 4; slice++ {
		var t *tracer
		if slice%2 == 1 {
			t = tr
		}
		runtime.ReadMemStats(&memBefore)
		before, err := takeUsage(inst.livePIDs())
		if err != nil {
			return report{}, err
		}
		res := inst.run(time.Now().Add(window*3/20), rep.Attempted, t)
		after, err := takeUsage(inst.livePIDs())
		if err != nil {
			return report{}, err
		}
		runtime.ReadMemStats(&memNext)
		logFailure(log, w.name, res)
		rep.Attempted += res.attempted
		rep.Failed += res.failed
		if t == nil {
			plain = append(plain, res.lat...)
			continue
		}
		traced = append(traced, res.lat...)
		cpu += after.cpu - before.cpu
		alloc += memNext.TotalAlloc - memBefore.TotalAlloc
		for name, v := range res.layer {
			values[name] = v
		}
	}

	if len(traced) == 0 {
		return report{}, fmt.Errorf("no traced unit passed verification")
	}
	units := float64(len(traced))
	values["unit.p50_ms"] = median(traced)
	values["unit.samples"] = float64(len(traced))
	for _, ms := range traced {
		values["unit.mean_ms"] += ms / units
	}
	if p := tailPercentile(len(traced)); p > 0 {
		values["unit.tail_percentile"] = float64(p)
		values["unit.tail_ms"] = quantile(traced, float64(p)/100)
	}
	values["unit.cpu_ms"] = float64(cpu.Nanoseconds()) / 1e6 / units
	values["unit.alloc_mb"] = float64(alloc) / (1 << 20) / units
	if m := median(plain); m > 0 {
		values["bench.trace_overhead_ratio"] = median(traced) / m
	}
	// Self times partition each unit's root span, so these sum to unit.mean_ms.
	for name, v := range tr.selfMsPerTrace() {
		if metric, ok := spanMetric[name]; ok {
			values[metric] += v
		}
	}
	tracePath := filepath.Join(o.outDir, "trace."+w.name+".json")
	if err := tr.write(tracePath); err != nil {
		return report{}, err
	}
	fmt.Fprintf(log, "%s: %d traced units, spans in %s\n", w.name, len(traced), tracePath)

	if x, ok := inst.(interface {
		opponents(m map[string]float64) error
	}); ok {
		if err := x.opponents(values); err != nil {
			return report{}, fmt.Errorf("opponents: %w", err)
		}
	}
	// Some forty timings share the remaining four tenths of the window.
	if err := layerWalk(inst.config(), o.env, window/100, values); err != nil {
		return report{}, fmt.Errorf("layer walk: %w", err)
	}
	if solo, ok := values["serve.latency_p50_ms.solo"]; ok {
		values["serve.overhead_ms"] = solo - values["serve.direct_eval_ms"]
	}
	for _, s := range perLayer {
		rep.Metrics[s.name] = metricValue{values[s.name], s.unit}
	}
	return rep, nil
}

func logFailure(log io.Writer, name string, res window) {
	if res.failed > 0 {
		fmt.Fprintf(log, "%s: %d of %d units failed, first: %v\n", name, res.failed, res.attempted, res.firstErr)
	}
}

// printReport writes the metrics by name with their units, then the
// report as one JSON object on the last line.
func printReport(out io.Writer, specs []metricSpec, rep report) error {
	for _, s := range specs {
		fmt.Fprintf(out, "%-32s %16.6g %s\n", s.name, rep.Metrics[s.name].Value, s.unit)
	}
	fmt.Fprintf(out, "%-32s %16d\n%-32s %16d\n", "ops_attempted", rep.Attempted, "ops_failed", rep.Failed)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
