package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"os"
	"os/exec"
	"strings"
	"time"

	"bitpacker"
	"bitpacker/internal/shard/worker"
)

// fleetEnv marks a re-executed benchmark binary as a standing fleet
// member (the role `bpworker -listen` plays in a deployment).
const fleetEnv = "BITPACKER_BENCH_FLEET"

// shardProgram is the six-step program of the old BENCH_7 record. The
// last step's argument is set per job, so every job has a fingerprint of
// its own, as the jobs of real users do.
var shardProgram = []bitpacker.ShardStep{
	{Op: bitpacker.ShardOpSquare},
	{Op: bitpacker.ShardOpScale, Arg: 1.25},
	{Op: bitpacker.ShardOpOffset, Arg: 0.125},
	{Op: bitpacker.ShardOpSquare},
	{Op: bitpacker.ShardOpNegate},
	{Op: bitpacker.ShardOpOffset, Arg: 1},
}

const shardSampled = 4 // outputs of each job that are decrypted

// shardLanes are the two transports a unit sends its job through, in
// this order.
var shardLanes = [...]string{"fork", "tcp"}

// shardJob runs one job per unit through RunSharded twice: on forked
// workers (spawn and per-worker keygen inside every job, as users pay
// them), then on a standing loopback fleet of procs processes started
// during set-up. The unit's time is the sum of the two calls.
type shardJob struct {
	cfg    bitpacker.Config
	ctx    *bitpacker.Context
	procs  int
	exe    string
	dirs   [len(shardLanes)]string // one exchange directory per lane, reused by every job
	inputs []*bitpacker.Ciphertext
	plain  [][]complex128          // plaintext of the sampled inputs
	prefix []*bitpacker.Ciphertext // serial lane's state before the last step
	fleet  []*fleetProc
	stats  bitpacker.SupervisorStats
	units  int
	plan   float64 // the cost model's serial/sharded ratio, from the last job's report
}

func newShard(e env) (instance, error) {
	w := &shardJob{
		cfg: bitpacker.Config{
			Scheme:    bitpacker.BitPacker,
			LogN:      e.logN(12),
			Levels:    4,
			ScaleBits: 40,
			WordBits:  61,
			Seed:      e.seed,
			Workers:   1, // the serial lane and each worker compute on one engine worker
		},
		procs: e.procs,
		exe:   e.exe,
	}
	var err error
	for l := range w.dirs {
		if w.dirs[l], err = os.MkdirTemp(e.dir, "job-"+shardLanes[l]+"-"); err != nil {
			w.close()
			return nil, err
		}
	}
	if w.ctx, err = bitpacker.New(w.cfg); err != nil {
		w.close()
		return nil, err
	}
	n := 32
	if e.quick {
		n = 8
	}
	rng := e.rng(3)
	for i := 0; i < n; i++ {
		vals := make([]complex128, w.ctx.Slots())
		for j := range vals {
			vals[j] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
		}
		ct, err := w.ctx.Encrypt(vals)
		if err != nil {
			w.close()
			return nil, err
		}
		w.inputs = append(w.inputs, ct)
		if i < shardSampled {
			w.plain = append(w.plain, vals)
		}
	}
	if w.prefix, err = w.serial(shardProgram[:len(shardProgram)-1], w.inputs); err != nil {
		w.close()
		return nil, err
	}
	for i := 0; i < w.procs; i++ {
		f, err := startFleet(e.exe)
		if err != nil {
			w.close()
			return nil, err
		}
		w.fleet = append(w.fleet, f)
	}
	// Warm-up unit: fills pools and NTT tables here and in the fleet. Its
	// fingerprints differ from every timed job's (index -1).
	if _, _, err := w.unit(-1, nil); err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	w.stats, w.units = bitpacker.SupervisorStats{}, 0
	return w, nil
}

// serial is the in-process lane: the program applied step by step to the
// whole batch.
func (w *shardJob) serial(program []bitpacker.ShardStep, state []*bitpacker.Ciphertext) ([]*bitpacker.Ciphertext, error) {
	var err error
	for _, step := range program {
		if state, err = w.ctx.ApplyShardStep(step, state); err != nil {
			return nil, err
		}
	}
	return state, nil
}

func (w *shardJob) config() bitpacker.Config { return w.cfg }

func (w *shardJob) livePIDs() []int {
	var pids []int
	for _, f := range w.fleet {
		pids = append(pids, f.cmd.Process.Pid)
	}
	return pids
}

func (w *shardJob) close() error {
	var first error
	for _, f := range w.fleet {
		if err := f.stop(); err != nil && first == nil {
			first = err
		}
	}
	w.fleet = nil
	for _, dir := range w.dirs {
		if dir == "" {
			continue
		}
		if err := os.RemoveAll(dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (w *shardJob) run(until time.Time, first int, tr *tracer) window {
	out := closedLoop(until, first, func(i int) (float64, float64, error) { return w.unit(i, tr) })
	s := w.stats
	out.layer = map[string]float64{
		"shard.spawns_per_job":      float64(s.Spawns) / float64(max(w.units, 1)),
		"shard.redispatches":        float64(s.Redispatches),
		"shard.degraded":            float64(s.DegradedEntries),
		"shard.stale_epoch_rejects": float64(s.StaleEpochRejects),
		"shard.predicted_speedup":   w.plan,
	}
	return out
}

// opponents times what the lanes are up against, twice each: the serial
// lane on one engine worker and on all of them, and per lane a job whose
// program is a single addition — pure spawn or dial, keygen, blob traffic
// and collection. m already holds the lanes' own times from the spans.
func (w *shardJob) opponents(m map[string]float64) error {
	timeSerial := func() (float64, error) {
		var ts []float64
		for k := 0; k < 2; k++ {
			t0 := time.Now()
			if _, err := w.serial(shardProgram, w.inputs); err != nil {
				return 0, err
			}
			ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		return median(ts), nil
	}
	serial, err := timeSerial()
	if err != nil {
		return err
	}
	bitpacker.SetWorkers(w.procs)
	allCores, err := timeSerial()
	bitpacker.SetWorkers(w.cfg.Workers)
	if err != nil {
		return err
	}
	m["shard.serial_ms"], m["shard.inproc_allcores_ms"] = serial, allCores
	for l, lane := range shardLanes {
		var empty []float64
		for k := 0; k < 2; k++ {
			t0 := time.Now()
			if _, _, err := w.ctx.RunSharded(context.Background(), []bitpacker.ShardStep{lastStep(-2-k, l)}, w.inputs, w.options(l)); err != nil {
				return err
			}
			empty = append(empty, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		m["shard.overhead_"+lane+"_ms"] = median(empty)
		if laneMs := m["shard."+lane+"_ms"]; laneMs > 0 {
			m["shard.speedup_"+lane] = serial / laneMs
		}
	}
	return nil
}

// options is lane l: forked workers, or the standing fleet's addresses.
func (w *shardJob) options(l int) bitpacker.ShardOptions {
	opts := bitpacker.ShardOptions{Dir: w.dirs[l], Workers: w.procs, EngineWorkers: 1, DisableDegraded: true}
	if shardLanes[l] == "fork" {
		opts.WorkerCommand = []string{w.exe}
		return opts
	}
	for _, f := range w.fleet {
		opts.Addrs = append(opts.Addrs, f.addr)
	}
	return opts
}

// lastStep is the final program step of unit i's job on lane l: a
// constant of its own, so every job has its own fingerprint.
func lastStep(i, l int) bitpacker.ShardStep {
	return bitpacker.ShardStep{Op: bitpacker.ShardOpOffset, Arg: 1 + float64(len(shardLanes)*(i+4)+l)/4096}
}

// unit sends job i through each lane. The clock covers the RunSharded
// calls alone: partitioning, blob publication, spawn or dial, keygen in
// the workers, supervision, collection.
func (w *shardJob) unit(i int, tr *tracer) (ms, absErr float64, err error) {
	var (
		programs [len(shardLanes)][]bitpacker.ShardStep
		outs     [len(shardLanes)][]*bitpacker.Ciphertext
	)
	root := tr.start(i, 0, "bench", "unit")
	for l, lane := range shardLanes {
		programs[l] = append(append([]bitpacker.ShardStep(nil), shardProgram[:len(shardProgram)-1]...), lastStep(i, l))
		opts := w.options(l)
		t0 := time.Now()
		id := tr.start(i, root, "bitpacker", "run_sharded_"+lane)
		var report bitpacker.ShardReport
		outs[l], report, err = w.ctx.RunSharded(context.Background(), programs[l], w.inputs, opts)
		tr.end(id)
		ms += float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			tr.end(root)
			return 0, 0, fmt.Errorf("job %d on the %s lane: %w", i, lane, err)
		}
		w.plan = report.PredictedSpeedup
		addStats(&w.stats, report.Stats)
	}
	tr.end(root)
	w.units++

	for l, lane := range shardLanes {
		e, err := w.verify(programs[l], outs[l])
		if err != nil {
			return 0, 0, fmt.Errorf("job %d on the %s lane: %w", i, lane, err)
		}
		absErr = math.Max(absErr, e)
	}
	return ms, absErr, nil
}

// verify holds a job's outputs to the serial lane's bytes (its last step
// is applied here) and the sampled ones to the plaintext program.
func (w *shardJob) verify(program []bitpacker.ShardStep, outs []*bitpacker.Ciphertext) (absErr float64, err error) {
	want, err := w.serial(program[len(program)-1:], w.prefix)
	if err != nil {
		return 0, err
	}
	if len(outs) != len(want) {
		return 0, fmt.Errorf("%d outputs, want %d", len(outs), len(want))
	}
	for k := range want {
		a, err := w.ctx.MarshalCiphertext(want[k])
		if err != nil {
			return 0, err
		}
		b, err := w.ctx.MarshalCiphertext(outs[k])
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(a, b) {
			return 0, fmt.Errorf("output %d differs from the serial lane", k)
		}
	}
	for k, vals := range w.plain {
		got, err := w.ctx.Decrypt(outs[k])
		if err != nil {
			return 0, err
		}
		for j, z := range vals {
			absErr = math.Max(absErr, cmplx.Abs(got[j]-shardReference(z, program)))
		}
	}
	if absErr > tolerance {
		return 0, fmt.Errorf("|decrypted - reference| = %.3g > 2^-14", absErr)
	}
	return absErr, nil
}

// shardReference applies the program to one plaintext slot.
func shardReference(z complex128, program []bitpacker.ShardStep) complex128 {
	for _, st := range program {
		switch st.Op {
		case bitpacker.ShardOpSquare:
			z *= z
		case bitpacker.ShardOpScale:
			z *= complex(st.Arg, 0)
		case bitpacker.ShardOpOffset:
			z += complex(st.Arg, 0)
		case bitpacker.ShardOpNegate:
			z = -z
		}
	}
	return z
}

func addStats(sum *bitpacker.SupervisorStats, s bitpacker.SupervisorStats) {
	sum.Spawns += s.Spawns
	sum.Redispatches += s.Redispatches
	sum.DegradedEntries += s.DegradedEntries
	sum.StaleEpochRejects += s.StaleEpochRejects
}

// fleetProc is one standing fleet member: this binary re-executed with
// fleetEnv set. It serves until its stdin closes, so it cannot outlive
// the benchmark even if the benchmark is killed.
type fleetProc struct {
	cmd   *exec.Cmd
	stdin io.Closer
	addr  string
}

func startFleet(exe string) (*fleetProc, error) {
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), fleetEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start fleet member: %w", err)
	}
	f := &fleetProc{cmd: cmd, stdin: stdin}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		f.stop()
		return nil, fmt.Errorf("fleet member did not report its address: %w", err)
	}
	f.addr = strings.TrimSpace(line)
	return f, nil
}

// stop closes the member's stdin, which makes it drain and exit, and
// waits for it; a member that does not exit within five seconds is killed.
func (f *fleetProc) stop() error {
	f.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- f.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		f.cmd.Process.Kill()
		<-done
		return fmt.Errorf("fleet member %d had to be killed", f.cmd.Process.Pid)
	}
}

// fleetMain is the fleet member's main: listen on a loopback port, print
// the address, serve until stdin closes.
func fleetMain() int {
	fl, err := worker.Listen("127.0.0.1:0", nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench fleet: %v\n", err)
		return 1
	}
	fmt.Println(fl.Addr())
	served := make(chan error, 1)
	go func() { served <- fl.Serve() }()
	// Block until the parent closes the pipe (or dies).
	_, _ = bufio.NewReader(os.Stdin).ReadString(0)
	fl.Close()
	if err := <-served; err != nil {
		fmt.Fprintf(os.Stderr, "bench fleet: %v\n", err)
		return 1
	}
	return 0
}
