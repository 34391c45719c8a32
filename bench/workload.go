package main

import (
	"math"
	"math/rand/v2"
	"time"

	"bitpacker"
)

// env is what a workload may depend on besides its own constants: the
// seed its inputs derive from, the parallelism of the run, and where it
// may put files.
type env struct {
	seed  uint64
	procs int    // GOMAXPROCS, engine workers, worker processes of a shard lane
	quick bool   // LogN 10 and tiny inputs: the test suite's pass, not a measurement
	dir   string // scratch directory inside the checkout (job exchange directories)
	exe   string // this binary, re-executed as shard worker and fleet member
}

// rng returns the deterministic generator for one named input stream.
func (e env) rng(stream uint64) *rand.Rand { return rand.New(rand.NewPCG(e.seed, stream)) }

// logN scales a workload's ring degree down for the quick pass.
func (e env) logN(full int) int {
	if e.quick {
		return 10
	}
	return full
}

// tolerance is how far a decrypted output may sit from its plaintext
// reference before the unit counts as failed. The worst slot of an
// inference at 28-bit words measures 2^-16.9 to 2^-19 over seeds 1-10,
// so 2^-16 would fail an unlucky seed; 2^-14 leaves about five sigma.
const tolerance = 1.0 / (1 << 14)

// window is what one timed run of a workload observed.
type window struct {
	lat       []float64          // wall ms of each verified unit, in completion order
	wall      time.Duration      // time the callers spent inside units: verification between units is not load
	attempted int                // units started
	failed    int                // units that errored, were refused, or failed a check
	worstErr  float64            // largest |decrypted - reference| over verified outputs
	layer     map[string]float64 // workload-specific layer observations (see perLayer)
	firstErr  error              // first failure, for the log
}

func (w *window) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// add folds a later window's units into w.
func (w *window) add(next window) {
	w.lat = append(w.lat, next.lat...)
	w.wall += next.wall
	w.attempted += next.attempted
	w.failed += next.failed
	w.worstErr = math.Max(w.worstErr, next.worstErr)
	if w.firstErr == nil {
		w.firstErr = next.firstErr
	}
}

// instance is one fully set-up workload: contexts built, keys generated,
// inputs encrypted, servers and fleets started, one warm-up unit done.
type instance interface {
	// config is the parameter set the workload computes at; the layer
	// walk times every layer below it at exactly these shapes.
	config() bitpacker.Config
	// run executes units back to back until the deadline (a unit in
	// flight at the deadline completes) and verifies each one after its
	// clock has stopped. first is the index of its first unit: indices
	// pick the unit's input and name its trace, and go on from run to run.
	run(until time.Time, first int, tr *tracer) window
	// livePIDs names child processes that outlive a unit.
	livePIDs() []int
	close() error
}

// workload pairs a name of BENCHMARK.json (which also says why it was
// chosen) with its set-up. slice is how long a stretch of the window is
// summarised on its own: 0 makes every unit a slice, which suits the
// single-caller workloads, whose units take a good part of a second.
// insensitive is the workload's constant in the scaling of its timings to
// a quiet host (reference.go).
type workload struct {
	name        string
	setup       func(env) (instance, error)
	slice       time.Duration
	insensitive float64
}

var workloads = []workload{
	{"infer_bp28", func(e env) (instance, error) { return newInfer(e, bitpacker.BitPacker, 28) }, 0, 0.45},
	{"infer_rns61", func(e env) (instance, error) { return newInfer(e, bitpacker.RNSCKKS, 61) }, 0, 0.3},
	{"serve_mix", newServe, time.Second, 0.4},
	{"shard_job", newShard, 0, 1.3},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// closedLoop is the single-caller driver: one unit after the other, from
// index first, until the deadline. unit returns its own wall time (the
// clock stops before verification) and the worst absolute error it saw.
func closedLoop(until time.Time, first int, unit func(i int) (ms, absErr float64, err error)) window {
	var w window
	for i := first; i == first || time.Now().Before(until); i++ {
		w.attempted++
		ms, absErr, err := unit(i)
		if err != nil {
			w.fail(err)
			continue
		}
		w.lat = append(w.lat, ms)
		w.wall += time.Duration(ms * float64(time.Millisecond))
		w.worstErr = math.Max(w.worstErr, absErr)
	}
	return w
}
