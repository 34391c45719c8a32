package shard

// Schedule search over the supervisor's core (machine.go) with the model
// fleet of model_test.go: seeded random schedules, exhaustive
// interleavings of small cases, a fuzz target over the same encoding and
// the checked-in corpus with one schedule per row of DESIGN.md's failure
// matrix. After every step: no shard lost, none completed twice, no
// output accepted under an epoch other than the one dispatched,
// duplicates and zombies counted and dropped, cancellation never charged
// as a fault or to a slot's budget; every run ends with all shards done
// or a typed error. A failure prints the one command that replays it, and
// needs no flag for that: a failing schedule that is not yet a corpus file
// is filed as one, the way `go test -fuzz` files what it finds.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"bitpacker/internal/fherr"
)

const (
	searchSeeds = 12000 // schedules TestMachineSeededSearch explores (a sixth under -short)
	corpusDir   = "testdata/fuzz/FuzzSupervisorMachine"
)

// seededSchedule expands a seed into a schedule: a random small
// configuration, then mostly benign ops with a fault now and then. The
// weights keep the common case common (messages get delivered, workers
// get CPU) so schedules reach deep states before a fault hits them, and
// keep the faults that end a run at once (cancel, no binary) rare.
func seededSchedule(seed uint64) []byte {
	const (
		benign = "wwwwdddddddttfffvvve"
		faults = "xxxqqqppcccehDDDSSSCCFFRmmlZAkkk"
		fatal  = "Kn"
	)
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	sched := []byte{byte('1' + rng.IntN(3)), byte('1' + rng.IntN(6)), "sf"[rng.IntN(2)], "000012"[rng.IntN(6)]}
	faultPct := 2 + rng.IntN(16)
	for n := 40 + rng.IntN(360); n > 0; n-- {
		ops := benign
		switch r := rng.IntN(1000); {
		case r < 2:
			ops = fatal
		case r < 10*faultPct:
			ops = faults
		}
		sched = append(sched, ops[rng.IntN(len(ops))], byte('0'+rng.IntN(10)))
	}
	return sched
}

// failOn reports an invariant violation with the command that replays
// it and the trace of its last steps. A scripted scenario, a corpus row
// and a fuzz input replay under their own test name; a searched schedule
// is first filed in the corpus under the name given. An untraced run of
// a schedule is replayed traced for the report.
func failOn(t testing.TB, w *world, sched []byte, fileAs string) {
	t.Helper()
	if w.fail == "" {
		return
	}
	if !w.traced && sched != nil {
		w = runSchedule(sched, true)
	}
	run := t.Name()
	if fileAs != "" {
		run = "FuzzSupervisorMachine/" + fileAs
		file := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", sched)
		if err := os.WriteFile(filepath.Join(corpusDir, fileAs), []byte(file), 0o644); err != nil {
			t.Logf("could not file the schedule %q: %v", sched, err)
		}
	}
	tail := w.trace
	if len(tail) > 60 {
		tail = tail[len(tail)-60:]
	}
	t.Fatalf("invariant violated: %s\nreplay: go test ./internal/shard -run '^%s$'\nlast steps:\n%s", w.fail, run, strings.Join(tail, "\n"))
}

// TestMachineSeededSearch is the search that replaced `make shard-soak`.
func TestMachineSeededSearch(t *testing.T) {
	seeds := searchSeeds
	if testing.Short() {
		seeds /= 6
	}
	start, steps := time.Now(), 0
	var reached Stats
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		sched := seededSchedule(seed)
		w := runSchedule(sched, false)
		failOn(t, w, sched, fmt.Sprintf("search-seed-%d", seed))
		steps += w.steps
		orStats(&reached, w.m.stats)
	}
	el := time.Since(start)
	t.Logf("%d schedules, %d steps in %v (%.0f schedules/s)", seeds, steps, el.Round(time.Millisecond), float64(seeds)/el.Seconds())
	if missing := zeroCounters(reached); len(missing) > 0 {
		t.Errorf("counters no seeded schedule reached: %v", missing)
	}
}

// TestMachineExhaustiveSmall enumerates every interleaving of a few ops
// around the moments that matter — a lease in flight, a report on the
// wire, a verdict outstanding — on configurations small enough to cover
// completely.
func TestMachineExhaustiveSmall(t *testing.T) {
	cases := []struct {
		name, prefix string
		alphabet     []string
		depth        int
	}{
		// One slot, one shard, leased and computing: every order of the
		// report, a drop, a crash, the redial, the verdict, time and cancel.
		{"lease-in-flight/spawned", "11s0" + "f0w0w0d0", []string{"w0", "d0", "x0", "c0", "e0", "f0", "v0", "t2", "t9", "K0", "S0"}, 4},
		{"lease-in-flight/fleet", "11f0" + "f0w0w0d0", []string{"w0", "d0", "x0", "p0", "c0", "f0", "v0", "t2", "t9", "D0", "S0"}, 4},
		// Two slots, two shards: a partitioned lease re-dispatched to the
		// other slot while the zombie finishes and reports.
		{"zombie/fleet", "22f0" + "f0f1w0w0w1w1d0d1d0d1", []string{"w0", "d0", "d1", "p0", "f0", "v0", "t9"}, 5},
		// Reported failure against ShardAttempts, re-queue, and the breaker.
		{"retry-budget/spawned", "12S0" + "f0w0w0d0F0", []string{"w0", "d0", "v0", "f0", "F0", "c0", "t9"}, 5},
	}
	runs := 0
	for _, tc := range cases {
		depth := tc.depth
		if testing.Short() {
			depth--
		}
		idx := make([]int, depth)
		for {
			sched := []byte(tc.prefix)
			for _, i := range idx {
				sched = append(sched, tc.alphabet[i]...)
			}
			failOn(t, runSchedule(sched, false), sched, "interleaving-"+string(sched))
			runs++
			// Odometer.
			p := depth - 1
			for ; p >= 0; p-- {
				if idx[p]++; idx[p] < len(tc.alphabet) {
					break
				}
				idx[p] = 0
			}
			if p < 0 {
				break
			}
		}
	}
	t.Logf("%d interleavings", runs)
}

// FuzzSupervisorMachine: input bytes are a schedule. Every corpus file,
// checked in or filed by a failure, replays as the subtest of its name.
func FuzzSupervisorMachine(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seededSchedule(seed))
	}
	f.Fuzz(func(t *testing.T, sched []byte) {
		if len(sched) > 4096 {
			return
		}
		failOn(t, runSchedule(sched, false), sched, "")
	})
}

// matrix names, per checked-in corpus schedule, what that row of the
// failure matrix must show in the counters and the verdict.
var matrix = map[string]func(s Stats, err error) bool{
	"crash-mid-lease": func(s Stats, err error) bool {
		return err == nil && s.Crashes == 1 && s.Respawns == 1 && s.Redispatches == 1
	},
	"hang": func(s Stats, err error) bool {
		return err == nil && s.Hangs == 1 && s.Redispatches == 1 && s.Crashes == 0
	},
	"beat-delay": func(s Stats, err error) bool {
		return err == nil && s.HeartbeatMisses > 0 && s.Hangs == 0 && s.Redispatches == 0
	},
	"shard-deadline": func(s Stats, err error) bool { return err == nil && s.Hangs == 1 && s.HeartbeatMisses == 0 },
	"conn-drop-readopt": func(s Stats, err error) bool {
		return err == nil && s.ConnDrops == 1 && s.Readopts == 1 && s.Redispatches == 0 && s.Crashes == 0
	},
	// The same drop for a member the supervisor spawned: the child lives
	// on behind the dropped session, and is re-adopted like a standing one.
	"conn-drop-readopt-spawned": func(s Stats, err error) bool {
		return err == nil && s.ConnDrops == 1 && s.Readopts == 1 && s.Redispatches == 0 && s.Crashes == 0
	},
	"reconnect-flush": func(s Stats, err error) bool {
		return err == nil && s.ConnDrops == 1 && s.Reconnects == 1 && s.Readopts == 0 && s.Redispatches == 0
	},
	"partition-past-lease": func(s Stats, err error) bool {
		return err == nil && s.Partitions == 1 && s.Redispatches == 1 && s.LeasesStolen == 1 && s.StaleEpochRejects > 0
	},
	"duplicate-done":   func(s Stats, err error) bool { return err == nil && s.DuplicateDones == 1 && s.Crashes == 0 },
	"stale-epoch-done": func(s Stats, err error) bool { return err == nil && s.StaleEpochRejects == 1 && s.ShardRetries == 0 },
	"corrupt-output": func(s Stats, err error) bool {
		return err == nil && s.ShardRetries == 1 && s.StaleEpochRejects == 0 && s.Redispatches == 0
	},
	"reported-fail-budget": func(s Stats, err error) bool {
		return errors.Is(err, fherr.ErrFaultUnrecovered) && s.ShardRetries == 1 && s.Crashes == 0
	},
	// A retired slot is a lost fleet when it was the last: the machine hands
	// the job back (ErrFleetLost, which wraps ErrFaultUnrecovered). Whether
	// the job then fails or runs the rest in-process is RunSharded's, seen
	// from outside by TestTCPFullFleetLoss, TestShardedDegradedNoBinary,
	// TestShardedFleetLostMidJob and TestShardedBreakerExhaustion.
	"reject-at-handshake": func(s Stats, err error) bool {
		return errors.Is(err, ErrFleetLost) && s.WorkersRetired == 1 && s.Respawns == 0
	},
	"cancel-mid-backoff": func(s Stats, err error) bool {
		return errors.Is(err, fherr.ErrCanceled) && s.Crashes == 1 && s.Respawns == 0
	},
	"fleet-loss-degraded": func(s Stats, err error) bool {
		return errors.Is(err, ErrFleetLost) && s.WorkersRetired == 2 && s.Spawns == 0
	},
	"fleet-loss-unrecovered": func(s Stats, err error) bool {
		return errors.Is(err, fherr.ErrFaultUnrecovered) && errors.Is(err, ErrFleetLost) && s.WorkersRetired == 2
	},
}

// TestMachineCorpus runs the checked-in fuzz corpus as plain scenarios:
// each named row must show its signature, and between them the rows must
// reach every Stats counter — one the model cannot reach is found here.
func TestMachineCorpus(t *testing.T) {
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	var reached Stats
	seen := map[string]bool{}
	for _, e := range entries {
		t.Run(e.Name(), func(t *testing.T) {
			sched, err := readCorpusFile(filepath.Join(corpusDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			w := runSchedule(sched, true)
			failOn(t, w, sched, "")
			orStats(&reached, w.m.stats)
			if want := matrix[e.Name()]; want != nil {
				seen[e.Name()] = true
				if !want(w.m.stats, w.err) {
					t.Errorf("err=%v stats %+v do not show the row's signature\n%s", w.err, w.m.stats, strings.Join(w.trace, "\n"))
				}
			}
		})
	}
	for name := range matrix {
		if !seen[name] {
			t.Errorf("no corpus schedule for failure-matrix row %q", name)
		}
	}
	if missing := zeroCounters(reached); len(missing) > 0 {
		t.Errorf("counters no corpus schedule reaches: %v", missing)
	}
}

// readCorpusFile parses a one-argument `go test fuzz v1` corpus file.
func readCorpusFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) != 2 || string(lines[0]) != "go test fuzz v1" {
		return nil, fmt.Errorf("not a one-argument fuzz corpus file")
	}
	arg := strings.TrimSuffix(strings.TrimPrefix(string(lines[1]), "[]byte("), ")")
	s, err := strconv.Unquote(arg)
	return []byte(s), err
}

func orStats(into *Stats, s Stats) {
	a, b := reflect.ValueOf(into).Elem(), reflect.ValueOf(s)
	for i := 0; i < a.NumField(); i++ {
		a.Field(i).SetInt(a.Field(i).Int() | b.Field(i).Int())
	}
}

// zeroCounters names the counters s leaves at zero, but for the two
// RunSharded keeps: DegradedEntries and LocalShards count the in-process
// route after a lost fleet, which the machine hands back and never runs
// (TestTCPFullFleetLoss, TestShardedDegradedNoBinary and
// TestShardedFleetLostMidJob reach them).
func zeroCounters(s Stats) []string {
	var names []string
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; v.Field(i).Int() == 0 && name != "DegradedEntries" && name != "LocalShards" {
			names = append(names, name)
		}
	}
	return names
}

// fairRun drives a world with no faults but the ones inject adds, round
// by round, until the run ends.
func fairRun(t *testing.T, w *world, inject func(round int)) {
	t.Helper()
	for round := 0; round < 20000 && !w.finished && w.fail == ""; round++ {
		inject(round)
		for i := range w.ws {
			arg := byte('0' + i)
			for _, code := range "fddddew" {
				w.op(byte(code), arg)
			}
		}
		w.op('v', 0)
		w.op('t', 0)
	}
	w.settle()
	failOn(t, w, nil, "")
}

// TestMachineProductiveSlotKeepsItsBudget: a worker that keeps dying but
// completes shards in every life is flaky, not failing. With the default
// policy (3 attempts x 5 rounds = 15 lives without a reset) one slot
// whose worker dies after every second shard must still carry a 64-shard
// job to the end on workers alone.
func TestMachineProductiveSlotKeepsItsBudget(t *testing.T) {
	w := newWorld(modelCfg{slots: 1, shards: 64, shardAttempts: 3}, true)
	fairRun(t, w, func(int) {
		if w.ws[0].finished >= 2 {
			w.op('c', '0')
		}
	})
	s := w.m.stats
	if w.err != nil || s.WorkersRetired != 0 {
		t.Fatalf("flaky-but-working slot was given up on: err=%v stats %+v", w.err, s)
	}
	if s.Crashes < 31 || s.Respawns < 31 {
		t.Fatalf("expected a crash and a respawn per two shards, got %+v", s)
	}
}

// TestMachineUnproductiveSlotExhausts: a worker that dies before
// completing anything spends the budget exactly as before — MaxAttempts
// lives per round, BreakerThreshold rounds, then retirement and the
// hand-back, which RunSharded under DisableDegraded returns as it is
// (what TestShardedBreakerExhaustion sees from outside).
func TestMachineUnproductiveSlotExhausts(t *testing.T) {
	for _, p := range []RespawnPolicy{
		{MaxAttempts: 2, BaseDelay: time.Millisecond, BreakerThreshold: 1},
		{BaseDelay: time.Millisecond}, // defaults: 3 x 5
	} {
		w := newWorld(modelCfg{slots: 1, shards: 2, respawn: p, shardAttempts: 3}, true)
		fairRun(t, w, func(int) {
			if w.ws[0].run != nil {
				w.op('c', '0')
			}
		})
		d := p.retry()
		lives := int64(d.MaxAttempts * d.BreakerThreshold)
		s := w.m.stats
		if !errors.Is(w.err, ErrFleetLost) || !errors.Is(w.err, fherr.ErrFaultUnrecovered) || s.Spawns != lives || s.Crashes != lives || s.WorkersRetired != 1 {
			t.Fatalf("policy %+v: want %d lives then the hand-back (ErrFleetLost, ErrFaultUnrecovered), got err=%v stats %+v", p, lives, w.err, s)
		}
	}
}
