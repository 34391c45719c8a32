package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"bitpacker/internal/shard/worker"
)

// The test binary doubles as shard worker and fleet member, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if worker.IsWorker() {
		os.Exit(worker.Main())
	}
	if os.Getenv(fleetEnv) != "" {
		os.Exit(fleetMain())
	}
	os.Exit(m.Run())
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// BENCHMARK.json and the code must name the same workloads and metrics
// with the same units, within the limits of the driver's contract.
func TestSpecMatchesCode(t *testing.T) {
	spec := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []specMetric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code emits %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: %q (%q) is malformed or repeated", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s better=%q", kind, m.Name, m.Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload %d: %q vs %q in the code (or malformed, or repeated)", i, w.Name, workloads[i].name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

// The quick pass drives every workload end to end, untraced and traced,
// and holds each report to the contract: exactly the named metrics, once
// each, every unit verified.
func TestQuickPass(t *testing.T) {
	spec := loadSpec(t)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	scratch := out + "/tmp"
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	e := env{seed: 1, procs: 1, quick: true, dir: scratch, exe: exe}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			rep, err := runOnce(runOptions{workload: w.Name, seconds: 0.2, trace: trace, outDir: out, env: e}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, %d named in BENCHMARK.json", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not reported", w.Name, trace, m.Name)
				case v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%v: %s = %v %s", w.Name, trace, m.Name, v.Value, v.Unit)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, v.Value)
				}
			}
			// The printed form: the report is the last line, alone.
			var buf bytes.Buffer
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if err := printReport(&buf, specs, rep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var back map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &back); err != nil || len(back) != 4 {
				t.Errorf("%s trace=%v: last line is not the four-key report: %v", w.Name, trace, err)
			}
			if trace {
				data, err := os.ReadFile(out + "/trace." + w.Name + ".json")
				var spans []span
				if err != nil || json.Unmarshal(data, &spans) != nil || len(spans) == 0 {
					t.Errorf("%s: trace file unreadable or empty (%v)", w.Name, err)
				}
			}
		}
	}
}

func TestOversubscriptionRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "infer_bp28", "--procs", "4096"}, &stdout, &stderr); code == 0 {
		t.Fatal("4096 procs accepted")
	}
	if !strings.Contains(stderr.String(), "oversubscribe") || stdout.Len() != 0 {
		t.Errorf("stderr %q, stdout %q", stderr.String(), stdout.String())
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{{0, 0}, {49, 0}, {50, 80}, {99, 80}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {5000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument")
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(ten)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
}

// A quiet reading leaves a timing as it is; a reading twice as long takes
// it down by less than half, and by less the larger the insensitive share.
func TestQuietScale(t *testing.T) {
	if got := quietScale(refQuietMs, 0.67); got != 1 {
		t.Errorf("quietScale(quiet) = %v, want 1", got)
	}
	pure, mixed := quietScale(2*refQuietMs, 0), quietScale(2*refQuietMs, 0.67)
	if pure != 0.5 || mixed <= pure || mixed >= 1 {
		t.Errorf("quietScale(2·quiet) = %v without an insensitive share, %v with 0.67", pure, mixed)
	}
	if ms := newReference().ms(); ms <= 0 {
		t.Errorf("reference took %v ms", ms)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Parent: 0, Layer: "bench", Name: "unit", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Layer: "l", Name: "a", Start: 10, End: 40},
		{Trace: 1, ID: 3, Parent: 1, Layer: "l", Name: "b", Start: 30, End: 60}, // overlaps a: covered once
		{Trace: 1, ID: 4, Parent: 2, Layer: "l", Name: "c", Start: 15, End: 20},
		{Trace: 1, ID: 5, Parent: 1, Layer: "l", Name: "d", Start: 90, End: 120}, // outlives its parent: clipped
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 5, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", spans[i].ID, got, want[i])
		}
	}
	tr := &tracer{spans: spans}
	per := tr.selfMsPerTrace()
	if got := per["bench.unit"]; math.Abs(got-40e-6) > 1e-15 {
		t.Errorf("bench.unit = %v ms", got)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		old, new []float64
		higher   bool
		want     string
	}{
		{[]float64{100, 101, 102}, []float64{103, 104, 105}, false, "ok"},
		{[]float64{100, 101, 102}, []float64{120, 121, 122}, false, "regressed"},
		{[]float64{100, 101, 102}, []float64{80, 81, 82}, true, "regressed"},
		{[]float64{100, 130, 160}, []float64{110, 140, 170}, false, "unresolved"},
		{[]float64{100, 130, 160}, []float64{60, 70, 90}, false, "ok"},
		{[]float64{100, 130, 160}, []float64{200, 230, 260}, false, "regressed"},
	} {
		if got := verdict(c.old, c.new, c.higher, 0.10); got != c.want {
			t.Errorf("verdict(%v, %v, higher=%v) = %s, want %s", c.old, c.new, c.higher, got, c.want)
		}
	}
}
