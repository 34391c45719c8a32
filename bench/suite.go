package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// benchSpec is BENCHMARK.json: the contract the driver runs the
// benchmark under. The suite takes workloads, run length and bounds from it.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// suiteResult is what a full run leaves in <out>/result.json, and what
// -compare reads: every number with where and how it was taken.
type suiteResult struct {
	Host      hostInfo                   `json:"host"`
	Commit    string                     `json:"commit"`
	Seed      uint64                     `json:"seed"`
	Rounds    int                        `json:"rounds"`
	Seconds   float64                    `json:"seconds"`
	Quick     bool                       `json:"quick,omitempty"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Go         string `json:"go"`
}

type workloadResult struct {
	Attempted int                    `json:"ops_attempted"`
	Failed    int                    `json:"ops_failed"`
	EndToEnd  map[string]*series     `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// series is one end-to-end metric over the rounds: each run's value (a
// median over that run's units) and their median.
type series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Runs   []float64 `json:"runs"`
}

// suiteRounds is how often the suite goes round the workloads untraced.
const suiteRounds = 3

type suiteOptions struct {
	seconds float64
	outDir  string
	env     env
}

// runSuite runs every workload of the spec in a child process of its
// own (fresh heap, engine and peak-RSS counter), round after round with
// the workloads interleaved so that one noisy stretch of a shared host
// cannot own a workload, then one traced pass, and writes result.json.
func runSuite(spec benchSpec, o suiteOptions, stdout, stderr io.Writer) int {
	res := suiteResult{
		Host:      hostInfo{runtime.NumCPU(), o.env.procs, runtime.GOOS, runtime.GOARCH, runtime.Version()},
		Commit:    gitCommit(),
		Seed:      o.env.seed,
		Rounds:    suiteRounds,
		Seconds:   o.seconds,
		Quick:     o.env.quick,
		Workloads: map[string]*workloadResult{},
	}
	child := func(name string, trace int) (report, error) {
		args := []string{"--workload", name, "--seed", strconv.FormatUint(o.env.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
			"--procs", strconv.Itoa(o.env.procs), "--out", o.outDir}
		if o.env.quick {
			args = append(args, "--quick")
		}
		cmd := exec.Command(o.env.exe, args...)
		cmd.Stderr = stderr
		out, runErr := cmd.Output()
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var rep report
		if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
			return rep, fmt.Errorf("%s: no report (%v, %v)", name, runErr, err)
		}
		return rep, nil
	}
	failed := false
	for _, w := range spec.Workloads {
		res.Workloads[w.Name] = &workloadResult{EndToEnd: map[string]*series{}, PerLayer: map[string]metricValue{}}
	}
	tally := func(name string, rep report) *workloadResult {
		wr := res.Workloads[name]
		wr.Attempted += rep.Attempted
		wr.Failed += rep.Failed
		failed = failed || !rep.Correct
		return wr
	}
	for round := 1; round <= suiteRounds; round++ {
		for _, w := range spec.Workloads {
			rep, err := child(w.Name, 0)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			wr := tally(w.Name, rep)
			for name, v := range rep.Metrics {
				if wr.EndToEnd[name] == nil {
					wr.EndToEnd[name] = &series{Unit: v.Unit}
				}
				wr.EndToEnd[name].Runs = append(wr.EndToEnd[name].Runs, v.Value)
			}
		}
	}
	for _, w := range spec.Workloads {
		rep, err := child(w.Name, 1)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		tally(w.Name, rep).PerLayer = rep.Metrics
	}

	for _, w := range spec.Workloads {
		wr := res.Workloads[w.Name]
		fmt.Fprintf(stdout, "\n%s  (%d units attempted, %d failed)\n", w.Name, wr.Attempted, wr.Failed)
		for _, m := range spec.EndToEnd {
			s := wr.EndToEnd[m.Name]
			if s == nil {
				fmt.Fprintf(stderr, "bench: %s did not report %s\n", w.Name, m.Name)
				return 1
			}
			s.Median = median(s.Runs)
			fmt.Fprintf(stdout, "  %-28s %14.6g %-5s spread %4.1f%%  bound %4.1f%%  runs %v\n",
				m.Name, s.Median, s.Unit, 100*spread(s.Runs), 100*m.Bound, s.Runs)
		}
		for _, m := range spec.PerLayer {
			fmt.Fprintf(stdout, "    %-30s %14.6g %s\n", m.Name, wr.PerLayer[m.Name].Value, m.Unit)
		}
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(o.outDir, "result.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nwrote %s\n", filepath.Join(o.outDir, "result.json"))
	if failed {
		return 1
	}
	return 0
}

// gitCommit stamps the result; outside a git checkout it says so.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// compareFiles prints one row per (end-to-end metric, workload) of two
// suite results with the ratio and its base, and judges each against
// the metric's bound in BENCHMARK.json. Per-layer metrics are listed
// with ratios and never gate. Returns 1 on any regression or on more
// failed units than before.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	load := func(path string) (suiteResult, error) {
		var r suiteResult
		data, err := os.ReadFile(path)
		if err != nil {
			return r, err
		}
		return r, json.Unmarshal(data, &r)
	}
	a, err := load(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", oldPath, err)
		return 2
	}
	b, err := load(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", newPath, err)
		return 2
	}
	fmt.Fprintf(stdout, "old %s  commit %.12s seed %d, %d cpus\nnew %s  commit %.12s seed %d, %d cpus\n\n",
		oldPath, a.Commit, a.Seed, a.Host.CPUs, newPath, b.Commit, b.Seed, b.Host.CPUs)
	fmt.Fprintf(stdout, "%-12s %-18s %12s %12s %18s %7s  %s\n", "workload", "metric", "old", "new", "new/old (base old)", "bound", "verdict")
	regressed := false
	for _, w := range spec.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(stdout, "%-12s missing from one side\n", w.Name)
			regressed = true
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if sa == nil || sb == nil {
				fmt.Fprintf(stdout, "%-12s %-18s missing from one side\n", w.Name, m.Name)
				regressed = true
				continue
			}
			v := verdict(sa.Runs, sb.Runs, m.Better == "higher", m.Bound)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(stdout, "%-12s %-18s %12.5g %12.5g %18.4f %6.0f%%  %s\n",
				w.Name, m.Name, sa.Median, sb.Median, sb.Median/sa.Median, 100*m.Bound, v)
		}
		if wb.Failed*wa.Attempted > wa.Failed*wb.Attempted {
			fmt.Fprintf(stdout, "%-12s %-18s %12d %12d  of %d and %d attempted: more failures\n", w.Name, "ops_failed", wa.Failed, wb.Failed, wa.Attempted, wb.Attempted)
			regressed = true
		}
	}
	fmt.Fprintf(stdout, "\nper-layer (one traced run each; listed, never judged)\n")
	for _, w := range spec.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range spec.PerLayer {
			va, vb := wa.PerLayer[m.Name].Value, wb.PerLayer[m.Name].Value
			if va == 0 && vb == 0 {
				continue
			}
			fmt.Fprintf(stdout, "%-12s %-30s %12.5g %12.5g %8.4f %s\n", w.Name, m.Name, va, vb, vb/va, m.Unit)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// verdict judges the new runs of one metric against the old ones:
// "regressed" when the median is worse by more than the bound,
// "unresolved" when the runs of either side spread wider than the bound
// (unless the two sides do not overlap at all, which settles it either
// way), "ok" otherwise.
func verdict(old, new []float64, higherBetter bool, bound float64) string {
	mo, mn := median(old), median(new)
	worse := (mn - mo) / mo
	if higherBetter {
		worse = -worse
	}
	allBetter, allWorse := true, true
	for _, x := range new {
		for _, y := range old {
			better := x < y
			if higherBetter {
				better = x > y
			}
			allBetter = allBetter && better
			allWorse = allWorse && !better && x != y
		}
	}
	wide := spread(old) > bound || spread(new) > bound
	switch {
	case worse > bound && (!wide || allWorse):
		return "regressed"
	case wide && !allBetter && !allWorse:
		return "unresolved"
	}
	return "ok"
}
