package experiments

// The benchmark harness: one testing.B benchmark per paper table/figure.
// Each BenchmarkFigXX regenerates the corresponding artifact (in quick
// mode) and logs the resulting table; custom metrics expose the headline
// numbers so `go test -bench` output doubles as a results summary. Host
// timings of the functional library live in bench/ (see BENCHMARK.json).

import (
	"bytes"
	"testing"
)

// runExperimentBench regenerates one experiment per benchmark invocation.
func runExperimentBench(b *testing.B, id string) {
	b.Helper()
	r, ok := ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var out *Result
	for i := 0; i < b.N; i++ {
		res, err := r.Run(true)
		if err != nil {
			b.Fatal(err)
		}
		out = res
	}
	var buf bytes.Buffer
	out.Render(&buf)
	b.Log("\n" + buf.String())
}

func BenchmarkFig01Packing(b *testing.B)         { runExperimentBench(b, "fig01") }
func BenchmarkFig10EnergyBreakdown(b *testing.B) { runExperimentBench(b, "fig10") }
func BenchmarkFig11ExecTime28(b *testing.B)      { runExperimentBench(b, "fig11") }
func BenchmarkFig12Energy28(b *testing.B)        { runExperimentBench(b, "fig12") }
func BenchmarkFig13CPU(b *testing.B)             { runExperimentBench(b, "fig13") }
func BenchmarkFig14WordSweep(b *testing.B)       { runExperimentBench(b, "fig14") }
func BenchmarkFig15Slowdown(b *testing.B)        { runExperimentBench(b, "fig15") }
func BenchmarkFig16PerfPerArea(b *testing.B)     { runExperimentBench(b, "fig16") }
func BenchmarkFig17RegisterFile(b *testing.B)    { runExperimentBench(b, "fig17") }
func BenchmarkTable1Precision(b *testing.B)      { runExperimentBench(b, "tab1") }
func BenchmarkFig18RescaleError(b *testing.B)    { runExperimentBench(b, "fig18") }
func BenchmarkFig19AdjustError(b *testing.B)     { runExperimentBench(b, "fig19") }
func BenchmarkSec61EDP(b *testing.B)             { runExperimentBench(b, "sec61") }
func BenchmarkSec62SHARPComparison(b *testing.B) { runExperimentBench(b, "sec62") }
func BenchmarkSec63AreaReduction(b *testing.B)   { runExperimentBench(b, "sec63") }
