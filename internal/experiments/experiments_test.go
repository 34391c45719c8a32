package experiments

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"bitpacker"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig01", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19", "tab1", "sec61", "sec62", "sec63"}
	have := map[string]bool{}
	for _, r := range Runners() {
		have[r.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("experiment %s missing from registry", id)
		}
		if _, ok := ByID(id); !ok {
			t.Fatalf("ByID(%s) failed", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestFig01RendersBitPacker(t *testing.T) {
	r, _ := ByID("fig01")
	res, err := r.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "BitPacker") {
		t.Fatalf("experiment output malformed: %s", buf.String())
	}
}

// TestSimulateWorkloadAPI: the accelerator-model entry point cmd/accelsim
// calls, on the chain cache the figures share.
func TestSimulateWorkloadAPI(t *testing.T) {
	bp, err := SimulateWorkload("LogReg", "BS19", bitpacker.BitPacker, 28)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := SimulateWorkload("LogReg", "BS19", bitpacker.RNSCKKS, 28)
	if err != nil {
		t.Fatal(err)
	}
	if bp.Milliseconds <= 0 || bp.Milliseconds >= rc.Milliseconds {
		t.Fatalf("BitPacker %.1fms vs RNS-CKKS %.1fms", bp.Milliseconds, rc.Milliseconds)
	}
	if bp.MeanResidues >= rc.MeanResidues {
		t.Fatalf("meanR %f vs %f", bp.MeanResidues, rc.MeanResidues)
	}
	if _, err := SimulateWorkload("nope", "BS19", bitpacker.BitPacker, 28); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := SimulateWorkload("LogReg", "nope", bitpacker.BitPacker, 28); err == nil {
		t.Fatal("unknown bootstrap accepted")
	}
	if len(Workloads()) != 5 || len(BootstrapAlgorithms()) != 2 {
		t.Fatal("workload registry wrong")
	}
}

// TestFunctionalGolden pins the rendered quick output of the functional
// experiments that measure precision (Table 1, Figs 18 and 19) byte for
// byte: a change to the library ops they run (New, Encrypt, MulRescale,
// Adjust, Add, Decrypt) that moves a figure fails here.
func TestFunctionalGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/functional_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, run := range []func(bool) (*Result, error){runTab1, runFig18, runFig19} {
		res, err := run(true)
		if err != nil {
			t.Fatal(err)
		}
		res.Render(&buf)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("functional experiments moved:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestResultRender(t *testing.T) {
	res := &Result{
		ID:     "X",
		Title:  "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"n"},
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== X: t ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestGmean(t *testing.T) {
	if g := gmean([]float64{2, 8}); g != 4 {
		t.Fatalf("gmean(2,8)=%f", g)
	}
	if g := gmean(nil); g != 0 {
		t.Fatalf("gmean(nil)=%f", g)
	}
}

// lastRatio extracts the final column of the gmean row.
func lastRatio(t *testing.T, res *Result, col int) float64 {
	t.Helper()
	last := res.Rows[len(res.Rows)-1]
	v, err := strconv.ParseFloat(last[col], 64)
	if err != nil {
		t.Fatalf("bad gmean cell %q", last[col])
	}
	return v
}

func TestFig11HeadlineResult(t *testing.T) {
	res, err := runFig11(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 11 { // 10 configs + gmean
		t.Fatalf("expected 11 rows, got %d", len(res.Rows))
	}
	g := lastRatio(t, res, 3)
	// The paper reports gmean 1.59x; the reproduction must at least show
	// a solid BitPacker win on every benchmark and a gmean within the
	// band documented in EXPERIMENTS.md.
	if g < 1.1 || g > 2.2 {
		t.Fatalf("gmean speedup %.2f outside plausible band", g)
	}
	for _, row := range res.Rows[:10] {
		r, _ := strconv.ParseFloat(row[3], 64)
		if r <= 1.0 {
			t.Fatalf("%s: BitPacker did not win (%.2f)", row[0], r)
		}
	}
}

func TestFig15MonotoneBands(t *testing.T) {
	res, err := runFig15(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		g, _ := strconv.ParseFloat(row[1], 64)
		mx, _ := strconv.ParseFloat(row[2], 64)
		mn, _ := strconv.ParseFloat(row[3], 64)
		if !(mn <= g && g <= mx) {
			t.Fatalf("w=%s: min %.2f gmean %.2f max %.2f not ordered", row[0], mn, g, mx)
		}
		if mn < 1.0 {
			t.Fatalf("w=%s: RNS-CKKS faster than BitPacker (min %.2f)", row[0], mn)
		}
	}
}

func TestFig17RegisterFileShape(t *testing.T) {
	res, err := runFig17(true)
	if err != nil {
		t.Fatal(err)
	}
	// Both schemes must degrade monotonically as the RF shrinks, with
	// RNS-CKKS degrading at least as much at 150MB.
	var bp150, bp256, rc150, rc256 float64
	for _, row := range res.Rows {
		switch row[0] {
		case "150.0":
			bp150, _ = strconv.ParseFloat(row[1], 64)
			rc150, _ = strconv.ParseFloat(row[2], 64)
		case "256.0":
			bp256, _ = strconv.ParseFloat(row[1], 64)
			rc256, _ = strconv.ParseFloat(row[2], 64)
		}
	}
	if bp150 <= bp256 || rc150 <= rc256 {
		t.Fatalf("no degradation at 150MB: bp %.2f/%.2f rc %.2f/%.2f", bp150, bp256, rc150, rc256)
	}
	if rc150/rc256 <= bp150/bp256 {
		t.Fatalf("RNS-CKKS should suffer more from a small RF")
	}
}

func TestTab1PrecisionParity(t *testing.T) {
	res, err := runTab1(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		bp, _ := strconv.ParseFloat(row[2], 64)
		rc, _ := strconv.ParseFloat(row[3], 64)
		// Paper Table 1: BitPacker matches RNS-CKKS within ~1 bit.
		if diff := bp - rc; diff < -1.5 || diff > 1.5 {
			t.Fatalf("%s: precision gap %.1f bits (bp %.1f rc %.1f)", row[0], diff, bp, rc)
		}
		if bp < 8 {
			t.Fatalf("%s: implausibly low precision %.1f bits", row[0], bp)
		}
	}
}

func TestFig18PrecisionScalesWithScale(t *testing.T) {
	res, err := runFig18(true)
	if err != nil {
		t.Fatal(err)
	}
	// Median precision must rise with the scale, for both schemes, and
	// the two schemes must agree within ~1 bit at every scale.
	medians := map[string][]float64{}
	for _, row := range res.Rows {
		v, _ := strconv.ParseFloat(row[4], 64)
		medians[row[1]] = append(medians[row[1]], v)
	}
	for scheme, ms := range medians {
		for i := 1; i < len(ms); i++ {
			if ms[i] <= ms[i-1] {
				t.Fatalf("%s: median precision not increasing: %v", scheme, ms)
			}
		}
	}
	bp, rc := medians["BitPacker"], medians["RNS-CKKS"]
	for i := range bp {
		if d := bp[i] - rc[i]; d < -1 || d > 1 {
			t.Fatalf("scale index %d: scheme gap %.1f bits", i, d)
		}
	}
}

func TestSec63AreaNumbers(t *testing.T) {
	res, err := runSec63(true)
	if err != nil {
		t.Fatal(err)
	}
	var newArea float64
	for _, row := range res.Rows {
		if row[0] == "BitPacker area [mm2]" {
			newArea, _ = strconv.ParseFloat(row[1], 64)
		}
	}
	// Paper: 395.5 mm2.
	if newArea < 380 || newArea > 410 {
		t.Fatalf("reduced area %.1f out of band", newArea)
	}
}
