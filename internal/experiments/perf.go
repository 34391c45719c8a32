package experiments

import (
	"fmt"
	"math"
	"strings"

	"bitpacker"
	"bitpacker/internal/accel"
	"bitpacker/internal/core"
	"bitpacker/internal/workloads"
)

// config is one (benchmark, bootstrap) evaluation point.
type config struct {
	bench workloads.Benchmark
	bs    workloads.BootstrapSpec
}

func (c config) name() string { return c.bench.Name + " (" + c.bs.Name + ")" }

func allConfigs() []config {
	var out []config
	for _, bs := range workloads.Bootstraps() {
		for _, b := range workloads.Benchmarks() {
			out = append(out, config{bench: b, bs: bs})
		}
	}
	return out
}

// chainPair builds the BitPacker and RNS-CKKS chains for a config at a
// word size. Chains are cached: the sweeps reuse many of them.
var chainCache = map[string][2]*core.Chain{}

func chainPair(c config, w int) (bp, rc *core.Chain, err error) {
	key := fmt.Sprintf("%s|%s|%d", c.bench.Name, c.bs.Name, w)
	if got, ok := chainCache[key]; ok {
		return got[0], got[1], nil
	}
	prog := workloads.ProgramSpec(c.bench, c.bs)
	sec := core.SecuritySpec{LogN: 16}
	hw := core.HWSpec{WordBits: w}
	bp, err = core.BuildBitPacker(prog, sec, hw, core.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("%s w=%d bitpacker: %w", c.name(), w, err)
	}
	rc, err = core.BuildRNSCKKS(prog, sec, hw, core.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("%s w=%d rns-ckks: %w", c.name(), w, err)
	}
	chainCache[key] = [2]*core.Chain{bp, rc}
	return bp, rc, nil
}

// simulate runs a config on one chain.
func simulate(cfg accel.Config, ch *core.Chain, c config) (accel.Stats, error) {
	prog := workloads.BuildProgram(c.bench, c.bs)
	return accel.NewSimulator(cfg, ch, 3).Run(prog)
}

// pairStats simulates both schemes at a word size.
func pairStats(c config, w int, hw accel.Config) (bp, rc accel.Stats, err error) {
	bpc, rcc, err := chainPair(c, w)
	if err != nil {
		return accel.Stats{}, accel.Stats{}, err
	}
	if bp, err = simulate(hw, bpc, c); err != nil {
		return accel.Stats{}, accel.Stats{}, err
	}
	rc, err = simulate(hw, rcc, c)
	return bp, rc, err
}

// SimStats summarizes one benchmark simulated on the accelerator model.
type SimStats struct {
	// Milliseconds of simulated execution on the CraterLake-class model.
	Milliseconds float64
	// EnergyMJ consumed, and the fraction spent in rescale/adjust.
	EnergyMJ         float64
	LevelMgmtPercent float64
	// HBMGigabytes of off-chip traffic.
	HBMGigabytes float64
	// AreaMM2 of the accelerator configuration used.
	AreaMM2 float64
	// EDP is the energy-delay product in J*s.
	EDP float64
	// MeanResidues is the chain's average residue count per level.
	MeanResidues float64
}

// Workloads lists the benchmark names SimulateWorkload accepts.
func Workloads() []string {
	var out []string
	for _, b := range workloads.Benchmarks() {
		out = append(out, b.Name)
	}
	return out
}

// BootstrapAlgorithms lists the bootstrapping variants ("BS19", "BS26").
func BootstrapAlgorithms() []string {
	var out []string
	for _, bs := range workloads.Bootstraps() {
		out = append(out, bs.Name)
	}
	return out
}

// SimulateWorkload runs one of the paper's benchmarks on the accelerator
// model at a hardware word size, over the scheme's chain from chainPair.
// Like the experiments, it is not safe for concurrent use: the chain
// cache is a plain map.
func SimulateWorkload(benchmark, bootstrap string, scheme bitpacker.Scheme, wordBits int) (SimStats, error) {
	b, ok := workloads.BenchmarkByName(benchmark)
	if !ok {
		return SimStats{}, fmt.Errorf("experiments: unknown benchmark %q (have %s)", benchmark, strings.Join(Workloads(), ", "))
	}
	c := config{bench: b}
	found := false
	for _, cand := range workloads.Bootstraps() {
		if strings.EqualFold(cand.Name, bootstrap) {
			c.bs, found = cand, true
		}
	}
	if !found {
		return SimStats{}, fmt.Errorf("experiments: unknown bootstrap %q (have %s)", bootstrap, strings.Join(BootstrapAlgorithms(), ", "))
	}
	bp, rc, err := chainPair(c, wordBits)
	if err != nil {
		return SimStats{}, err
	}
	chain := rc
	if scheme == bitpacker.BitPacker {
		chain = bp
	}
	hw := accel.CraterLake(wordBits)
	st, err := simulate(hw, chain, c)
	if err != nil {
		return SimStats{}, err
	}
	return SimStats{
		Milliseconds:     st.Seconds * 1e3,
		EnergyMJ:         st.EnergyMJ(),
		LevelMgmtPercent: 100 * st.LevelMgmtPJ / st.TotalEnergyPJ(),
		HBMGigabytes:     st.HBMBytes / 1e9,
		AreaMM2:          hw.AreaMM2(),
		EDP:              st.EDP(),
		MeanResidues:     chain.MeanR(),
	}, nil
}

// ---------------------------------------------------------------------------
// FIG1: packing overhead of the two representations
// ---------------------------------------------------------------------------

func init() {
	register("fig01", "Datapath packing overhead (paper Fig. 1)", runFig01)
}

func runFig01(bool) (*Result, error) {
	// The paper's illustration: a 240-bit coefficient carrying scales
	// 30,30,30,40,50,60 on a 64-bit datapath.
	prog := core.ProgramSpec{
		MaxLevel:        5,
		TargetScaleBits: []float64{30, 30, 30, 40, 50, 60},
		QMinBits:        30,
	}
	sec := core.SecuritySpec{LogN: 16}
	hw := core.HWSpec{WordBits: 64}
	bp, err := core.BuildBitPacker(prog, sec, hw, core.Options{})
	if err != nil {
		return nil, err
	}
	rc, err := core.BuildRNSCKKS(prog, sec, hw, core.Options{})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "FIG1",
		Title:  "Packing overhead, 64-bit datapath, scales 30/30/30/40/50/60",
		Header: []string{"scheme", "residues@top", "info bits", "bits used", "overhead"},
	}
	for _, ch := range []*core.Chain{rc, bp} {
		top := ch.Levels[ch.MaxLevel()]
		res.Rows = append(res.Rows, []string{
			ch.Scheme.String(),
			fmt.Sprintf("%d", top.R()),
			f1(top.QBits),
			fmt.Sprintf("%d", top.R()*64),
			fmt.Sprintf("%.1f%%", 100*ch.PackingOverhead(ch.MaxLevel())),
		})
	}
	res.Notes = append(res.Notes,
		"paper: RNS-CKKS 60% overhead vs BitPacker 6.6%; our functional moduli cap at 61 bits, adding ~5% inherent overhead at w=64")
	return res, nil
}

// ---------------------------------------------------------------------------
// FIG10: energy breakdown of a homomorphic multiply vs residue count
// ---------------------------------------------------------------------------

func init() {
	register("fig10", "HMul energy breakdown vs R, 28-bit words (paper Fig. 10)", runFig10)
}

func runFig10(bool) (*Result, error) {
	cfg := accel.CraterLake(28)
	res := &Result{
		ID:     "FIG10",
		Title:  "Energy per homomorphic multiply [mJ] by component, w=28",
		Header: []string{"R", "RF", "NTT", "CRB", "Element-wise", "total", "growth-exp"},
	}
	prev := 0.0
	prevR := 0
	for r := 10; r <= 60; r += 5 {
		st := accel.HMulEnergy(cfg, r, 3)
		total := st.Total
		growth := ""
		if prev > 0 {
			growth = f2(math.Log(total/prev) / math.Log(float64(r)/float64(prevR)))
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", r),
			f3(st.RF / 1e9), f3(st.NTT / 1e9), f3(st.CRB / 1e9), f3(st.Elem / 1e9),
			f3(total / 1e9), growth,
		})
		prev, prevR = total, r
	}
	res.Notes = append(res.Notes, "paper: CRB+NTT dominate; total grows ~R^1.6")
	return res, nil
}

// ---------------------------------------------------------------------------
// FIG11 / FIG12: 28-bit execution time and energy
// ---------------------------------------------------------------------------

func init() {
	register("fig11", "Execution time, 28-bit CraterLake (paper Fig. 11)", runFig11)
	register("fig12", "Energy + level management, 28-bit (paper Fig. 12)", runFig12)
}

func runFig11(bool) (*Result, error) {
	hw := accel.CraterLake(28)
	res := &Result{
		ID:     "FIG11",
		Title:  "Execution time at w=28 (normalized to BitPacker; paper gmean speedup 59%)",
		Header: []string{"benchmark", "BitPacker[ms]", "RNS-CKKS[ms]", "RNS-CKKS/BitPacker"},
	}
	var ratios []float64
	for _, c := range allConfigs() {
		bp, rc, err := pairStats(c, 28, hw)
		if err != nil {
			return nil, err
		}
		ratio := rc.Seconds / bp.Seconds
		ratios = append(ratios, ratio)
		res.Rows = append(res.Rows, []string{c.name(), f1(bp.Seconds * 1e3), f1(rc.Seconds * 1e3), f2(ratio)})
	}
	res.Rows = append(res.Rows, []string{"gmean", "", "", f2(gmean(ratios))})
	return res, nil
}

func runFig12(bool) (*Result, error) {
	hw := accel.CraterLake(28)
	res := &Result{
		ID:     "FIG12",
		Title:  "Energy at w=28, with level-management split (paper: gmean 59% lower, lvl-mgmt 6-7%)",
		Header: []string{"benchmark", "BP[mJ]", "BP lvl%", "RC[mJ]", "RC lvl%", "RC/BP", "EDP RC/BP"},
	}
	var ratios, edps []float64
	for _, c := range allConfigs() {
		bp, rc, err := pairStats(c, 28, hw)
		if err != nil {
			return nil, err
		}
		ratio := rc.TotalEnergyPJ() / bp.TotalEnergyPJ()
		edp := rc.EDP() / bp.EDP()
		ratios = append(ratios, ratio)
		edps = append(edps, edp)
		res.Rows = append(res.Rows, []string{
			c.name(),
			f1(bp.EnergyMJ()), fmt.Sprintf("%.1f%%", 100*bp.LevelMgmtPJ/bp.TotalEnergyPJ()),
			f1(rc.EnergyMJ()), fmt.Sprintf("%.1f%%", 100*rc.LevelMgmtPJ/rc.TotalEnergyPJ()),
			f2(ratio), f2(edp),
		})
	}
	res.Rows = append(res.Rows, []string{"gmean", "", "", "", "", f2(gmean(ratios)), f2(gmean(edps))})
	res.Notes = append(res.Notes, "paper: EDP improves 2.53x at 28-bit")
	return res, nil
}

// ---------------------------------------------------------------------------
// FIG14 / FIG15 / FIG16: word-size sweeps
// ---------------------------------------------------------------------------

func init() {
	register("fig14", "Execution time vs word size (paper Fig. 14)", runFig14)
	register("fig15", "RNS-CKKS slowdown vs word size (paper Fig. 15)", runFig15)
	register("fig16", "Time x area vs word size (paper Fig. 16)", runFig16)
}

func sweepWords(quick bool) []int {
	if quick {
		return []int{28, 36, 48, 64}
	}
	ws := []int{}
	for w := 28; w <= 64; w += 2 {
		ws = append(ws, w)
	}
	return ws
}

// sweepPoint is one (config, word) simulation pair.
type sweepPoint struct {
	bp, rc accel.Stats
}

func runSweep(quick bool) (map[int]map[string]sweepPoint, []int, error) {
	words := sweepWords(quick)
	out := map[int]map[string]sweepPoint{}
	for _, w := range words {
		out[w] = map[string]sweepPoint{}
		hw := accel.CraterLake(w)
		for _, c := range allConfigs() {
			bp, rc, err := pairStats(c, w, hw)
			if err != nil {
				return nil, nil, err
			}
			out[w][c.name()] = sweepPoint{bp: bp, rc: rc}
		}
	}
	return out, words, nil
}

func runFig14(quick bool) (*Result, error) {
	sweep, words, err := runSweep(quick)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "FIG14",
		Title:  "Execution time [ms] vs word size (BitPacker flat; RNS-CKKS peaks/valleys)",
		Header: []string{"benchmark", "scheme"},
	}
	for _, w := range words {
		res.Header = append(res.Header, fmt.Sprintf("w=%d", w))
	}
	for _, c := range allConfigs() {
		bpRow := []string{c.name(), "BitPacker"}
		rcRow := []string{"", "RNS-CKKS"}
		for _, w := range words {
			pt := sweep[w][c.name()]
			bpRow = append(bpRow, f1(pt.bp.Seconds*1e3))
			rcRow = append(rcRow, f1(pt.rc.Seconds*1e3))
		}
		res.Rows = append(res.Rows, bpRow, rcRow)
	}
	return res, nil
}

func runFig15(quick bool) (*Result, error) {
	sweep, words, err := runSweep(quick)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "FIG15",
		Title:  "RNS-CKKS slowdown vs BitPacker across word sizes (paper: 1.59x @28, 2.18x @64)",
		Header: []string{"word", "gmean", "max", "min"},
	}
	for _, w := range words {
		var rs []float64
		mx, mn := 0.0, math.Inf(1)
		for _, c := range allConfigs() {
			pt := sweep[w][c.name()]
			r := pt.rc.Seconds / pt.bp.Seconds
			rs = append(rs, r)
			if r > mx {
				mx = r
			}
			if r < mn {
				mn = r
			}
		}
		res.Rows = append(res.Rows, []string{fmt.Sprintf("%d", w), f2(gmean(rs)), f2(mx), f2(mn)})
	}
	return res, nil
}

func runFig16(quick bool) (*Result, error) {
	sweep, words, err := runSweep(quick)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "FIG16",
		Title:  "Gmean execution time x area, normalized to BitPacker at w=28 (paper Fig. 16)",
		Header: []string{"word", "area[mm2]", "BitPacker", "RNS-CKKS"},
	}
	// Baseline: BitPacker at 28 bits.
	base := 0.0
	{
		var vals []float64
		area := accel.CraterLake(28).AreaMM2()
		for _, c := range allConfigs() {
			vals = append(vals, sweep[28][c.name()].bp.Seconds*area)
		}
		base = gmean(vals)
	}
	for _, w := range words {
		area := accel.CraterLake(w).AreaMM2()
		var bpv, rcv []float64
		for _, c := range allConfigs() {
			pt := sweep[w][c.name()]
			bpv = append(bpv, pt.bp.Seconds*area)
			rcv = append(rcv, pt.rc.Seconds*area)
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", w), f1(area), f2(gmean(bpv) / base), f2(gmean(rcv) / base),
		})
	}
	res.Notes = append(res.Notes, "paper: RNS-CKKS at 64-bit has 2.5x worse perf/area than BitPacker at 28-bit")
	return res, nil
}

// ---------------------------------------------------------------------------
// FIG17: register-file size sweep
// ---------------------------------------------------------------------------

func init() {
	register("fig17", "Execution time vs register file size (paper Fig. 17)", runFig17)
}

func runFig17(quick bool) (*Result, error) {
	sizes := []float64{150, 175, 200, 225, 256, 300, 350}
	if quick {
		sizes = []float64{150, 200, 256, 350}
	}
	res := &Result{
		ID:     "FIG17",
		Title:  "Gmean execution time vs RF size at w=28, normalized to BitPacker @256MB",
		Header: []string{"RF[MB]", "BitPacker", "RNS-CKKS"},
	}
	run := func(rf float64, useBP bool) (float64, error) {
		hw := accel.CraterLake(28)
		hw.RegFileMB = rf
		var vals []float64
		for _, c := range allConfigs() {
			bpc, rcc, err := chainPair(c, 28)
			if err != nil {
				return 0, err
			}
			ch := rcc
			if useBP {
				ch = bpc
			}
			st, err := simulate(hw, ch, c)
			if err != nil {
				return 0, err
			}
			vals = append(vals, st.Seconds)
		}
		return gmean(vals), nil
	}
	base, err := run(256, true)
	if err != nil {
		return nil, err
	}
	for _, rf := range sizes {
		bp, err := run(rf, true)
		if err != nil {
			return nil, err
		}
		rc, err := run(rf, false)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{f1(rf), f2(bp / base), f2(rc / base)})
	}
	res.Notes = append(res.Notes,
		"paper: BitPacker flat to 200MB, ~1.7x at 150MB; RNS-CKKS plateaus only at 256MB, >3x at 150MB")
	return res, nil
}

// ---------------------------------------------------------------------------
// SEC61/SEC62/SEC63: EDP, SHARP comparison, area reduction
// ---------------------------------------------------------------------------

func init() {
	register("sec61", "EDP and 80-bit-security variant (paper Sec. 6.1)", runSec61)
	register("sec62", "SHARP-like 36-bit comparison (paper Sec. 6.2)", runSec62)
	register("sec63", "Area reduction and EDAP (paper Sec. 6.3)", runSec63)
}

func runSec61(bool) (*Result, error) {
	res := &Result{
		ID:     "SEC61",
		Title:  "EDP at 128-bit security (3-digit KS) and 80-bit security (2-digit KS)",
		Header: []string{"keyswitch", "gmean speedup", "gmean energy ratio", "gmean EDP ratio"},
	}
	for _, dnum := range []int{3, 2} {
		var sp, en, ed []float64
		hw := accel.CraterLake(28)
		for _, c := range allConfigs() {
			bpc, rcc, err := chainPair(c, 28)
			if err != nil {
				return nil, err
			}
			prog := workloads.BuildProgram(c.bench, c.bs)
			bp, err := accel.NewSimulator(hw, bpc, dnum).Run(prog)
			if err != nil {
				return nil, err
			}
			rc, err := accel.NewSimulator(hw, rcc, dnum).Run(prog)
			if err != nil {
				return nil, err
			}
			sp = append(sp, rc.Seconds/bp.Seconds)
			en = append(en, rc.TotalEnergyPJ()/bp.TotalEnergyPJ())
			ed = append(ed, rc.EDP()/bp.EDP())
		}
		label := fmt.Sprintf("%d-digit (128-bit sec)", dnum)
		if dnum == 2 {
			label = "2-digit (80-bit sec)"
		}
		res.Rows = append(res.Rows, []string{label, f2(gmean(sp)), f2(gmean(en)), f2(gmean(ed))})
	}
	res.Notes = append(res.Notes, "paper: 59% speedup/59% energy at 128-bit; 53%/63% at 80-bit; EDP 2.53x")
	return res, nil
}

func runSec62(bool) (*Result, error) {
	res := &Result{
		ID:     "SEC62",
		Title:  "BitPacker @28-bit vs SHARP-like RNS-CKKS @36-bit (paper: 43% faster, 2.2x EDP)",
		Header: []string{"benchmark", "BP@28[ms]", "RC@36[ms]", "speedup", "EDP ratio"},
	}
	var sp, ed []float64
	for _, c := range allConfigs() {
		bpc, _, err := chainPair(c, 28)
		if err != nil {
			return nil, err
		}
		_, rc36, err := chainPair(c, 36)
		if err != nil {
			return nil, err
		}
		bpStats, err := simulate(accel.CraterLake(28), bpc, c)
		if err != nil {
			return nil, err
		}
		rcStats, err := simulate(accel.CraterLake(36), rc36, c)
		if err != nil {
			return nil, err
		}
		s := rcStats.Seconds / bpStats.Seconds
		e := rcStats.EDP() / bpStats.EDP()
		sp = append(sp, s)
		ed = append(ed, e)
		res.Rows = append(res.Rows, []string{c.name(), f1(bpStats.Seconds * 1e3), f1(rcStats.Seconds * 1e3), f2(s), f2(e)})
	}
	res.Rows = append(res.Rows, []string{"gmean", "", "", f2(gmean(sp)), f2(gmean(ed))})
	return res, nil
}

func runSec63(bool) (*Result, error) {
	// BitPacker needs a smaller register file (200MB, Fig. 17) and a 28%
	// smaller CRB with no performance loss.
	baseArea := accel.CraterLake(28).AreaMM2()
	rfSave := 472 * 0.40 * 56 / 256 // 256MB -> 200MB slice of the 40% RF share
	crbArea := 127.0                // CRB is the largest FU: Rmax MACs per lane
	crbSave := 0.28 * crbArea
	newArea := baseArea - rfSave - crbSave

	// EDP at 28-bit from the Fig. 12 data.
	hw := accel.CraterLake(28)
	var ed []float64
	for _, c := range allConfigs() {
		bp, rc, err := pairStats(c, 28, hw)
		if err != nil {
			return nil, err
		}
		ed = append(ed, rc.EDP()/bp.EDP())
	}
	edp := gmean(ed)
	edap := edp * baseArea / newArea

	res := &Result{
		ID:     "SEC63",
		Title:  "Accelerator area reduction enabled by BitPacker (paper Sec. 6.3)",
		Header: []string{"metric", "value", "paper"},
		Rows: [][]string{
			{"baseline area [mm2]", f1(baseArea), "472.3"},
			{"register file saving [mm2]", f1(rfSave), "(256->200MB)"},
			{"CRB saving [mm2]", f1(crbSave), "(28% smaller CRB)"},
			{"BitPacker area [mm2]", f1(newArea), "395.5"},
			{"area reduction", fmt.Sprintf("%.0f%%", 100*(baseArea-newArea)/baseArea), "19%"},
			{"EDP ratio (RNS-CKKS/BitPacker)", f2(edp), "2.53"},
			{"EDAP ratio", f2(edap), "3.0"},
		},
	}
	return res, nil
}
