package accel

import (
	"math"
	"testing"

	"bitpacker/internal/core"
	"bitpacker/internal/trace"
	"bitpacker/internal/workloads"
)

func TestCraterLakeIsoThroughput(t *testing.T) {
	ref := CraterLake(28)
	if ref.Lanes != 2048 {
		t.Fatalf("28-bit config should have 2048 lanes, got %d", ref.Lanes)
	}
	for _, w := range []int{30, 36, 48, 60, 64} {
		c := CraterLake(w)
		bits := c.Lanes * c.WordBits
		refBits := ref.Lanes * ref.WordBits
		if math.Abs(float64(bits-refBits))/float64(refBits) > 0.05 {
			t.Fatalf("w=%d: lanes*w=%d not iso-throughput vs %d", w, bits, refBits)
		}
	}
	// Paper Sec 6.2: 30-bit design has 56 CRB MACs/lane, 60-bit has 28.
	if got := CraterLake(30).CRBMacsPerLane; got != 56 {
		t.Fatalf("30-bit CRB MACs/lane = %d, want 56", got)
	}
	if got := CraterLake(60).CRBMacsPerLane; got != 28 {
		t.Fatalf("60-bit CRB MACs/lane = %d, want 28", got)
	}
}

func TestAreaAnchors(t *testing.T) {
	if a := CraterLake(28).AreaMM2(); math.Abs(a-472) > 1 {
		t.Fatalf("28-bit area %f, want 472", a)
	}
	if a := CraterLake(64).AreaMM2(); math.Abs(a-557) > 10 {
		t.Fatalf("64-bit area %f, want ~557", a)
	}
	small := CraterLake(28)
	small.RegFileMB = 200
	if a := small.AreaMM2(); a >= 472 || a < 400 {
		t.Fatalf("200MB RF area %f out of range", a)
	}
}

func TestEnergyScalesQuadraticallyWithWord(t *testing.T) {
	e28 := CraterLake(28).eMul()
	e56 := CraterLake(56).eMul()
	if r := e56 / e28; math.Abs(r-4) > 0.01 {
		t.Fatalf("doubling word size should 4x multiplier energy, got %fx", r)
	}
}

func TestHMulSuperlinearInR(t *testing.T) {
	cfg := CraterLake(28)
	var energies []float64
	for _, r := range []int{15, 30, 60} {
		ks := KSConfig{Dnum: 3, Alpha: (r + 2) / 3}
		e := cfg.energy(cfg.hmulCost(r, ks))
		tot := 0.0
		for _, v := range e {
			tot += v
		}
		energies = append(energies, tot)
	}
	// Paper Sec 4.2: energy grows ~R^1.6 — superlinear, sub-quadratic.
	g1 := math.Log2(energies[1] / energies[0])
	g2 := math.Log2(energies[2] / energies[1])
	for _, g := range []float64{g1, g2} {
		if g < 1.15 || g > 2.0 {
			t.Fatalf("hmul energy growth exponent %.2f out of (1.15,2.0): %v", g, energies)
		}
	}
}

func TestEnergyBreakdownDominatedByNTTandCRB(t *testing.T) {
	// Paper Fig. 10: the CRB and NTT FUs dominate energy.
	cfg := CraterLake(28)
	ks := KSConfig{Dnum: 3, Alpha: 20}
	e := cfg.energy(cfg.hmulCost(50, ks))
	tot := 0.0
	for _, v := range e {
		tot += v
	}
	if frac := (e[CompNTT] + e[CompCRB]) / tot; frac < 0.45 {
		t.Fatalf("NTT+CRB fraction %.2f, want > 0.45", frac)
	}
	// CRB grows quadratically with R, NTT linearly: their ratio must grow.
	e2 := cfg.energy(cfg.hmulCost(25, ks))
	if e[CompCRB]/e[CompNTT] <= e2[CompCRB]/e2[CompNTT] {
		t.Fatal("CRB/NTT ratio should grow with R")
	}
}

func TestRescaleCheapRelativeToHMul(t *testing.T) {
	cfg := CraterLake(28)
	ks := KSConfig{Dnum: 3, Alpha: 20}
	r := 40
	eh := cfg.energy(cfg.hmulCost(r, ks))
	er := cfg.energy(cfg.rescaleCost(r, 2, 3))
	th, tr := 0.0, 0.0
	for i := range eh {
		th += eh[i]
		tr += er[i]
	}
	if tr > th/3 {
		t.Fatalf("rescale energy %.0f not small vs hmul %.0f", tr, th)
	}
}

func buildChains(t testing.TB, b workloads.Benchmark, bs workloads.BootstrapSpec, w int) (bp, rc *core.Chain) {
	t.Helper()
	prog := workloads.ProgramSpec(b, bs)
	sec := core.SecuritySpec{LogN: 16}
	hw := core.HWSpec{WordBits: w}
	opts := core.Options{SpecialPrimes: 0}
	var err error
	bp, err = core.BuildBitPacker(prog, sec, hw, opts)
	if err != nil {
		t.Fatalf("BitPacker chain %s/%s w=%d: %v", b.Name, bs.Name, w, err)
	}
	rc, err = core.BuildRNSCKKS(prog, sec, hw, opts)
	if err != nil {
		t.Fatalf("RNS-CKKS chain %s/%s w=%d: %v", b.Name, bs.Name, w, err)
	}
	return bp, rc
}

func TestSimulatorBitPackerWins28(t *testing.T) {
	// The headline result (Fig. 11): at 28-bit words BitPacker beats
	// RNS-CKKS on every benchmark.
	cfg := CraterLake(28)
	for _, b := range workloads.Benchmarks() {
		for _, bs := range workloads.Bootstraps() {
			bp, rc := buildChains(t, b, bs, 28)
			prog := workloads.BuildProgram(b, bs)
			sBP, err := NewSimulator(cfg, bp, 3).Run(prog)
			if err != nil {
				t.Fatal(err)
			}
			sRC, err := NewSimulator(cfg, rc, 3).Run(prog)
			if err != nil {
				t.Fatal(err)
			}
			if sBP.Seconds >= sRC.Seconds {
				t.Errorf("%s/%s: BitPacker %.1fms not faster than RNS-CKKS %.1fms",
					b.Name, bs.Name, sBP.Seconds*1e3, sRC.Seconds*1e3)
			}
			if sBP.EnergyMJ() >= sRC.EnergyMJ() {
				t.Errorf("%s/%s: BitPacker energy %.1fmJ not lower than %.1fmJ",
					b.Name, bs.Name, sBP.EnergyMJ(), sRC.EnergyMJ())
			}
		}
	}
}

func TestLevelManagementFractionSmall(t *testing.T) {
	// Paper Fig. 12: level management is 6-7% of energy.
	cfg := CraterLake(28)
	b, _ := workloads.BenchmarkByName("ResNet-20")
	bp, rc := buildChains(t, b, workloads.BS19, 28)
	prog := workloads.BuildProgram(b, workloads.BS19)
	for name, ch := range map[string]*core.Chain{"bp": bp, "rc": rc} {
		st, err := NewSimulator(cfg, ch, 3).Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		frac := st.LevelMgmtPJ / st.TotalEnergyPJ()
		if frac <= 0.005 || frac > 0.25 {
			t.Fatalf("%s: level management fraction %.3f out of plausible range", name, frac)
		}
	}
}

func TestRegisterFilePressure(t *testing.T) {
	// Fig. 17: shrinking the register file hurts, and hurts RNS-CKKS
	// (bigger ciphertexts) more than BitPacker.
	b, _ := workloads.BenchmarkByName("ResNet-20")
	bp, rc := buildChains(t, b, workloads.BS19, 28)
	prog := workloads.BuildProgram(b, workloads.BS19)

	run := func(ch *core.Chain, rfMB float64) float64 {
		cfg := CraterLake(28)
		cfg.RegFileMB = rfMB
		st, err := NewSimulator(cfg, ch, 3).Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		return st.Seconds
	}
	slowBP := run(bp, 150) / run(bp, 256)
	slowRC := run(rc, 150) / run(rc, 256)
	if slowRC <= slowBP {
		t.Fatalf("RNS-CKKS RF slowdown %.2f should exceed BitPacker's %.2f", slowRC, slowBP)
	}
	if slowRC < 1.05 {
		t.Fatalf("RNS-CKKS should suffer at 150MB, got %.2fx", slowRC)
	}
}

func TestSimulatorErrors(t *testing.T) {
	b, _ := workloads.BenchmarkByName("LogReg")
	bp, _ := buildChains(t, b, workloads.BS19, 32)
	sim := NewSimulator(CraterLake(32), bp, 3)
	_, err := sim.Run(&trace.Program{Groups: []trace.Group{{Kind: trace.HMul, Level: 99, Count: 1}}})
	if err == nil {
		t.Fatal("out-of-range level accepted")
	}
}

// TestSimulatorLongerProgramCostsMore: every group appended to a program
// adds simulated time — here a six-step program's lowering (multiplies,
// rescales, a plaintext multiply, adds) from the top of both chains.
func TestSimulatorLongerProgramCostsMore(t *testing.T) {
	b, _ := workloads.BenchmarkByName("LogReg")
	bp, rc := buildChains(t, b, workloads.BS19, 28)
	for name, ch := range map[string]*core.Chain{"bp": bp, "rc": rc} {
		top := ch.MaxLevel()
		groups := []trace.Group{
			{Kind: trace.HMul, Level: top, Count: 1}, {Kind: trace.Rescale, Level: top, Count: 1},
			{Kind: trace.PMul, Level: top - 1, Count: 1}, {Kind: trace.Rescale, Level: top - 1, Count: 1},
			{Kind: trace.PAdd, Level: top - 2, Count: 1},
			{Kind: trace.HMul, Level: top - 2, Count: 1}, {Kind: trace.Rescale, Level: top - 2, Count: 1},
			{Kind: trace.PAdd, Level: top - 3, Count: 1},
			{Kind: trace.PAdd, Level: top - 3, Count: 1},
		}
		prev := 0.0
		for k := 1; k <= len(groups); k++ {
			st, err := NewSimulator(CraterLake(28), ch, 3).Run(&trace.Program{Groups: groups[:k]})
			if err != nil {
				t.Fatal(err)
			}
			if st.Seconds <= prev {
				t.Fatalf("%s: %d groups simulated at %g s, %d groups at %g", name, k, st.Seconds, k-1, prev)
			}
			prev = st.Seconds
		}
	}
}

func TestStatsAggregation(t *testing.T) {
	b, _ := workloads.BenchmarkByName("SqueezeNet")
	bp, _ := buildChains(t, b, workloads.BS19, 28)
	prog := workloads.BuildProgram(b, workloads.BS19)
	st, err := NewSimulator(CraterLake(28), bp, 3).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seconds <= 0 || st.Cycles <= 0 || st.TotalEnergyPJ() <= 0 {
		t.Fatal("empty stats")
	}
	if st.EDP() <= 0 {
		t.Fatal("EDP not positive")
	}
	want := prog.TotalOps()
	for k, n := range want {
		if st.OpCounts[k] != n {
			t.Fatalf("op count %v: %d vs %d", k, st.OpCounts[k], n)
		}
	}
}
