package bitpacker

import (
	"fmt"
	"io"
	"strings"

	"bitpacker/internal/accel"
	"bitpacker/internal/core"
	"bitpacker/internal/experiments"
	"bitpacker/internal/workloads"
)

// SimStats summarizes one accelerator simulation.
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

// Workloads lists the benchmark names available to SimulateWorkload.
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
// model with the given representation and hardware word size.
func SimulateWorkload(benchmark, bootstrap string, scheme Scheme, wordBits int) (SimStats, error) {
	b, ok := workloads.BenchmarkByName(benchmark)
	if !ok {
		return SimStats{}, fmt.Errorf("bitpacker: unknown benchmark %q (have %s)", benchmark, strings.Join(Workloads(), ", "))
	}
	var bs workloads.BootstrapSpec
	found := false
	for _, cand := range workloads.Bootstraps() {
		if strings.EqualFold(cand.Name, bootstrap) {
			bs, found = cand, true
		}
	}
	if !found {
		return SimStats{}, fmt.Errorf("bitpacker: unknown bootstrap %q (have %s)", bootstrap, strings.Join(BootstrapAlgorithms(), ", "))
	}
	prog := workloads.ProgramSpec(b, bs)
	sec := core.SecuritySpec{LogN: 16}
	hw := core.HWSpec{WordBits: wordBits}
	var chain *core.Chain
	var err error
	if scheme == BitPacker {
		chain, err = core.BuildBitPacker(prog, sec, hw, core.Options{})
	} else {
		chain, err = core.BuildRNSCKKS(prog, sec, hw, core.Options{})
	}
	if err != nil {
		return SimStats{}, err
	}
	cfg := accel.CraterLake(wordBits)
	stats, err := accel.NewSimulator(cfg, chain, 3).Run(workloads.BuildProgram(b, bs))
	if err != nil {
		return SimStats{}, err
	}
	return SimStats{
		Milliseconds:     stats.Seconds * 1e3,
		EnergyMJ:         stats.EnergyMJ(),
		LevelMgmtPercent: 100 * stats.LevelMgmtPJ / stats.TotalEnergyPJ(),
		HBMGigabytes:     stats.HBMBytes / 1e9,
		AreaMM2:          cfg.AreaMM2(),
		EDP:              stats.EDP(),
		MeanResidues:     chain.MeanR(),
	}, nil
}

// DescribeChain renders a modulus chain level by level.
func DescribeChain(ch *core.Chain) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s chain, N=%d, word=%d bits, %d levels\n",
		ch.Scheme, ch.N, ch.WordBits, ch.MaxLevel()+1)
	for l := ch.MaxLevel(); l >= 0; l-- {
		lv := ch.Levels[l]
		fmt.Fprintf(&sb, "  L%-3d R=%-3d logQ=%7.1f  scale=2^%-6.2f  overhead=%4.1f%%  (%d non-terminal + %d terminal)\n",
			l, lv.R(), lv.QBits, core.RatLog2(lv.Scale), 100*ch.PackingOverhead(l), lv.NonTerminal, lv.Terminal)
	}
	fmt.Fprintf(&sb, "  special primes: %d\n", len(ch.Special))
	return sb.String()
}

// ExperimentIDs lists the reproducible paper experiments.
func ExperimentIDs() []string {
	var out []string
	for _, r := range experiments.Runners() {
		out = append(out, r.ID)
	}
	return out
}

// RunExperiment regenerates one of the paper's tables/figures, rendering a
// text table to w. Quick mode trims sample counts and sweep grids.
func RunExperiment(id string, quick bool, w io.Writer) error {
	r, ok := experiments.ByID(id)
	if !ok {
		return fmt.Errorf("bitpacker: unknown experiment %q (have %s)", id, strings.Join(ExperimentIDs(), ", "))
	}
	res, err := r.Run(quick)
	if err != nil {
		return err
	}
	res.Render(w)
	return nil
}
