package accel

import (
	"fmt"

	"bitpacker/internal/core"
	"bitpacker/internal/trace"
)

// Stats is the result of simulating a program.
type Stats struct {
	// Cycles and Seconds of execution (memory overlapped with compute;
	// each macro-op is bounded by the slower of the two).
	Cycles  float64
	Seconds float64
	// EnergyPJ per component, and the total.
	EnergyPJ [numComponents]float64
	// LevelMgmtPJ is the slice of the energy spent in rescale/adjust
	// (paper Fig. 12's red segment).
	LevelMgmtPJ float64
	// HBMBytes is total off-chip traffic.
	HBMBytes float64
	// OpCounts per kind.
	OpCounts map[trace.Kind]int
}

// TotalEnergyPJ sums all components.
func (s Stats) TotalEnergyPJ() float64 {
	t := 0.0
	for _, e := range s.EnergyPJ {
		t += e
	}
	return t
}

// EnergyMJ returns total energy in millijoules.
func (s Stats) EnergyMJ() float64 { return s.TotalEnergyPJ() / 1e9 }

// Component returns one component's energy in pJ.
func (s Stats) Component(c Component) float64 { return s.EnergyPJ[c] }

// EDP returns the energy-delay product (J*s).
func (s Stats) EDP() float64 { return s.TotalEnergyPJ() / 1e12 * s.Seconds }

// Simulator executes trace programs against one chain + configuration.
type Simulator struct {
	Cfg   Config
	Chain *core.Chain
	KS    KSConfig

	// trCache caches level transitions.
	trCache map[int]core.Transition
}

// NewSimulator builds a simulator. The keyswitch digit count defaults to
// 3 (the paper's 128-bit-security setting) and alpha to ceil(maxR/dnum).
func NewSimulator(cfg Config, chain *core.Chain, dnum int) *Simulator {
	if dnum <= 0 {
		dnum = 3
	}
	maxR := 0
	for _, l := range chain.Levels {
		if l.R() > maxR {
			maxR = l.R()
		}
	}
	return &Simulator{
		Cfg:     cfg,
		Chain:   chain,
		KS:      KSConfig{Dnum: dnum, Alpha: (maxR + dnum - 1) / dnum},
		trCache: map[int]core.Transition{},
	}
}

func (s *Simulator) transition(level int) core.Transition {
	if tr, ok := s.trCache[level]; ok {
		return tr
	}
	tr := s.Chain.TransitionDown(level)
	s.trCache[level] = tr
	return tr
}

// groupCost returns the per-op cost of one group member and whether it is
// a level-management op.
func (s *Simulator) groupCost(g trace.Group) (opCost, bool, error) {
	if g.Level < 0 || g.Level > s.Chain.MaxLevel() {
		return opCost{}, false, fmt.Errorf("accel: group level %d out of range", g.Level)
	}
	r := s.Chain.Levels[g.Level].R()
	switch g.Kind {
	case trace.HMul:
		return s.Cfg.hmulCost(r, s.KS), false, nil
	case trace.HAdd:
		return s.Cfg.haddCost(r), false, nil
	case trace.HRotate:
		return s.Cfg.hrotCost(r, s.KS), false, nil
	case trace.PMul:
		return s.Cfg.pmulCost(r), false, nil
	case trace.PAdd:
		return s.Cfg.paddCost(r), false, nil
	case trace.Rescale:
		tr := s.transition(g.Level)
		return s.Cfg.rescaleCost(r, len(tr.Up), len(tr.Down)), true, nil
	case trace.Adjust:
		tr := s.transition(g.Level)
		return s.Cfg.adjustCost(r, len(tr.Up), len(tr.Down)), true, nil
	case trace.ModRaise:
		top := s.Chain.Levels[s.Chain.MaxLevel()].R()
		return s.Cfg.modRaiseCost(r, top), true, nil
	}
	return opCost{}, false, fmt.Errorf("accel: unknown op kind %v", g.Kind)
}

// spillFraction models register-file pressure (Fig. 17): when the working
// set exceeds the register file, a growing fraction of operands stream
// from HBM instead.
func (s *Simulator) spillFraction(prog *trace.Program) float64 {
	if prog.LiveCiphertexts <= 0 {
		return 0
	}
	// The working set peaks during bootstrapping, at the top level's
	// residue count.
	topR := s.Chain.Levels[s.Chain.MaxLevel()].R()
	wsBytes := float64(prog.LiveCiphertexts) * s.Cfg.CiphertextBytes(topR)
	rfBytes := s.Cfg.RegFileMB * 1e6
	if wsBytes <= rfBytes {
		return 0
	}
	f := (wsBytes - rfBytes) / wsBytes
	if f > 1 {
		f = 1
	}
	return f
}

// Run simulates the program and returns aggregate statistics.
func (s *Simulator) Run(prog *trace.Program) (Stats, error) {
	stats := Stats{OpCounts: map[trace.Kind]int{}}
	spill := s.spillFraction(prog)
	for _, g := range prog.Groups {
		cost, isLvl, err := s.groupCost(g)
		if err != nil {
			return Stats{}, err
		}
		// Operand spills: keyswitching ops stream roughly 1.5 ciphertext
		// equivalents from HBM when the working set overflows the RF.
		if spill > 0 && (g.Kind == trace.HMul || g.Kind == trace.HRotate) {
			r := s.Chain.Levels[g.Level].R()
			cost.hbmBytes += spill * 1.5 * s.Cfg.CiphertextBytes(r)
		}
		total := cost.scaled(float64(g.Count))
		compute, mem := s.Cfg.cycles(total)
		stats.Cycles += max(compute, mem)
		e := s.Cfg.energy(total)
		var opE float64
		for c, v := range e {
			stats.EnergyPJ[c] += v
			opE += v
		}
		if isLvl {
			stats.LevelMgmtPJ += opE
		}
		stats.HBMBytes += total.hbmBytes
		stats.OpCounts[g.Kind] += g.Count
	}
	stats.Seconds = stats.Cycles / (s.Cfg.FreqGHz * 1e9)
	return stats, nil
}
