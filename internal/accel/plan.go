package accel

// Simulated per-operation times in microseconds at a bare residue count,
// exposed so the benchmark can set prediction beside measurement
// (accel.pred_* in BENCHMARK.json). A whole program on a real chain is
// priced by Simulator.Run (bitpacker.PlanProgram).
// All times come from the same cycle model the rest of the package uses:
// compute bounded by the busiest FU pipeline, memory overlapped.

// opMicros converts an opCost to simulated microseconds.
func (c Config) opMicros(o opCost) float64 {
	compute, mem := c.cycles(o)
	return max(compute, mem) / (c.FreqGHz * 1e3)
}

// ksFor builds the keyswitch configuration for residue count r with
// dnum-digit decomposition (alpha = ceil(r/dnum), matching HMulEnergy).
func ksFor(r, dnum int) KSConfig {
	if dnum <= 0 {
		dnum = 3
	}
	return KSConfig{Dnum: dnum, Alpha: (r + dnum - 1) / dnum}
}

// HMulMicros is one ciphertext-ciphertext multiply with relinearization
// at residue count r.
func HMulMicros(cfg Config, r, dnum int) float64 {
	return cfg.opMicros(cfg.hmulCost(r, ksFor(r, dnum)))
}

// HRotMicros is one homomorphic rotation at residue count r.
func HRotMicros(cfg Config, r, dnum int) float64 {
	return cfg.opMicros(cfg.hrotCost(r, ksFor(r, dnum)))
}
