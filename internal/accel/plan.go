package accel

// Shard-placement planning surface: simulated per-operation times in
// microseconds, exposed so the sharded-execution planner can predict a
// job's serial cost and the speedup a given shard partition should yield,
// and the benchmark can set prediction beside measurement (accel.pred_*
// and shard.predicted_speedup in BENCHMARK.json).
// All times come from the same cycle model the rest of the package uses:
// compute bounded by the busiest FU pipeline, memory overlapped.

// opMicros converts an opCost to simulated microseconds.
func (c Config) opMicros(o opCost) float64 {
	compute, mem := c.cycles(o)
	cyc := compute
	if mem > cyc {
		cyc = mem
	}
	return cyc / (c.FreqGHz * 1e3)
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

// HAddMicros is one ciphertext-ciphertext add at residue count r.
func HAddMicros(cfg Config, r int) float64 {
	return cfg.opMicros(cfg.haddCost(r))
}

// PMulMicros is one ciphertext-plaintext multiply at residue count r.
func PMulMicros(cfg Config, r int) float64 {
	return cfg.opMicros(cfg.pmulCost(r))
}

// PAddMicros is one ciphertext-plaintext add at residue count r.
func PAddMicros(cfg Config, r int) float64 {
	return cfg.opMicros(cfg.paddCost(r))
}
