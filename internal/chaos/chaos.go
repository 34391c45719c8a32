// Package chaos is the fault-injection harness: deterministic, seedable
// injectors that corrupt ciphertexts and the execution engine the way
// real faults would (bit flips in residue words, lost accelerator jobs,
// out-of-band metadata mutation), paired with tests proving that every
// injected fault class is caught by the library's guards — Validate's
// invariant checks, the metadata tamper tag, or the engine's
// completeness accounting — before a corrupted result reaches
// decryption.
//
// Injectors mutate state out-of-band on purpose: they model faults, not
// API misuse, so they bypass the library's bookkeeping exactly like a
// DRAM bit flip or a dropped DMA descriptor would.
package chaos

import (
	"math/big"
	"math/rand/v2"
	"sync/atomic"

	"bitpacker/internal/ckks"
	"bitpacker/internal/engine"
)

// Injector produces deterministic faults from a seed; the same seed
// yields the same fault sequence, so failures replay exactly.
type Injector struct {
	rng *rand.Rand
}

// New builds an injector for the seed.
func New(seed uint64) *Injector {
	return &Injector{rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Fault identifies an injected fault for test diagnostics.
type Fault struct {
	Kind    string // "residue-word", "scale-ulp", "drop-task"
	Poly    int    // 0 = C0, 1 = C1 (residue-word only)
	Residue int    // residue index (residue-word only)
	Coeff   int    // coefficient index (residue-word only)
}

// CorruptResidueWord flips the top bit of one uniformly chosen residue
// word of the ciphertext, taking it out of [0, q) — the signature of an
// uncorrected memory fault in a residue lane. Returns where the fault
// landed. Validate must report ErrInvariant for the coefficient range.
func (in *Injector) CorruptResidueWord(ct *ckks.Ciphertext) Fault {
	polys := [...][][]uint64{ct.C0.Coeffs, ct.C1.Coeffs}
	pi := in.rng.IntN(2)
	ri := in.rng.IntN(len(polys[pi]))
	ci := in.rng.IntN(len(polys[pi][ri]))
	polys[pi][ri][ci] ^= 1 << 63
	return Fault{Kind: "residue-word", Poly: pi, Residue: ri, Coeff: ci}
}

// SkewScaleULP multiplies the ciphertext's scale by (2^52+1)/2^52 — a
// one-ulp relative skew, far below the 2^-20 tolerance scale comparisons
// forgive. Only the metadata tamper tag can see it: Validate must report
// ErrInvariant for the tag mismatch.
func (in *Injector) SkewScaleULP(ct *ckks.Ciphertext) Fault {
	ct.Scale.Mul(ct.Scale, big.NewRat((1<<52)+1, 1<<52))
	return Fault{Kind: "scale-ulp"}
}

// SkewNoiseEstimate zeroes the ciphertext's noise bookkeeping — the
// fault mode where an attacker (or a bug) launders a noise-exhausted
// ciphertext into looking fresh. The metadata tag catches it.
func (in *Injector) SkewNoiseEstimate(ct *ckks.Ciphertext) Fault {
	ct.NoiseBits = 0
	return Fault{Kind: "noise-estimate"}
}

// DropEngineTask installs an engine fault hook that silently drops one
// task index of the next dispatches (modeling a lost accelerator job)
// and returns a restore function. While installed, any DispatchCtx whose
// index space includes task reports ErrEngineFault instead of returning
// a silently incomplete result.
func (in *Injector) DropEngineTask(task int) (restore func()) {
	engine.SetFaultHook(func(t int) bool { return t == task })
	return func() { engine.SetFaultHook(nil) }
}

// DropRandomEngineTask drops one task chosen in [0, n).
func (in *Injector) DropRandomEngineTask(n int) (task int, restore func()) {
	task = in.rng.IntN(n)
	return task, in.DropEngineTask(task)
}

// Burst installs an engine fault hook that drops the given task for the
// next n dispatches that include it, then deactivates itself — a burst
// of correlated transient faults (a flaky lane, a brown-out) rather than
// a single glitch. A retry budget larger than n heals it transparently;
// a smaller one exhausts into ErrFaultUnrecovered. Returns the live
// count of drops still pending and a restore function that uninstalls
// the hook (idempotent; safe to call after the burst self-cleared).
func (in *Injector) Burst(task, n int) (remaining func() int, restore func()) {
	var left atomic.Int64
	left.Store(int64(n))
	engine.SetFaultHook(func(t int) bool {
		if t != task {
			return false
		}
		for {
			v := left.Load()
			if v <= 0 {
				return false
			}
			if left.CompareAndSwap(v, v-1) {
				return true
			}
		}
	})
	return func() int { return int(left.Load()) },
		func() { engine.SetFaultHook(nil) }
}
