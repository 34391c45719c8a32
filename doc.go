// Package bitpacker is a from-scratch Go implementation of BitPacker
// (Samardzic & Sanchez, ASPLOS 2024): a CKKS fully-homomorphic-encryption
// library whose RNS representation keeps ciphertext residues packed at the
// hardware word size, decoupling residue moduli from CKKS scales.
//
// The repository offers three things:
//
//   - This package: a working CKKS library (encode/encrypt/evaluate/
//     decrypt, rotations, hybrid keyswitching) with two interchangeable
//     level-management backends, classic RNS-CKKS and BitPacker. Create
//     one with New.
//
//   - An analytic model of a CraterLake-class FHE accelerator
//     (internal/accel), used to compare the two representations on the
//     paper's five benchmarks (cmd/accelsim). It belongs to the
//     reproduction: this package does not link it.
//
//   - The paper's full evaluation as runnable experiments: the
//     cmd/bpbench tool, whose functional experiments (Table 1, Figs 13,
//     18 and 19) are clients of this package. (Host timings of the
//     library itself are a separate module, bench/, declared in
//     BENCHMARK.json.)
//
// A minimal session:
//
//	ctx, err := bitpacker.New(bitpacker.Config{
//		Scheme:    bitpacker.BitPacker,
//		LogN:      12,
//		Levels:    4,
//		ScaleBits: 40,
//		WordBits:  28,
//	})
//	ct, _ := ctx.EncryptReal([]float64{1.5, 2.5})
//	sq, _ := ctx.MulRescale(ct, ct)
//	vals, _ := ctx.DecryptReal(sq)
//
// This is a research artifact reproducing a paper, not a production
// cryptosystem: randomness is deterministic per seed and parameters favor
// experiment speed over conservative security margins.
package bitpacker
