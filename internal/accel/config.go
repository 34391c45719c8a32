// Package accel models a CraterLake-class FHE accelerator (paper Sec. 4
// and 5): a wide-vector processor with modular multiplier/adder FUs, NTT
// units, an automorphism unit, a change-RNS-base (CRB) unit, a keyswitch
// hint generator (KSHGen), a large register file, and HBM.
//
// This replaces the paper's cycle-accurate simulator + RTL synthesis with
// an analytic cycle/energy/area model. The quantities that drive every
// result — how many residues each level carries, how much work each
// homomorphic op does as a function of R, and how energy scales with the
// word size — are modeled explicitly; absolute numbers are calibrated to
// the published CraterLake anchor points (472 mm² at 28 bits, 557 mm² at
// 64 bits, ~mJ-scale homomorphic multiplies).
package accel

// Config describes one accelerator instance.
type Config struct {
	// WordBits is the datapath word size w.
	WordBits int
	// Lanes is the vector width. Iso-throughput scaling keeps
	// Lanes*WordBits constant across word sizes (Sec. 6.2).
	Lanes int
	// FreqGHz is the clock frequency.
	FreqGHz float64
	// RegFileMB is the on-chip register file capacity.
	RegFileMB float64
	// HBMGBps is the off-chip memory bandwidth.
	HBMGBps float64
	// FU counts (CraterLake: 5 multipliers, 5 adders, 2 NTTs, 1
	// automorphism unit, 1 CRB, KSHGen).
	NumMul, NumAdd, NumNTT, NumAuto int
	// CRBMacsPerLane is the number of multiply-accumulate units per CRB
	// lane; iso-throughput scaling reduces it linearly with word size
	// (56 MACs/lane at 30 bits, 28 at 60 bits).
	CRBMacsPerLane int
	// KSHGen, when true, generates keyswitch hints on chip, cutting
	// keyswitching-key HBM traffic (CraterLake and SHARP have it, ARK
	// does not).
	KSHGen bool
	// N is the ring degree the accelerator operates on.
	N int
}

// CraterLake returns the paper's default configuration scaled to the
// given word size with iso-throughput lane scaling.
func CraterLake(wordBits int) Config {
	return Config{
		WordBits:       wordBits,
		Lanes:          2048 * 28 / wordBits,
		FreqGHz:        1.0,
		RegFileMB:      256,
		HBMGBps:        1000,
		NumMul:         5,
		NumAdd:         5,
		NumNTT:         2,
		NumAuto:        1,
		CRBMacsPerLane: 1680 / wordBits,
		KSHGen:         true,
		N:              1 << 16,
	}
}

// Energy constants, picojoules per element operation at the reference
// 28-bit word, 12/14nm class. Multiplier energy grows quadratically with
// word width, adder/permutation energy linearly, data movement with bits
// moved. An NTT butterfly stage costs ~16x an elementwise multiply
// (paper Sec. 4.2).
const (
	eMulRef  = 1.0  // pJ per 28-bit modular multiply
	eAddRef  = 0.1  // pJ per 28-bit modular add
	eAutoRef = 0.05 // pJ per 28-bit element permuted
	nttRatio = 16.0 // NTT element cost relative to one multiply
	eRFBit   = 0.02 // pJ per RF bit accessed
	eHBMBit  = 0.2  // pJ per HBM bit transferred
)

// eMul returns pJ for one w-bit modular multiply.
func (c Config) eMul() float64 {
	r := float64(c.WordBits) / 28
	return eMulRef * r * r
}

func (c Config) eAdd() float64  { return eAddRef * float64(c.WordBits) / 28 }
func (c Config) eAuto() float64 { return eAutoRef * float64(c.WordBits) / 28 }
func (c Config) eNTT() float64  { return nttRatio * c.eMul() }
func (c Config) eRFWord() float64 {
	return eRFBit * float64(c.WordBits)
}

// AreaMM2 returns die area. Anchored to CraterLake's published numbers:
// 472 mm² at 28-bit words and 557 mm² at 64-bit under iso-throughput
// scaling (the word-scaled slice — chiefly NTT multipliers — is ~14% of
// the die at 28 bits).
func (c Config) AreaMM2() float64 {
	base := 472.0
	wordScaled := 0.14
	area := base * ((1 - wordScaled) + wordScaled*float64(c.WordBits)/28)
	// Register file: 40% of the 28-bit die (189 mm² at 256 MB), linear
	// in capacity.
	if c.RegFileMB != 256 {
		area += 472 * 0.40 * (c.RegFileMB - 256) / 256
	}
	return area
}

// BytesPerWord returns the packed storage footprint of one residue word.
func (c Config) BytesPerWord() float64 { return float64(c.WordBits) / 8 }

// CiphertextBytes returns the footprint of a 2-polynomial ciphertext with
// R residues.
func (c Config) CiphertextBytes(r int) float64 {
	return 2 * float64(r) * float64(c.N) * c.BytesPerWord()
}
