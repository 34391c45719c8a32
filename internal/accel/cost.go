package accel

// Component identifies where cycles/energy are spent.
type Component int

const (
	CompNTT Component = iota
	CompCRB
	CompMul
	CompAdd
	CompAuto
	CompRF
	CompHBM
	numComponents
)

// String names the component (for reports).
func (c Component) String() string {
	switch c {
	case CompNTT:
		return "NTT"
	case CompCRB:
		return "CRB"
	case CompMul:
		return "Mul"
	case CompAdd:
		return "Add"
	case CompAuto:
		return "Auto"
	case CompRF:
		return "RF"
	case CompHBM:
		return "HBM"
	}
	return "?"
}

// opCost aggregates the raw work of one macro-operation.
type opCost struct {
	nttElems  float64 // elements through NTT FUs
	crbMacs   float64 // multiply-accumulates in the CRB
	mulElems  float64 // elementwise multiplies
	addElems  float64 // elementwise adds
	autoElems float64 // elements permuted
	hbmBytes  float64 // off-chip traffic
}

func (a *opCost) add(b opCost) {
	a.nttElems += b.nttElems
	a.crbMacs += b.crbMacs
	a.mulElems += b.mulElems
	a.addElems += b.addElems
	a.autoElems += b.autoElems
	a.hbmBytes += b.hbmBytes
}

func (a opCost) scaled(f float64) opCost {
	return opCost{
		nttElems:  a.nttElems * f,
		crbMacs:   a.crbMacs * f,
		mulElems:  a.mulElems * f,
		addElems:  a.addElems * f,
		autoElems: a.autoElems * f,
		hbmBytes:  a.hbmBytes * f,
	}
}

// rfWords estimates register-file words moved: every FU element read two
// operands and wrote one.
func (a opCost) rfWords() float64 {
	return 3 * (a.nttElems + a.mulElems + a.addElems + a.autoElems + a.crbMacs)
}

// cycles returns the pipelined cycle bound: FU pipelines are decoupled, so
// compute time is bounded by the busiest unit; memory overlaps compute.
func (c Config) cycles(o opCost) (compute, mem float64) {
	lanes := float64(c.Lanes)
	per := []float64{
		o.nttElems / (lanes * float64(c.NumNTT)),
		o.crbMacs / (lanes * float64(c.CRBMacsPerLane)),
		o.mulElems / (lanes * float64(c.NumMul)),
		o.addElems / (lanes * float64(c.NumAdd)),
		o.autoElems / (lanes * float64(c.NumAuto)),
	}
	for _, v := range per {
		if v > compute {
			compute = v
		}
	}
	bytesPerCycle := c.HBMGBps / c.FreqGHz
	mem = o.hbmBytes / bytesPerCycle
	return compute, mem
}

// energy returns pJ per component for the op.
func (c Config) energy(o opCost) [numComponents]float64 {
	var e [numComponents]float64
	e[CompNTT] = o.nttElems * c.eNTT()
	e[CompCRB] = o.crbMacs * c.eMul()
	e[CompMul] = o.mulElems * c.eMul()
	e[CompAdd] = o.addElems * c.eAdd()
	e[CompAuto] = o.autoElems * c.eAuto()
	e[CompRF] = o.rfWords() * c.eRFWord()
	e[CompHBM] = o.hbmBytes * 8 * eHBMBit
	return e
}

// KSConfig describes the hybrid keyswitching the accelerator runs.
type KSConfig struct {
	// Dnum is the digit count (paper evaluates 1-3 digits; 3 at 128-bit
	// security).
	Dnum int
	// Alpha is the number of special primes: ceil(maxR/Dnum).
	Alpha int
}

// keySwitchCost returns the work of one hybrid keyswitch at residue count
// r (paper Sec. 4.2-4.3): O(r) NTTs and O(r^2) multiply-accumulates,
// encapsulated in the CRB.
func (c Config) keySwitchCost(r int, ks KSConfig) opCost {
	n := float64(c.N)
	d := ks.Dnum
	if d > r {
		d = r
	}
	rf, df, af := float64(r), float64(d), float64(ks.Alpha)
	rj := rf / df // per-digit source residues

	var o opCost
	// INTT of the input polynomial, per-digit extension NTTs, INTT of the
	// two accumulators, NTT of the two outputs.
	o.nttElems = n * (rf + df*(rf+af-rj) + 2*(rf+af) + 2*rf)
	// ModUp conversions plus the two ModDown conversions.
	o.crbMacs = n * (df*rj*(rf+af-rj) + 2*af*rf)
	// Inner products with the key, plus the final exact-division scaling.
	o.mulElems = n * (2*df*(rf+af) + 2*rf)
	o.addElems = n * (2*df*(rf+af) + 2*rf)
	// Keyswitching key traffic; KSHGen synthesizes hints on-chip from a
	// compact seed, eliminating nearly all of it (CraterLake Sec. 4.1).
	kskWords := 2 * df * (rf + af) * n
	factor := 1.0
	if c.KSHGen {
		factor = 0.05
	}
	o.hbmBytes = kskWords * c.BytesPerWord() * factor
	return o
}

// hmulCost is a homomorphic ciphertext-ciphertext multiply: the 4-multiply
// tensor product plus relinearization (one keyswitch).
func (c Config) hmulCost(r int, ks KSConfig) opCost {
	n := float64(c.N)
	o := opCost{
		mulElems: 4 * float64(r) * n,
		addElems: float64(r) * n,
	}
	o.add(c.keySwitchCost(r, ks))
	return o
}

// hrotCost is a homomorphic rotation: two automorphisms plus a keyswitch.
func (c Config) hrotCost(r int, ks KSConfig) opCost {
	n := float64(c.N)
	o := opCost{autoElems: 2 * float64(r) * n}
	o.add(c.keySwitchCost(r, ks))
	return o
}

// haddCost adds two ciphertexts.
func (c Config) haddCost(r int) opCost {
	return opCost{addElems: 2 * float64(r) * float64(c.N)}
}

// pmulCost multiplies a ciphertext by a plaintext.
func (c Config) pmulCost(r int) opCost {
	return opCost{mulElems: 2 * float64(r) * float64(c.N)}
}

// paddCost adds a plaintext to a ciphertext.
func (c Config) paddCost(r int) opCost {
	return opCost{addElems: float64(r) * float64(c.N)}
}

// rescaleCost moves a ciphertext down one level: optional scale-up by
// `up` introduced moduli (BitPacker), then scale-down shedding `down`
// moduli. r is the residue count at the source level. The CRB absorbs the
// basis-conversion multiply-accumulates, which is why shedding several
// moduli at once is nearly as fast as shedding one (paper Sec. 4.3).
func (c Config) rescaleCost(r, up, down int) opCost {
	n := float64(c.N)
	rUp := float64(r + up)
	kept := rUp - float64(down)
	var o opCost
	if up > 0 {
		o.mulElems += 2 * float64(r) * n // scaleUp mulConst on both polys
	}
	// Domain changes around the conversion.
	o.nttElems += n * (2*rUp + 2*kept)
	// Conversion of the shed residues into the kept basis, both polys.
	o.crbMacs += n * 2 * float64(down) * kept
	// Subtraction and multiplication by P^-1.
	o.addElems += n * 2 * kept
	o.mulElems += n * 2 * kept
	return o
}

// adjustCost is a constant multiplication followed by a rescale
// (Listings 2 and 6).
func (c Config) adjustCost(r, up, down int) opCost {
	n := float64(c.N)
	o := opCost{mulElems: 2 * float64(r) * n}
	o.add(c.rescaleCost(r, up, down))
	return o
}

// modRaiseCost raises a level-0 ciphertext to the top of the chain before
// bootstrapping (a scale-up: constant multiply plus zero residues).
func (c Config) modRaiseCost(rSrc, rDst int) opCost {
	n := float64(c.N)
	return opCost{
		mulElems: 2 * float64(rSrc) * n,
		nttElems: 2 * float64(rDst-rSrc) * n, // bring appended residues into NTT form
	}
}

// HMulBreakdown groups a homomorphic multiply's energy the way the
// paper's Fig. 10 plots it: register file, NTT, CRB, and elementwise
// units. Values in pJ.
type HMulBreakdown struct {
	RF, NTT, CRB, Elem, Total float64
}

// HMulEnergy returns the Fig. 10 breakdown for one homomorphic multiply
// at residue count r with dnum-digit keyswitching (alpha = ceil(r/dnum)).
func HMulEnergy(cfg Config, r, dnum int) HMulBreakdown {
	ks := KSConfig{Dnum: dnum, Alpha: (r + dnum - 1) / dnum}
	e := cfg.energy(cfg.hmulCost(r, ks))
	b := HMulBreakdown{
		RF:   e[CompRF],
		NTT:  e[CompNTT],
		CRB:  e[CompCRB],
		Elem: e[CompMul] + e[CompAdd] + e[CompAuto],
	}
	b.Total = b.RF + b.NTT + b.CRB + b.Elem + e[CompHBM]
	return b
}

// RescaleMicros returns the simulated time in microseconds of one rescale
// at residue count r with `up` introduced and `down` shed moduli. Exposed
// for the scaleDown-strategy ablation.
func RescaleMicros(cfg Config, r, up, down int) float64 {
	return cfg.opMicros(cfg.rescaleCost(r, up, down))
}
