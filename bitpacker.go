package bitpacker

import (
	"context"
	"math"
	"math/big"

	"bitpacker/internal/ckks"
	"bitpacker/internal/core"
	"bitpacker/internal/engine"
	"bitpacker/internal/fherr"
	"bitpacker/internal/ring"
	"bitpacker/internal/security"
)

// SetWorkers sets the process-wide worker count of the polynomial
// execution engine: homomorphic operations fan their independent RNS
// residues across this many CPU workers. n <= 0 restores the default
// (the BITPACKER_WORKERS environment variable, then GOMAXPROCS).
// Workers()==1 reproduces sequential execution bit-for-bit.
func SetWorkers(n int) { engine.SetWorkers(n) }

// Workers reports the execution engine's effective worker count.
func Workers() int { return engine.Workers() }

// Scheme selects the RNS representation.
type Scheme = core.Scheme

// The two representations the paper compares.
const (
	// RNSCKKS is the classic baseline: residue moduli sized to scales.
	RNSCKKS = core.RNSCKKS
	// BitPacker packs residues at the hardware word size (the paper's
	// contribution).
	BitPacker = core.BitPacker
)

// Config describes an FHE context.
type Config struct {
	// Scheme selects RNSCKKS or BitPacker level management.
	Scheme Scheme
	// LogN is log2 of the ring degree (ciphertexts hold 2^(LogN-1) slots).
	LogN int
	// Levels is the multiplicative depth.
	Levels int
	// ScaleBits is the CKKS scale at every level. For a per-level
	// schedule, set ScaleSchedule instead (length Levels+1, level 0
	// first).
	ScaleBits float64
	// ScaleSchedule optionally gives each level its own target scale.
	ScaleSchedule []float64
	// WordBits is the hardware word size the representation packs to
	// (28..64; functional arithmetic caps moduli at 61 bits).
	WordBits int
	// QMinBits is the level-0 modulus width. Defaults to ScaleBits+20.
	QMinBits float64
	// SecurityBits, when nonzero, validates the parameters against the
	// HE-standard tables (e.g. 128).
	SecurityBits float64
	// KeySwitchDigits is the hybrid keyswitching digit count (default 3).
	KeySwitchDigits int
	// Rotations lists the slot rotations to generate Galois keys for.
	Rotations []int
	// Conjugation adds the conjugation key.
	Conjugation bool
	// Seed makes all randomness reproducible (default 1).
	Seed uint64
	// Sigma is the encryption noise stddev (default 3.2).
	Sigma float64
	// SparseSecretWeight, when nonzero, samples the secret with this
	// Hamming weight instead of dense ternary (bootstrapping needs a
	// sparse secret to keep the ModRaise overflow small).
	SparseSecretWeight int
	// Bootstrap, when set, precomputes a functional bootstrapper at
	// context creation; the DFT rotation keys (and conjugation) are
	// generated automatically. Use Refresh to bootstrap.
	Bootstrap *BootstrapOptions
	// Workers, when nonzero, sets the process-wide execution-engine
	// worker count at context creation (equivalent to calling
	// SetWorkers). The engine is shared by every context in the process;
	// 1 forces sequential execution.
	Workers int
	// CheckInvariants validates ciphertext structural invariants (level,
	// residues, scale, NTT domain, metadata tag, coefficient ranges) at
	// every evaluator entry point. O(R*N) per operation; also enabled by
	// the BITPACKER_CHECK_INVARIANTS environment variable.
	CheckInvariants bool
	// NoiseGuardBits, when nonzero, makes operations fail with
	// ErrNoiseBudget once a result's estimated noise budget (log2 scale
	// minus estimated noise bits) drops below this threshold. The error
	// carries a suggested action (rescale, adjust, or bootstrap).
	NoiseGuardBits float64
	// RedundantResidue reserves one spare NTT-friendly prime alongside
	// the live modulus chain and carries every ciphertext's residues mod
	// that prime as a redundant check channel (RRNS). The channel is
	// cross-checked against an exact CRT projection of the live residues
	// at rescale boundaries — catching corruption that stays inside
	// coefficient range, invisible to CheckInvariants — and repairs a
	// single corrupted residue in place without decryption. Off by
	// default; the default chains are byte-identical with it off.
	RedundantResidue bool
	// KeyCacheBytes, when nonzero, replaces eager key generation with a
	// budgeted key cache: switching keys (relinearization, rotations,
	// bootstrap Galois keys) are generated lazily from the secret key on
	// first use and their resident footprint is kept within this soft
	// byte budget by demoting cold keys to seed-compressed form (only
	// the B half resident; the uniform A half regenerated on demand
	// inside the keyswitch) and then evicting them entirely. Rotations
	// and Conjugation become optional hints — any rotation can be served
	// on demand without ErrMissingKey — and long-running plans (BSGS
	// transforms, hoisted rotation batches) pin their whole key demand
	// up front so the working set streams in once and stays resident.
	// Results are bit-identical to the eager dense path. Inspect the
	// cache with Context.KeyCacheStats; pre-warm and pin a plan's
	// rotations with Context.PinRotations.
	KeyCacheBytes int64
	// CompressKeys stores the eagerly generated switching keys (and the
	// public key) seed-compressed: the uniform A half of every key digit
	// is replaced by the 16-byte seed it was expanded from, roughly
	// halving resident key memory; keyswitch kernels regenerate A rows
	// from the seed inside the fused dispatch, bit-identical to the
	// dense path. Ignored when KeyCacheBytes is set (the cache manages
	// compression itself).
	CompressKeys bool
	// Retry, when non-nil, re-dispatches operations that fail with a
	// detected fault (ErrInvariant, ErrEngineFault) from their retained
	// inputs, with exponential backoff, until the policy's attempt
	// budget is spent — then the operation fails with
	// ErrFaultUnrecovered wrapping the last cause. A run of consecutive
	// unrecovered operations opens a circuit breaker (ErrCircuitOpen).
	// Cancellation always wins over retry: a canceled context returns
	// ErrCanceled immediately.
	Retry *RetryPolicy
}

// RetryPolicy tunes op-level fault recovery (see Config.Retry).
type RetryPolicy = engine.RetryPolicy

// BootstrapOptions configures functional bootstrapping (see
// Context.Refresh). Demonstration-grade: the chain must provide
// ChebyshevDepth(SineDegree)+3 levels and the secret must satisfy
// (SparseSecretWeight+1)/2 <= KRange.
type BootstrapOptions struct {
	// KRange bounds the ModRaise overflow (default 2).
	KRange int
	// SineDegree is the Chebyshev degree of the sine approximation
	// (default 19).
	SineDegree int
}

// Context owns the keys and engines for one parameter set.
type Context struct {
	cfg     Config
	params  *ckks.Parameters
	encoder *ckks.Encoder
	sk      *ckks.SecretKey
	pk      *ckks.PublicKey
	enc     *ckks.Encryptor
	dec     *ckks.Decryptor
	eval    *ckks.Evaluator
	keys    *ckks.EvaluationKeySet // eager key set; nil under KeyCacheBytes
	km      *ckks.KeyManager       // budgeted key cache; nil unless KeyCacheBytes
	boot    *ckks.Bootstrapper
	retrier *engine.Retrier
	ctx     context.Context // from WithContext; nil means Background
}

// Ciphertext is an encrypted vector at some level of the modulus chain.
type Ciphertext struct {
	ct *ckks.Ciphertext
}

// Level returns the ciphertext's current level.
func (c *Ciphertext) Level() int { return c.ct.Level }

// Residues returns the number of RNS residues (the paper's R) — the
// quantity BitPacker minimizes.
func (c *Ciphertext) Residues() int { return c.ct.R() }

// ScaleLog2 returns log2 of the ciphertext's scale.
func (c *Ciphertext) ScaleLog2() float64 {
	return core.RatLog2(c.ct.Scale)
}

// Copy returns an independent deep copy of the ciphertext.
func (c *Ciphertext) Copy() *Ciphertext {
	return &Ciphertext{ct: c.ct.CopyNew()}
}

// New builds a context: modulus chain, keys, and engines.
func New(cfg Config) (*Context, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Sigma == 0 {
		cfg.Sigma = 3.2
	}
	if cfg.KeySwitchDigits == 0 {
		cfg.KeySwitchDigits = 3
	}
	if cfg.WordBits == 0 {
		cfg.WordBits = 61
	}
	if err := validateConfig(&cfg); err != nil {
		return nil, err
	}
	if cfg.Workers != 0 {
		engine.SetWorkers(cfg.Workers)
	}
	schedule := cfg.ScaleSchedule
	if schedule == nil {
		if cfg.ScaleBits <= 0 {
			return nil, fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: ScaleBits or ScaleSchedule required")
		}
		schedule = make([]float64, cfg.Levels+1)
		for i := range schedule {
			schedule[i] = cfg.ScaleBits
		}
	}
	if len(schedule) != cfg.Levels+1 {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: ScaleSchedule needs Levels+1=%d entries", cfg.Levels+1)
	}
	qMin := cfg.QMinBits
	if qMin == 0 {
		qMin = schedule[0] + 20
	}
	prog := core.ProgramSpec{
		MaxLevel:        cfg.Levels,
		TargetScaleBits: schedule,
		QMinBits:        qMin,
	}
	sec := core.SecuritySpec{LogN: cfg.LogN}
	if cfg.SecurityBits > 0 {
		maxQP, err := security.MaxLogQP(cfg.LogN, cfg.SecurityBits)
		if err != nil {
			return nil, err
		}
		sec.QMaxBits = maxQP
	}
	params, err := ckks.BuildParametersExt(cfg.Scheme, prog, sec, core.HWSpec{WordBits: cfg.WordBits},
		cfg.KeySwitchDigits, cfg.Sigma, cfg.RedundantResidue)
	if err != nil {
		return nil, err
	}
	encoder := ckks.NewEncoder(params)

	var boot *ckks.Bootstrapper
	rotations := append([]int(nil), cfg.Rotations...)
	conj := cfg.Conjugation
	if cfg.Bootstrap != nil {
		boot, err = ckks.NewBootstrapper(params, encoder, ckks.BootstrapConfig{
			KRange:     cfg.Bootstrap.KRange,
			SineDegree: cfg.Bootstrap.SineDegree,
		})
		if err != nil {
			return nil, err
		}
		rotations = append(rotations, boot.Rotations()...)
		conj = true
	}

	kg := ckks.NewKeyGenerator(params, cfg.Seed, cfg.Seed+1)
	var sk *ckks.SecretKey
	if cfg.SparseSecretWeight > 0 {
		sk = kg.GenSecretKeySparse(cfg.SparseSecretWeight)
	} else {
		sk = kg.GenSecretKey()
	}
	pk := kg.GenPublicKey(sk)
	var keys *ckks.EvaluationKeySet
	var km *ckks.KeyManager
	var eval *ckks.Evaluator
	if cfg.KeyCacheBytes > 0 {
		// Budgeted cache: no eager generation at all — every switching
		// key (including bootstrap rotations) is produced lazily on first
		// use and managed within the byte budget.
		km = ckks.NewKeyManager(params, kg, sk, cfg.KeyCacheBytes)
		eval = ckks.NewEvaluator(params, nil)
		eval.SetKeyManager(km)
	} else {
		keys = &ckks.EvaluationKeySet{
			Relin:  kg.GenRelinKey(sk),
			Galois: kg.GenRotationKeys(sk, rotations, conj),
		}
		if cfg.CompressKeys {
			keys.Compress()
			pk.Compress()
		}
		eval = ckks.NewEvaluator(params, keys)
	}
	if cfg.CheckInvariants {
		eval.SetInvariantChecks(true)
	}
	if cfg.NoiseGuardBits > 0 {
		eval.SetNoiseGuard(cfg.NoiseGuardBits)
	}
	var retrier *engine.Retrier
	if cfg.Retry != nil {
		retrier = engine.NewRetrier(*cfg.Retry)
	}
	return &Context{
		cfg:     cfg,
		params:  params,
		encoder: encoder,
		sk:      sk,
		pk:      pk,
		enc:     ckks.NewEncryptor(params, pk, cfg.Seed+2, cfg.Seed+3),
		dec:     ckks.NewDecryptor(params, sk),
		eval:    eval,
		keys:    keys,
		km:      km,
		boot:    boot,
		retrier: retrier,
	}, nil
}

// validateConfig rejects configurations that could not produce a working
// chain, with errors wrapping ErrInvalidParams. Ranges are generous —
// they bound resource use and keep deeper layers out of undefined
// territory, not enforce security (set SecurityBits for that).
func validateConfig(cfg *Config) error {
	if cfg.LogN < 3 || cfg.LogN > 17 {
		return fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: LogN %d outside [3, 17]", cfg.LogN)
	}
	if cfg.Levels < 0 {
		return fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: negative Levels %d", cfg.Levels)
	}
	if cfg.WordBits < 8 || cfg.WordBits > 64 {
		return fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: WordBits %d outside [8, 64]", cfg.WordBits)
	}
	if cfg.KeySwitchDigits < 1 {
		return fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: KeySwitchDigits %d < 1", cfg.KeySwitchDigits)
	}
	if cfg.Sigma < 0 || math.IsNaN(cfg.Sigma) || math.IsInf(cfg.Sigma, 0) {
		return fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: Sigma %v not a non-negative real", cfg.Sigma)
	}
	if cfg.SparseSecretWeight < 0 || cfg.SparseSecretWeight > 1<<cfg.LogN {
		return fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: SparseSecretWeight %d outside [0, N]", cfg.SparseSecretWeight)
	}
	// 16 bits is a generous floor: below it the fresh encryption noise
	// already consumes the whole scale and every decryption is garbage.
	for _, bits := range append([]float64{cfg.ScaleBits, cfg.QMinBits}, cfg.ScaleSchedule...) {
		if bits == 0 { // unset: defaulted elsewhere
			continue
		}
		if math.IsNaN(bits) || math.IsInf(bits, 0) || bits < 16 || bits > 61 {
			return fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: scale/modulus width %v outside [16, 61] bits", bits)
		}
	}
	return nil
}

// WithContext derives a Context whose long-running operations (BSGS
// linear transforms, bootstrap fan-outs) observe ctx: once it is
// canceled, in-flight work winds down within one dispatch quantum and
// operations fail with ErrCanceled, with all pooled scratch returned.
// The derived Context shares keys and caches with the receiver.
func (c *Context) WithContext(ctx context.Context) *Context {
	d := *c
	d.eval = c.eval.WithContext(ctx)
	d.ctx = ctx
	return &d
}

// opCtx is the context observed by this Context's operations.
func (c *Context) opCtx() context.Context {
	if c.ctx != nil {
		return c.ctx
	}
	return context.Background()
}

// runOp executes one homomorphic operation under the context's retry
// policy, if any: a detected fault (invariant violation from corrupted
// state, a dropped engine task) re-dispatches the operation from its
// retained inputs with backoff; the RRNS layer may additionally have
// repaired the corrupted operand in place during the failed attempt, so
// the re-run usually succeeds. Without Config.Retry this is a plain
// single attempt.
func (c *Context) runOp(name string, op func() (*ckks.Ciphertext, error)) (*Ciphertext, error) {
	if c.retrier == nil {
		return wrapCt(op())
	}
	var out *ckks.Ciphertext
	err := c.retrier.Do(c.opCtx(), name, func(context.Context) error {
		var opErr error
		out, opErr = op()
		return opErr
	})
	if err != nil {
		return nil, err
	}
	return &Ciphertext{ct: out}, nil
}

// NoiseBudget returns the ciphertext's remaining noise budget in bits:
// log2(scale) minus the estimated noise magnitude. Values near or below
// zero mean decryption precision is gone; rescale, adjust, or bootstrap.
func (c *Context) NoiseBudget(ct *Ciphertext) float64 {
	return c.eval.NoiseBudget(ct.ct)
}

// Validate checks the ciphertext's structural invariants (level, residue
// moduli, NTT domain, scale, metadata tag, coefficient ranges) against
// the context's chain, returning an error wrapping ErrInvariant on the
// first violation. The same check runs automatically at every evaluator
// entry point when Config.CheckInvariants is set.
func (c *Context) Validate(ct *Ciphertext) error {
	return ct.ct.Validate(c.params)
}

// Refresh bootstraps a level-0 ciphertext back up the chain (requires
// Config.Bootstrap). The output lands ChebyshevDepth(SineDegree)+3 levels
// below the top, carrying the original values at demonstration-grade
// precision.
func (c *Context) Refresh(ct *Ciphertext) (*Ciphertext, error) {
	if c.boot == nil {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: context built without Config.Bootstrap")
	}
	return c.runOp("Refresh", func() (*ckks.Ciphertext, error) { return c.boot.Refresh(c.eval, ct.ct) })
}

// Slots returns the number of complex slots per ciphertext.
func (c *Context) Slots() int { return c.params.Slots() }

// MaxLevel returns the top level of the chain.
func (c *Context) MaxLevel() int { return c.params.MaxLevel() }

// Scheme returns the context's representation.
func (c *Context) Scheme() Scheme { return c.cfg.Scheme }

// ChainDescription summarizes the modulus chain (levels, residue counts,
// scales, packing overheads).
func (c *Context) ChainDescription() string {
	return DescribeChain(c.params.Chain)
}

// Encrypt encodes and encrypts up to Slots() complex values at the top
// level.
func (c *Context) Encrypt(values []complex128) (*Ciphertext, error) {
	lvl := c.params.MaxLevel()
	pt, err := c.encode(values, lvl, c.params.DefaultScale(lvl))
	if err != nil {
		return nil, err
	}
	ct, err := c.enc.EncryptAtLevel(pt, lvl)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{ct: ct}, nil
}

// EncryptReal is Encrypt for real-valued slots.
func (c *Context) EncryptReal(values []float64) (*Ciphertext, error) {
	cv := make([]complex128, len(values))
	for i, v := range values {
		cv[i] = complex(v, 0)
	}
	return c.Encrypt(cv)
}

// Decrypt returns all slots of a ciphertext.
func (c *Context) Decrypt(ct *Ciphertext) ([]complex128, error) {
	return c.dec.DecryptAndDecode(ct.ct, c.encoder)
}

// DecryptReal returns the real parts of all slots.
func (c *Context) DecryptReal(ct *Ciphertext) ([]float64, error) {
	vals, err := c.Decrypt(ct)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = real(v)
	}
	return out, nil
}

// wrap lifts an internal (ciphertext, error) pair into the public type.
func wrapCt(ct *ckks.Ciphertext, err error) (*Ciphertext, error) {
	if err != nil {
		return nil, err
	}
	return &Ciphertext{ct: ct}, nil
}

// Add returns a + b (same level and scale; Adjust first if needed).
// Mismatched operands fail with ErrLevelMismatch or ErrScaleMismatch.
func (c *Context) Add(a, b *Ciphertext) (*Ciphertext, error) {
	return c.runOp("Add", func() (*ckks.Ciphertext, error) { return c.eval.Add(a.ct, b.ct) })
}

// Sub returns a - b.
func (c *Context) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	return c.runOp("Sub", func() (*ckks.Ciphertext, error) { return c.eval.Sub(a.ct, b.ct) })
}

// Neg returns -a.
func (c *Context) Neg(a *Ciphertext) (*Ciphertext, error) {
	return c.runOp("Neg", func() (*ckks.Ciphertext, error) { return c.eval.Neg(a.ct) })
}

// Mul multiplies two ciphertexts (with relinearization). The result's
// scale is the product of the operand scales; follow with Rescale.
func (c *Context) Mul(a, b *Ciphertext) (*Ciphertext, error) {
	return c.runOp("Mul", func() (*ckks.Ciphertext, error) { return c.eval.MulRelin(a.ct, b.ct) })
}

// MulRescale multiplies (with relinearization) and rescales as one fused
// macro operation: the tensor product, keyswitch and level transition
// share intermediates, so the product never materializes as a full
// ciphertext between the two steps. Bit-identical to Mul followed by
// Rescale.
func (c *Context) MulRescale(a, b *Ciphertext) (*Ciphertext, error) {
	return c.runOp("MulRescale", func() (*ckks.Ciphertext, error) { return c.eval.MulRescale(a.ct, b.ct) })
}

// KeyCacheStats reports the budgeted key cache's cumulative counters and
// current/peak resident key footprint. The second return is false when
// the context was built without Config.KeyCacheBytes (eager keys have no
// cache to report on; see ResidentKeyBytes for their footprint).
func (c *Context) KeyCacheStats() (ckks.KeyCacheStats, bool) {
	if c.km == nil {
		return ckks.KeyCacheStats{}, false
	}
	return c.km.Stats(), true
}

// ResidentKeyBytes reports the bytes of switching-key material currently
// resident in memory: the cache's live footprint under KeyCacheBytes,
// otherwise the eager key set's size (halved by CompressKeys).
func (c *Context) ResidentKeyBytes() int64 {
	if c.km != nil {
		return c.km.Stats().ResidentBytes
	}
	if c.keys == nil {
		return 0
	}
	return c.keys.ResidentBytes()
}

// PinRotations declares a plan's rotation-key working set up front: under
// Config.KeyCacheBytes the keys for the given slot steps are generated
// (or promoted) now and pinned against demotion and eviction until the
// returned release is called, so a loop of Rotate/RotateHoisted calls
// over those steps runs entirely on cache hits. Zero and duplicate steps
// are ignored. Without a key cache this is a no-op. The release function
// is idempotent.
func (c *Context) PinRotations(steps ...int) (func(), error) {
	seen := map[uint64]bool{1: true} // element 1 is the identity: a zero step needs no key
	els := make([]uint64, 0, len(steps))
	for _, s := range steps {
		if el := ring.GaloisElementForRotation(s, c.params.N()); !seen[el] {
			seen[el] = true
			els = append(els, el)
		}
	}
	return c.eval.PinGaloisKeys("PinRotations", els)
}

// SetFused toggles the fused per-residue kernel paths at runtime. Off,
// every hot operation runs stage by stage (each kernel as its own full
// pass over all residues); the two settings produce bit-identical
// results, and the staged one exists as the differential-testing and
// benchmark baseline.
func (c *Context) SetFused(on bool) { c.eval.SetFused(on) }

// Fused reports whether the fused kernel paths are active.
func (c *Context) Fused() bool { return c.eval.Fused() }

// Plain is a reusable encoded plaintext, bound to one level of the
// chain. Encoding is an O(N log N) transform — callers that apply the
// same constant vector to many ciphertexts (masks, fixed weights)
// should encode once with EncodePlain and reuse the Plain instead of
// paying the transform inside every MulConst call. It is kept in the
// evaluation (NTT) domain, the form MulPlain reads.
type Plain struct {
	pt *ckks.Plaintext
}

// Level returns the level the plaintext was encoded for.
func (p *Plain) Level() int { return p.pt.Level }

// EncodePlain encodes a constant vector at the given level's default
// scale for repeated use with MulPlain. The result is only valid for
// ciphertexts at exactly that level.
func (c *Context) EncodePlain(values []complex128, level int) (*Plain, error) {
	if level < 0 || level > c.params.MaxLevel() {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: level %d outside [0, %d]", level, c.params.MaxLevel())
	}
	pt, err := c.encode(values, level, c.params.DefaultScale(level))
	if err != nil {
		return nil, err
	}
	pt.Value.NTT() // once here instead of a copy and R transforms per use
	return &Plain{pt: pt}, nil
}

// encode encodes a slot vector for one level of the chain at a scale.
func (c *Context) encode(values []complex128, level int, scale *big.Rat) (*ckks.Plaintext, error) {
	val, err := c.encoder.Encode(values, scale, c.params.LevelModuli(level))
	if err != nil {
		return nil, err
	}
	return &ckks.Plaintext{Value: val, Level: level, Scale: scale}, nil
}

// MulPlain multiplies by a pre-encoded plaintext (see EncodePlain);
// follow with Rescale. Bit-identical to MulConst with the same vector,
// minus the per-call encode. A level mismatch between the ciphertext
// and the plaintext fails with ErrLevelMismatch.
func (c *Context) MulPlain(a *Ciphertext, p *Plain) (*Ciphertext, error) {
	if a.ct.Level != p.pt.Level {
		return nil, fherr.Wrap(fherr.ErrLevelMismatch,
			"bitpacker: MulPlain ciphertext at level %d, plaintext encoded for %d", a.ct.Level, p.pt.Level)
	}
	return c.runOp("MulPlain", func() (*ckks.Ciphertext, error) { return c.eval.MulPlain(a.ct, p.pt) })
}

// MulConst multiplies by an unencrypted per-slot constant vector, encoded
// at the ciphertext's level and scale; follow with Rescale.
func (c *Context) MulConst(a *Ciphertext, values []complex128) (*Ciphertext, error) {
	pt, err := c.encode(values, a.ct.Level, c.params.DefaultScale(a.ct.Level))
	if err != nil {
		return nil, err
	}
	return c.runOp("MulConst", func() (*ckks.Ciphertext, error) { return c.eval.MulPlain(a.ct, pt) })
}

// AddConst adds an unencrypted per-slot constant vector.
func (c *Context) AddConst(a *Ciphertext, values []complex128) (*Ciphertext, error) {
	pt, err := c.encode(values, a.ct.Level, a.ct.Scale)
	if err != nil {
		return nil, err
	}
	return c.runOp("AddConst", func() (*ckks.Ciphertext, error) { return c.eval.AddPlain(a.ct, pt) })
}

// mulScalar and addScalar are MulConst and AddConst for one real constant
// in every slot: the evaluator applies it as a scalar and nothing is
// encoded. EvalPolynomial's coefficients take this path.
func (c *Context) mulScalar(a *Ciphertext, v float64) (*Ciphertext, error) {
	return c.runOp("MulConst", func() (*ckks.Ciphertext, error) { return c.eval.MulConst(a.ct, v) })
}

func (c *Context) addScalar(a *Ciphertext, v float64) (*Ciphertext, error) {
	return c.runOp("AddConst", func() (*ckks.Ciphertext, error) { return c.eval.AddConst(a.ct, v) })
}

// Rescale drops the ciphertext one level, dividing out one scale factor
// (call after Mul/MulConst). This is where RNSCKKS and BitPacker differ:
// RNSCKKS sheds the level's own residues; BitPacker scales up by the next
// level's terminal moduli and scales down by the retired ones. At level 0
// it fails with ErrChainExhausted.
func (c *Context) Rescale(a *Ciphertext) (*Ciphertext, error) {
	return c.runOp("Rescale", func() (*ckks.Ciphertext, error) { return c.eval.Rescale(a.ct) })
}

// Adjust lowers a ciphertext to the given level without changing its
// value, so it can be combined with deeper ciphertexts. Raising a level
// fails with ErrLevelMismatch (bootstrap instead).
func (c *Context) Adjust(a *Ciphertext, level int) (*Ciphertext, error) {
	return c.runOp("Adjust", func() (*ckks.Ciphertext, error) { return c.eval.AdjustTo(a.ct, level) })
}

// Rotate rotates the slot vector left by steps. A missing Galois key
// (see Config.Rotations) fails with ErrMissingKey.
func (c *Context) Rotate(a *Ciphertext, steps int) (*Ciphertext, error) {
	return c.runOp("Rotate", func() (*ckks.Ciphertext, error) { return c.eval.Rotate(a.ct, steps) })
}

// RotateHoisted rotates one ciphertext by several step amounts, sharing a
// single keyswitch decomposition (ModUp) across all of them — much
// cheaper than calling Rotate per step when rotating the same input many
// ways. Results align with steps; duplicate or zero steps are handled
// without extra keyswitches. The outputs decrypt identically to Rotate's
// but are not bit-identical to them (the shared ModUp rounds differently;
// see DESIGN.md).
func (c *Context) RotateHoisted(a *Ciphertext, steps []int) ([]*Ciphertext, error) {
	outs, err := c.eval.RotateHoisted(a.ct, steps)
	if err != nil {
		return nil, err
	}
	wrapped := make([]*Ciphertext, len(outs))
	for i, o := range outs {
		wrapped[i] = &Ciphertext{ct: o}
	}
	return wrapped, nil
}

// Conjugate conjugates the slots (requires Config.Conjugation).
func (c *Context) Conjugate(a *Ciphertext) (*Ciphertext, error) {
	return c.runOp("Conjugate", func() (*ckks.Ciphertext, error) { return c.eval.Conjugate(a.ct) })
}
