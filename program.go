package bitpacker

import (
	"context"
	"fmt"
	"math"

	"bitpacker/internal/accel"
	"bitpacker/internal/fherr"
	"bitpacker/internal/ring"
	"bitpacker/internal/trace"
)

// Program operations. A program crosses process boundaries as JSON (a
// sharded job's job file, a served job's record, an eval request's
// header), so it is a sequence of named steps rather than closures. Each
// name is defined once, in opTable; whatever validates, plans, prices or
// runs a program reads that table.
const (
	ShardOpSquare  = "square"  // MulRescale(x, x)
	ShardOpQuartic = "quartic" // MulRescale(y, y) with y = MulRescale(x, x)
	ShardOpNegate  = "negate"  // Neg(x)
	ShardOpOffset  = "offset"  // AddConst(x, Arg in every slot)
	ShardOpScale   = "scale"   // Rescale(MulConst(x, Arg in every slot))
	ShardOpRotate  = "rotate"  // Rotate(x, int(Arg))
)

// ShardStep is one step of a program: an op name and its argument.
type ShardStep struct {
	Op  string  `json:"op"`
	Arg float64 `json:"arg,omitempty"`
}

// opFunc is one primitive of an op, applied to one ciphertext.
type opFunc func(c *Context, ct *Ciphertext, arg float64) (*Ciphertext, error)

// opDef is one row of the op table.
type opDef struct {
	// apply is the op as primitives of the library, run in order.
	apply []opFunc
	// lower is the op in the accelerator model's kinds, in execution order.
	// Every trace.Rescale leaves the ciphertext one level down, so the
	// levels an op spends are the Rescales of its lowering.
	lower []trace.Kind
	// slotWise: the op acts on every slot independently, so tenants packed
	// into disjoint slot windows of one ciphertext can share it. The
	// serving layer accepts only slot-wise ops.
	slotWise bool
	// rotation: Arg is a rotation amount, which must be an integer an int32
	// holds and needs a Galois key.
	rotation bool
}

// offset and scale take one number for every slot, which encodes to a
// constant polynomial: addScalar and mulScalar apply it per residue and
// the encoder is never reached.
//
// The model has no negation. It is one add-unit pass, and the cheapest
// kind that is one is PAdd (r·N adds; HAdd and PMul are 2·r·N), so negate
// is priced as PAdd.
var opTable = map[string]opDef{
	ShardOpSquare:  {apply: []opFunc{opSquare}, lower: []trace.Kind{trace.HMul, trace.Rescale}, slotWise: true},
	ShardOpQuartic: {apply: []opFunc{opSquare, opSquare}, lower: []trace.Kind{trace.HMul, trace.Rescale, trace.HMul, trace.Rescale}, slotWise: true},
	ShardOpNegate:  {apply: []opFunc{opNegate}, lower: []trace.Kind{trace.PAdd}, slotWise: true},
	ShardOpOffset:  {apply: []opFunc{(*Context).addScalar}, lower: []trace.Kind{trace.PAdd}, slotWise: true},
	ShardOpScale:   {apply: []opFunc{(*Context).mulScalar, opRescale}, lower: []trace.Kind{trace.PMul, trace.Rescale}, slotWise: true},
	ShardOpRotate:  {apply: []opFunc{opRotate}, lower: []trace.Kind{trace.HRotate}, rotation: true},
}

func opSquare(c *Context, ct *Ciphertext, _ float64) (*Ciphertext, error) {
	return c.MulRescale(ct, ct)
}
func opNegate(c *Context, ct *Ciphertext, _ float64) (*Ciphertext, error)  { return c.Neg(ct) }
func opRescale(c *Context, ct *Ciphertext, _ float64) (*Ciphertext, error) { return c.Rescale(ct) }
func opRotate(c *Context, ct *Ciphertext, arg float64) (*Ciphertext, error) {
	return c.Rotate(ct, int(arg))
}

// lookupOp resolves a step against the op table and checks its argument.
func lookupOp(st ShardStep) (opDef, error) {
	def, ok := opTable[st.Op]
	if !ok {
		return opDef{}, fherr.Wrap(fherr.ErrInvalidParams, "unknown op %q", st.Op)
	}
	if math.IsNaN(st.Arg) || math.IsInf(st.Arg, 0) {
		return opDef{}, fherr.Wrap(fherr.ErrInvalidParams, "%s: argument %v is not finite", st.Op, st.Arg)
	}
	// Negative amounts and amounts past the slot count are legal: Rotate
	// reduces them modulo the slot count.
	if def.rotation && (st.Arg != math.Trunc(st.Arg) || st.Arg < math.MinInt32 || st.Arg > math.MaxInt32) {
		return opDef{}, fherr.Wrap(fherr.ErrInvalidParams, "%s: amount %v is not an integer an int32 holds", st.Op, st.Arg)
	}
	return def, nil
}

// ProgramPlan is what PlanProgram learns about a program without running
// it.
type ProgramPlan struct {
	// Levels[i] is the level step i runs at, EndLevel the result's.
	Levels   []int
	EndLevel int
	// SlotWise: every step is slot-wise (what the serving layer requires).
	SlotWise bool
	// PredictedMicros is the accelerator model's time for the program on
	// one ciphertext: its lowering simulated on a CraterLake-class
	// configuration at the context's word size over the context's own
	// chain — the residue count of every level, and the moduli each
	// rescale introduces and sheds.
	PredictedMicros float64
	lowered         trace.Program
}

// PlanProgram checks a program against the chain before anything runs,
// and prices it. level is the level of the ciphertexts the program will
// run on. Refused, with typed errors: an empty program, an unknown op, a
// non-finite argument or a rotation amount that is not an integer an
// int32 holds (ErrInvalidParams); a rotation whose Galois key the context
// cannot supply (ErrMissingKey); a program that spends more levels than
// level leaves (ErrChainExhausted).
func (c *Context) PlanProgram(program []ShardStep, level int) (ProgramPlan, error) {
	if len(program) == 0 {
		return ProgramPlan{}, fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: empty program")
	}
	if level < 0 || level > c.MaxLevel() {
		return ProgramPlan{}, fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: level %d outside [0, %d]", level, c.MaxLevel())
	}
	plan := ProgramPlan{Levels: make([]int, len(program)), SlotWise: true}
	for i, st := range program {
		def, err := lookupOp(st)
		if err != nil {
			return ProgramPlan{}, fmt.Errorf("bitpacker: program step %d: %w", i, err)
		}
		if def.rotation && c.km == nil {
			// Element 1 is the identity: a rotation by a multiple of the
			// slot count needs no key.
			el := ring.GaloisElementForRotation(int(st.Arg), c.params.N())
			if _, ok := c.keys.Galois[el]; !ok && el != 1 {
				return ProgramPlan{}, fherr.Wrap(fherr.ErrMissingKey,
					"bitpacker: program step %d: %s by %d has no Galois key (Config.Rotations)", i, st.Op, int(st.Arg))
			}
		}
		plan.Levels[i] = level
		plan.SlotWise = plan.SlotWise && def.slotWise
		for _, kind := range def.lower {
			if kind == trace.Rescale && level == 0 {
				return ProgramPlan{}, fherr.Wrap(fherr.ErrChainExhausted,
					"bitpacker: program step %d: %s needs a level and the ciphertext has none left (the program starts at level %d)",
					i, st.Op, plan.Levels[0])
			}
			plan.lowered.Add(kind, level, 1)
			if kind == trace.Rescale {
				level--
			}
		}
	}
	plan.EndLevel = level
	sim := accel.NewSimulator(accel.CraterLake(c.cfg.WordBits), c.params.Chain, c.cfg.KeySwitchDigits)
	stats, err := sim.Run(&plan.lowered)
	if err != nil {
		return ProgramPlan{}, fherr.Wrap(fherr.ErrInvariant, "bitpacker: cost model: %v", err)
	}
	plan.PredictedMicros = stats.Seconds * 1e6
	return plan, nil
}

// ApplyShardStep applies one program step to every ciphertext of a
// batch, preserving order and count.
func (c *Context) ApplyShardStep(step ShardStep, state []*Ciphertext) ([]*Ciphertext, error) {
	def, err := lookupOp(step)
	if err != nil {
		return nil, fmt.Errorf("bitpacker: %w", err)
	}
	out := make([]*Ciphertext, len(state))
	for i, ct := range state {
		for _, primitive := range def.apply {
			if ct, err = primitive(c, ct, step.Arg); err != nil {
				return nil, err
			}
		}
		out[i] = ct
	}
	return out, nil
}

// ShardHook observes a program's step boundaries inside RunProgram: it is
// called with the step index before each step runs (skipped for steps
// restored from a checkpoint). The shard worker uses it for progress
// heartbeats and chaos injection points.
type ShardHook func(step int)

// RunProgram runs a program as a checkpointed pipeline, one stage per
// step (RunPipeline's options and report). Stage i is named "%02d-<op>",
// which is what a checkpoint directory is resumed by. Whoever accepts a
// program from outside calls PlanProgram first; a step it would have
// refused fails here with the same typed error, at its stage.
func (c *Context) RunProgram(ctx context.Context, program []ShardStep, state []*Ciphertext, opts PipelineOptions, hook ShardHook) ([]*Ciphertext, PipelineReport, error) {
	stages := make([]PipelineStage, len(program))
	for i, st := range program {
		stages[i] = PipelineStage{
			Name: fmt.Sprintf("%02d-%s", i, st.Op),
			Run: func(ctx context.Context, state []*Ciphertext) ([]*Ciphertext, error) {
				if hook != nil {
					hook(i)
				}
				return c.WithContext(ctx).ApplyShardStep(st, state)
			},
		}
	}
	return c.RunPipeline(ctx, stages, state, opts)
}
