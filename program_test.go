package bitpacker

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bitpacker/internal/trace"
)

// benchShardProgram is bench/shard.go's six-step program (bench/ is a
// module of its own, so the test holds a copy).
var benchShardProgram = []ShardStep{
	{Op: ShardOpSquare},
	{Op: ShardOpScale, Arg: 1.25},
	{Op: ShardOpOffset, Arg: 0.125},
	{Op: ShardOpSquare},
	{Op: ShardOpNegate},
	{Op: ShardOpOffset, Arg: 1},
}

// forProgramConfigs runs f at w 28 and 61 on both schemes, at shard_job's
// shape (4 levels, 40-bit scale) and a small ring.
func forProgramConfigs(t *testing.T, f func(t *testing.T, ctx *Context)) {
	for _, scheme := range []Scheme{BitPacker, RNSCKKS} {
		for _, w := range []int{28, 61} {
			t.Run(fmt.Sprintf("%v/w%d", scheme, w), func(t *testing.T) {
				ctx, err := New(Config{Scheme: scheme, LogN: 9, Levels: 4, ScaleBits: 40, WordBits: w, Seed: 7, Rotations: []int{3, 1, -1}})
				if err != nil {
					t.Fatal(err)
				}
				f(t, ctx)
			})
		}
	}
}

func testInput(t *testing.T, ctx *Context) *Ciphertext {
	t.Helper()
	vals := make([]float64, ctx.Slots())
	for i := range vals {
		vals[i] = 0.9 * math.Sin(float64(i+1))
	}
	ct, err := ctx.EncryptReal(vals)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func uniformVec(ctx *Context, v float64) []complex128 {
	vec := make([]complex128, ctx.Slots())
	for i := range vec {
		vec[i] = complex(v, 0)
	}
	return vec
}

func mustCt(t *testing.T) func(*Ciphertext, error) *Ciphertext {
	return func(ct *Ciphertext, err error) *Ciphertext {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
}

func sameBytes(t *testing.T, ctx *Context, a, b *Ciphertext) bool {
	t.Helper()
	ab, err := ctx.MarshalCiphertext(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := ctx.MarshalCiphertext(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ab, bb)
}

// lowering is a program's steps in the op table's trace kinds, each at
// the level it runs at, starting at level.
func lowering(program []ShardStep, level int) []trace.Group {
	var p trace.Program
	for _, st := range program {
		for _, kind := range opTable[st.Op].lower {
			p.Add(kind, level, 1)
			if kind == trace.Rescale {
				level--
			}
		}
	}
	return p.Groups
}

// endOfLowering is the level the lowered program leaves a ciphertext at.
func endOfLowering(groups []trace.Group) int {
	last := groups[len(groups)-1]
	if last.Kind == trace.Rescale {
		return last.Level - 1
	}
	return last.Level
}

// TestProgramTable holds the op table's three readings of a program to
// each other: the levels PlanProgram predicts are the levels execution
// spends, the lowering ends where the plan does, and every op is, to the
// bit, the primitive sequence its comment documents.
func TestProgramTable(t *testing.T) {
	forProgramConfigs(t, func(t *testing.T, ctx *Context) {
		must := mustCt(t)
		in := testInput(t, ctx)
		documented := map[string]func(arg float64) *Ciphertext{
			ShardOpSquare: func(float64) *Ciphertext { return must(ctx.MulRescale(in, in)) },
			ShardOpQuartic: func(float64) *Ciphertext {
				sq := must(ctx.MulRescale(in, in))
				return must(ctx.MulRescale(sq, sq))
			},
			ShardOpNegate: func(float64) *Ciphertext { return must(ctx.Neg(in)) },
			ShardOpOffset: func(arg float64) *Ciphertext { return must(ctx.AddConst(in, uniformVec(ctx, arg))) },
			ShardOpScale: func(arg float64) *Ciphertext {
				return must(ctx.Rescale(must(ctx.MulConst(in, uniformVec(ctx, arg)))))
			},
			ShardOpRotate: func(arg float64) *Ciphertext { return must(ctx.Rotate(in, int(arg))) },
		}
		if len(documented) != len(opTable) {
			t.Fatalf("the op table has %d ops, the test documents %d", len(opTable), len(documented))
		}
		programs := map[string][]ShardStep{"bench": benchShardProgram}
		for op := range opTable {
			programs[op] = []ShardStep{{Op: op, Arg: 3}}
		}
		for name, program := range programs {
			plan, err := ctx.PlanProgram(program, in.Level())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			state := []*Ciphertext{in}
			for i, st := range program {
				if got := state[0].Level(); got != plan.Levels[i] {
					t.Fatalf("%s step %d runs at level %d, planned %d", name, i, got, plan.Levels[i])
				}
				if state, err = ctx.ApplyShardStep(st, state); err != nil {
					t.Fatalf("%s step %d: %v", name, i, err)
				}
			}
			if got := state[0].Level(); got != plan.EndLevel {
				t.Fatalf("%s ends at level %d, planned %d", name, got, plan.EndLevel)
			}
			if got := endOfLowering(lowering(program, in.Level())); got != plan.EndLevel {
				t.Fatalf("%s: lowering ends at level %d, the plan at %d", name, got, plan.EndLevel)
			}
			if ref, ok := documented[name]; ok && !sameBytes(t, ctx, state[0], ref(program[0].Arg)) {
				t.Fatalf("%s is not bit-identical to its documented primitive sequence", name)
			}
		}

		// The bench program's lowering, written out, from the top level.
		top := ctx.MaxLevel()
		want := []trace.Group{
			{Kind: trace.HMul, Level: top, Count: 1}, {Kind: trace.Rescale, Level: top, Count: 1},
			{Kind: trace.PMul, Level: top - 1, Count: 1}, {Kind: trace.Rescale, Level: top - 1, Count: 1},
			{Kind: trace.PAdd, Level: top - 2, Count: 1},
			{Kind: trace.HMul, Level: top - 2, Count: 1}, {Kind: trace.Rescale, Level: top - 2, Count: 1},
			{Kind: trace.PAdd, Level: top - 3, Count: 1},
			{Kind: trace.PAdd, Level: top - 3, Count: 1},
		}
		plan, err := ctx.PlanProgram(benchShardProgram, top)
		if err != nil {
			t.Fatal(err)
		}
		if got := lowering(benchShardProgram, top); !reflect.DeepEqual(got, want) {
			t.Fatalf("bench program lowers to %+v, want %+v", got, want)
		}
		if !plan.SlotWise {
			t.Fatal("the bench program is slot-wise")
		}
		if rot, err := ctx.PlanProgram([]ShardStep{{Op: ShardOpNegate}, {Op: ShardOpRotate, Arg: 3}}, top); err != nil || rot.SlotWise {
			t.Fatalf("a program with a rotation planned slot-wise (%v)", err)
		}
	})
}

// TestExecShardRefusesEmptyProgram: ExecShard is exported, and a shard
// with no steps has no final checkpoint to look for. It is refused as
// invalid before the exchange directory is touched.
func TestExecShardRefusesEmptyProgram(t *testing.T) {
	ctx, err := New(Config{Scheme: BitPacker, LogN: 9, Levels: 2, ScaleBits: 40, WordBits: 61})
	if err != nil {
		t.Fatal(err)
	}
	input, err := ctx.EncodeCiphertexts([]*Ciphertext{testInput(t, ctx)})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "exchange")
	for _, program := range [][]ShardStep{nil, {}} {
		if _, err := ctx.ExecShard(context.Background(), dir, 0, input, program, nil); !errors.Is(err, ErrInvalidParams) {
			t.Fatalf("empty program %#v: err = %v, want ErrInvalidParams", program, err)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("exchange directory touched by a refused shard: %v", err)
	}
}

// TestPlanProgramRefusals: what cannot run is refused with a typed error
// before it runs, through PlanProgram and through ApplyShardStep alike;
// what is merely unusual (a negative rotation, one past the slot count)
// still runs.
func TestPlanProgramRefusals(t *testing.T) {
	ctx, err := New(Config{Scheme: BitPacker, LogN: 9, Levels: 2, ScaleBits: 40, WordBits: 61, Rotations: []int{1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	must := mustCt(t)
	in := testInput(t, ctx)
	top := ctx.MaxLevel()

	hostile := []struct {
		name       string
		arg        float64
		rotateOnly bool // legal as a constant, not as a rotation amount
	}{
		{"NaN", math.NaN(), false}, {"+Inf", math.Inf(1), false}, {"-Inf", math.Inf(-1), false},
		{"fraction", 0.5, true}, {"beyond int32", 1e300, true}, {"int32 max + 1", math.MaxInt32 + 1, true},
	}
	for op, def := range opTable {
		for _, h := range hostile {
			st := ShardStep{Op: op, Arg: h.arg}
			_, planErr := ctx.PlanProgram([]ShardStep{st}, top)
			_, applyErr := ctx.ApplyShardStep(st, []*Ciphertext{in})
			if refuse := !h.rotateOnly || def.rotation; refuse {
				if !errors.Is(planErr, ErrInvalidParams) || !errors.Is(applyErr, ErrInvalidParams) {
					t.Errorf("%s by %s: plan %v, apply %v; want ErrInvalidParams from both", op, h.name, planErr, applyErr)
				}
			} else if planErr != nil {
				t.Errorf("%s by %s refused: %v", op, h.name, planErr)
			}
		}
	}

	for _, tc := range []struct {
		name    string
		program []ShardStep
		level   int
		want    error
	}{
		{"empty", nil, top, ErrInvalidParams},
		{"unknown op", []ShardStep{{Op: ShardOpSquare}, {Op: "cube"}}, top, ErrInvalidParams},
		{"level above the chain", []ShardStep{{Op: ShardOpNegate}}, top + 1, ErrInvalidParams},
		{"negative level", []ShardStep{{Op: ShardOpNegate}}, -1, ErrInvalidParams},
		{"rotation without a key", []ShardStep{{Op: ShardOpRotate, Arg: 2}}, top, ErrMissingKey},
		{"three squares on two levels", []ShardStep{{Op: ShardOpSquare}, {Op: ShardOpSquare}, {Op: ShardOpSquare}}, top, ErrChainExhausted},
		{"quartic at level 1", []ShardStep{{Op: ShardOpQuartic}}, 1, ErrChainExhausted},
		{"scale at level 0", []ShardStep{{Op: ShardOpOffset, Arg: 1}, {Op: ShardOpScale, Arg: 2}}, 0, ErrChainExhausted},
	} {
		if _, err := ctx.PlanProgram(tc.program, tc.level); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
	// A program run without having been planned fails at the stage the plan
	// would have named, with the same typed error.
	tooDeep := []ShardStep{{Op: ShardOpSquare}, {Op: ShardOpSquare}, {Op: ShardOpSquare}}
	if _, report, err := ctx.runProgram(context.Background(), tooDeep, []*Ciphertext{in}, nil); !errors.Is(err, ErrChainExhausted) || report.StagesRun != 2 {
		t.Fatalf("runProgram of a too-deep program: %v after %d stages, want ErrChainExhausted after 2", err, report.StagesRun)
	}

	// Rotation amounts normalise as Rotate's do; a multiple of the slot
	// count is the identity and needs no key.
	for _, tc := range []struct{ arg, same int }{{-1, -1}, {ctx.Slots() + 1, 1}, {-ctx.Slots() - 1, -1}, {2 * ctx.Slots(), 0}} {
		program := []ShardStep{{Op: ShardOpRotate, Arg: float64(tc.arg)}}
		if _, err := ctx.PlanProgram(program, top); err != nil {
			t.Fatalf("rotate by %d refused: %v", tc.arg, err)
		}
		got, _, err := ctx.runProgram(context.Background(), program, []*Ciphertext{in}, nil)
		if err != nil {
			t.Fatalf("rotate by %d: %v", tc.arg, err)
		}
		if !sameBytes(t, ctx, got[0], must(ctx.Rotate(in, tc.same))) {
			t.Fatalf("rotate by %d is not Rotate by %d", tc.arg, tc.same)
		}
	}
	// With a key cache every rotation can be served.
	cached, err := New(Config{Scheme: BitPacker, LogN: 9, Levels: 2, ScaleBits: 40, WordBits: 61, KeyCacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cached.PlanProgram([]ShardStep{{Op: ShardOpRotate, Arg: 2}}, top); err != nil {
		t.Fatalf("rotation under a key cache refused: %v", err)
	}
}

// TestProgramConstantsMatchEncoderPath: offset and scale apply their one
// number as a scalar. The encoder path they replaced (AddConst/MulConst of
// the uniform vector) is the reference: byte-identical outputs for dyadic
// arguments — shard_job's 1.25, 0.125, 1 and its per-job 1 + k/4096 —
// and, for arguments the encoder's FFT cannot represent exactly, decrypted
// agreement within the noise the ciphertext tracks.
func TestProgramConstantsMatchEncoderPath(t *testing.T) {
	forProgramConfigs(t, func(t *testing.T, ctx *Context) {
		must := mustCt(t)
		in := must(ctx.MulRescale(testInput(t, ctx), testInput(t, ctx))) // not a fresh encryption
		apply := func(op string, arg float64) *Ciphertext {
			out, err := ctx.ApplyShardStep(ShardStep{Op: op, Arg: arg}, []*Ciphertext{in})
			if err != nil {
				t.Fatal(err)
			}
			return out[0]
		}
		encoder := map[string]func(arg float64) *Ciphertext{
			ShardOpOffset: func(arg float64) *Ciphertext { return must(ctx.AddConst(in, uniformVec(ctx, arg))) },
			ShardOpScale: func(arg float64) *Ciphertext {
				return must(ctx.Rescale(must(ctx.MulConst(in, uniformVec(ctx, arg)))))
			},
		}
		dyadic := []float64{1.25, 0.125, 1, 0, -0.5, -3, 1 + 8.0/4096, 1 + 9.0/4096, 1 + 4095.0/4096}
		for op, ref := range encoder {
			for _, arg := range dyadic {
				if !sameBytes(t, ctx, apply(op, arg), ref(arg)) {
					t.Errorf("%s by %v: scalar path differs from the encoder path", op, arg)
				}
			}
			for _, arg := range []float64{1.0 / 3, -0.3, 1e-3} {
				got, want := apply(op, arg), ref(arg)
				if !sameBytes(t, ctx, got, want) {
					t.Logf("%s by %v: not byte-identical to the encoder path (non-dyadic)", op, arg)
				}
				gv, err := ctx.DecryptReal(got)
				if err != nil {
					t.Fatal(err)
				}
				wv, err := ctx.DecryptReal(want)
				if err != nil {
					t.Fatal(err)
				}
				bound := 16 * math.Exp2(-ctx.NoiseBudget(got))
				for i := range gv {
					if e := math.Abs(gv[i] - wv[i]); e > bound {
						t.Fatalf("%s by %v, slot %d: scalar path %g from the encoder path, tracked bound %g", op, arg, i, e, bound)
					}
				}
			}
		}
	})
}
