// Package pipeline runs long homomorphic computations as a sequence of
// named stages with checkpoint/resume — the top rung of the recovery
// ladder. State (a slice of ciphertexts) is snapshotted to a Store at
// every stage boundary; a crashed or faulted run resumes from the
// latest valid checkpoint instead of re-encrypting and starting over,
// falling back past corrupted checkpoints one stage at a time. Each
// stage can additionally be re-run in place under an op-level retry
// policy, so transient faults are healed without consuming a
// checkpoint at all.
package pipeline

import (
	"context"
	"fmt"

	"bitpacker/internal/ckks"
	"bitpacker/internal/engine"
	"bitpacker/internal/fherr"
	"bitpacker/internal/frame"
)

// Stage is one step of a pipeline. Run receives the state produced by
// the previous stage and returns the next state. Run must treat its
// input as read-only: on a retry or a resume the same input is replayed,
// so mutating it would diverge from the checkpointed truth. Under a
// retry policy each attempt gets a deep copy of its input, so a faulted
// attempt that damaged its working set cannot poison the re-run; without
// one a stage receives the state itself, and a mutation reaches the
// caller's ciphertexts. A Stage must not stash and reuse its input across
// calls.
type Stage struct {
	Name string
	Run  func(ctx context.Context, state []*ckks.Ciphertext) ([]*ckks.Ciphertext, error)
}

// Options tunes a pipeline run.
type Options struct {
	// Store, when non-nil, persists a checkpoint after every completed
	// stage and enables resume. Nil disables checkpointing.
	Store Store
	// Retry, when non-nil, re-runs a faulted stage (ErrInvariant /
	// ErrEngineFault) from its retained input under the policy before
	// giving up on the run; each attempt then runs on a deep copy of it.
	Retry *engine.RetryPolicy
	// Keep leaves the checkpoints in the store after a successful run
	// (default: Clear on success).
	Keep bool
}

// Report describes what a Run actually did.
type Report struct {
	// ResumedFrom is the stage index whose checkpoint seeded the run, or
	// -1 when the run started from the initial state.
	ResumedFrom int
	// StagesRun counts the stages executed (not skipped by resume).
	StagesRun int
	// Retries counts stage re-executions performed by the retry rung.
	Retries int64
}

// Pipeline is a reusable sequence of stages over one parameter set.
type Pipeline struct {
	params *ckks.Parameters
	stages []Stage
	opts   Options
}

// New builds a pipeline. The parameters must match the ciphertexts the
// stages operate on; they drive checkpoint decode and RRNS reseeding.
func New(params *ckks.Parameters, stages []Stage, opts Options) (*Pipeline, error) {
	if params == nil {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "pipeline: nil parameters")
	}
	if len(stages) == 0 {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "pipeline: no stages")
	}
	for i, st := range stages {
		if st.Run == nil {
			return nil, fherr.Wrap(fherr.ErrInvalidParams, "pipeline: stage %d (%q) has no Run", i, st.Name)
		}
	}
	return &Pipeline{params: params, stages: stages, opts: opts}, nil
}

// Run executes the pipeline from the initial state, or — when the store
// holds a valid checkpoint — from after the latest intact stage
// boundary. Checkpoint k stores the state produced by stage k, so a
// resume re-enters at stage k+1. On success the store is cleared unless
// Options.Keep is set; on failure the checkpoints of the completed
// stages remain, so a later Run picks up where this one stopped.
func (p *Pipeline) Run(ctx context.Context, initial []*ckks.Ciphertext) ([]*ckks.Ciphertext, Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	report := Report{ResumedFrom: -1}
	state := initial
	start := 0
	if p.opts.Store != nil {
		if s, restored, ok := p.resume(); ok {
			state, start, report.ResumedFrom = restored, s+1, s
		}
	}

	var retrier *engine.Retrier
	if p.opts.Retry != nil {
		retrier = engine.NewRetrier(*p.opts.Retry)
	}

	for i := start; i < len(p.stages); i++ {
		st := p.stages[i]
		var next []*ckks.Ciphertext
		run := func(attemptCtx context.Context) error {
			// Under a retrier each attempt gets its own deep copy: a faulted
			// attempt may have corrupted the working set, and the retry
			// contract is a re-run from the retained input. With no re-run
			// nothing reads the input again, and the stage gets it as it is.
			in := state
			if retrier != nil {
				in = ckks.CopyCiphertexts(state) // all rows in one batched fork/join
			}
			out, err := st.Run(attemptCtx, in)
			if err != nil {
				return err
			}
			next = out
			return nil
		}
		var err error
		if retrier != nil {
			before, _, _ := retrier.Stats()
			err = retrier.Do(ctx, st.Name, run)
			after, _, _ := retrier.Stats()
			report.Retries += after - before
		} else {
			if err = ctx.Err(); err != nil {
				err = fherr.Wrap(fherr.ErrCanceled, "pipeline: stage %q not started (%v)", st.Name, err)
			} else {
				err = run(ctx)
			}
		}
		if err != nil {
			return nil, report, fmt.Errorf("pipeline: stage %d (%q): %w", i, st.Name, err)
		}
		state = next
		report.StagesRun++
		if p.opts.Store != nil {
			payload, err := EncodeState(state)
			if err != nil {
				return nil, report, fmt.Errorf("pipeline: checkpoint stage %d (%q): %w", i, st.Name, err)
			}
			if err := p.opts.Store.Put(i, st.Name, payload); err != nil {
				return nil, report, err
			}
		}
	}
	if p.opts.Store != nil && !p.opts.Keep {
		if err := p.opts.Store.Clear(); err != nil {
			return nil, report, err
		}
	}
	return state, report, nil
}

// resume finds the latest checkpoint that survives integrity checks and
// decodes, falling back past corrupt ones stage by stage.
func (p *Pipeline) resume() (stage int, state []*ckks.Ciphertext, ok bool) {
	stages, err := p.opts.Store.Stages()
	if err != nil {
		return 0, nil, false
	}
	for i := len(stages) - 1; i >= 0; i-- {
		s := stages[i]
		if s >= len(p.stages) {
			continue // stale checkpoint from a longer pipeline
		}
		name, payload, err := p.opts.Store.Get(s)
		if err != nil {
			continue // corrupt or unreadable: fall back one stage
		}
		if name != p.stages[s].Name {
			continue // checkpoint from a different pipeline shape
		}
		restored, err := DecodeState(p.params, payload)
		if err != nil {
			continue
		}
		return s, restored, true
	}
	return 0, nil, false
}

// EncodeState serializes a state slice: one frame (internal/frame) per
// ciphertext, carrying its v2 blob, then an End frame. The batch is sized
// exactly up front and every ciphertext is marshalled straight into its
// frame: one allocation, one copy of each coefficient.
func EncodeState(state []*ckks.Ciphertext) ([]byte, error) {
	size := frame.HeaderLen
	for _, ct := range state {
		size += frame.HeaderLen + ct.BinarySize()
	}
	out := make([]byte, 0, size)
	for i, ct := range state {
		at := len(out)
		var err error
		if out, err = ct.AppendBinary(frame.Begin(out)); err != nil {
			return nil, fmt.Errorf("pipeline: state ciphertext %d: %w", i, err)
		}
		frame.Finish(out, at, frame.Ciphertext)
	}
	return frame.Append(out, frame.End, nil), nil
}

// DecodeState reverses EncodeState through ckks.DecodeCiphertext: every
// ciphertext is validated against the parameters and has its RRNS spare
// channel reseeded when the chain carries one — a checkpoint load is a
// trusted point, exactly like a fresh encryption.
func DecodeState(params *ckks.Parameters, payload []byte) ([]*ckks.Ciphertext, error) {
	var state []*ckks.Ciphertext
	for i := 0; ; i++ {
		kind, blob, rest, err := frame.Cut(payload)
		if err != nil {
			return nil, fmt.Errorf("pipeline: state ciphertext %d: %w", i, err)
		}
		if kind == frame.End && len(blob) == 0 && len(rest) == 0 {
			return state, nil
		}
		if kind != frame.Ciphertext {
			return nil, fmt.Errorf("pipeline: state ciphertext %d: frame kind %d", i, kind)
		}
		payload = rest
		ct, err := ckks.DecodeCiphertext(params, blob)
		if err != nil {
			return nil, fmt.Errorf("pipeline: state ciphertext %d: %w", i, err)
		}
		state = append(state, ct)
	}
}
