package bitpacker

import (
	"context"
	"fmt"

	"bitpacker/internal/ckks"
	"bitpacker/internal/engine"
	"bitpacker/internal/fherr"
	"bitpacker/internal/pipeline"
)

// PipelineStage is one step of a long homomorphic computation. Run
// receives the state produced by the previous stage and returns the
// next state, which RunPipeline settles before it hands it on or
// checkpoints it. Run must treat its input as read-only: on a retry or a
// resume the same input is replayed from the checkpointed truth. Under
// Config.Retry each attempt receives a fresh deep copy, so a faulted
// attempt cannot damage what its re-run reads; without it Run receives
// the state itself, and a mutation reaches the caller's ciphertexts.
type PipelineStage struct {
	Name string
	Run  func(ctx context.Context, state []*Ciphertext) ([]*Ciphertext, error)
}

// PipelineOptions tunes checkpointing for RunPipeline.
type PipelineOptions struct {
	// CheckpointDir, when non-empty, persists a checkpoint file (atomic
	// write, checksummed) after every completed stage and enables resume:
	// a later RunPipeline over the same directory skips the stages whose
	// checkpoints are intact, falling back past corrupted ones stage by
	// stage. A successful run clears it. Empty disables checkpointing.
	CheckpointDir string
}

// PipelineReport describes what a RunPipeline call actually did.
type PipelineReport struct {
	// ResumedFrom is the stage whose checkpoint seeded the run, or -1
	// when the run started from the initial state.
	ResumedFrom int
	// StagesRun counts the stages executed (not skipped by resume).
	StagesRun int
	// Retries counts stage re-executions performed by the retry rung.
	Retries int64
}

// RunPipeline executes stages in order over the initial state,
// checkpointing at every stage boundary when PipelineOptions.
// CheckpointDir is set: checkpoint k holds stage k's output, as
// EncodeCiphertexts writes it. A run that died mid-pipeline — process
// crash included — resumes after the latest intact checkpoint: completed
// stages are not recomputed, and ciphertexts restored from a checkpoint
// are validated and have their RRNS spare channel reseeded before use. A
// faulted stage (ErrInvariant, ErrEngineFault) is re-run from its input
// under the context's Config.Retry, if any. On success the checkpoints
// are cleared; on failure they remain for the next attempt.
func (c *Context) RunPipeline(ctx context.Context, stages []PipelineStage, initial []*Ciphertext, opts PipelineOptions) ([]*Ciphertext, PipelineReport, error) {
	report := PipelineReport{ResumedFrom: -1}
	if len(stages) == 0 {
		return nil, report, fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: pipeline has no stages")
	}
	for i, st := range stages {
		if st.Run == nil {
			return nil, report, fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: pipeline stage %d (%q) has no Run", i, st.Name)
		}
	}
	state, err := c.settleState(initial)
	if err != nil {
		return nil, report, err
	}
	var store *pipeline.DirStore
	if opts.CheckpointDir != "" {
		if store, err = pipeline.NewDirStore(opts.CheckpointDir); err != nil {
			return nil, report, err
		}
		// Resume after the newest intact checkpoint, passing over any a
		// longer pipeline left; each damaged one passed costs a stage of
		// recomputation.
		have, _ := store.Stages()
		for j := len(have) - 1; j >= 0; j-- {
			s := have[j]
			if s >= len(stages) {
				continue
			}
			if restored, _, err := c.storedStage(store, s, stages[s].Name); err == nil {
				state, report.ResumedFrom = restored, s
				break
			}
		}
	}
	if ctx == nil {
		ctx = c.opCtx()
	}
	var retrier *engine.Retrier
	if c.cfg.Retry != nil {
		retrier = engine.NewRetrier(*c.cfg.Retry)
	}
	for i := report.ResumedFrom + 1; i < len(stages); i++ {
		st := stages[i]
		var next []*Ciphertext
		attempt := func(ctx context.Context) error {
			// A re-run replays the retained input, so under a retrier each
			// attempt works on its own deep copy; with no re-run nothing
			// reads the input again, and the stage gets it as it is.
			in := state
			if retrier != nil {
				in = wrapState(ckks.CopyCiphertexts(unwrapState(state))) // all rows in one batched fork/join
			}
			out, err := st.Run(ctx, in)
			if err == nil {
				next, err = c.settleState(out)
			}
			return err
		}
		if retrier != nil {
			err = retrier.Do(ctx, st.Name, attempt)
			report.Retries, _, _ = retrier.Stats()
		} else if err = ctx.Err(); err != nil {
			err = fherr.Wrap(fherr.ErrCanceled, "bitpacker: stage %q not started (%v)", st.Name, err)
		} else {
			err = attempt(ctx)
		}
		if err != nil {
			return nil, report, fmt.Errorf("bitpacker: pipeline stage %d (%q): %w", i, st.Name, err)
		}
		state = next
		report.StagesRun++
		if store != nil {
			payload, err := c.EncodeCiphertexts(state)
			if err == nil {
				err = store.Put(i, st.Name, payload)
			}
			if err != nil {
				return nil, report, fmt.Errorf("bitpacker: checkpoint stage %d (%q): %w", i, st.Name, err)
			}
		}
	}
	if store != nil {
		if err := store.Clear(); err != nil {
			return nil, report, err
		}
	}
	return state, report, nil
}

// storedStage is the one reader of a stored stage: the state and the
// encoding of the stage's checkpoint in store when it is intact — it
// reads back whole, carries name and decodes against the context's chain
// — and an error otherwise. RunPipeline's resume, ExecShard and
// RunSharded's resume scan take a checkpoint through it.
func (c *Context) storedStage(store *pipeline.DirStore, stage int, name string) ([]*Ciphertext, []byte, error) {
	got, payload, err := store.Get(stage)
	if err != nil {
		return nil, nil, err
	}
	if got != name {
		return nil, nil, fmt.Errorf("bitpacker: checkpoint %d holds stage %q, want %q", stage, got, name)
	}
	state, err := c.DecodeCiphertexts(payload)
	return state, payload, err
}

// settleState is a state slice as it is handed on, checkpointed or sent:
// every ciphertext settled (an Apply output pends until then). A settled
// one is kept as it is.
func (c *Context) settleState(state []*Ciphertext) ([]*Ciphertext, error) {
	out := make([]*Ciphertext, len(state))
	for i, ct := range state {
		if ct == nil || ct.ct == nil {
			return nil, fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: nil ciphertext in pipeline state (index %d)", i)
		}
		settled, err := c.eval.Settle(ct.ct)
		if err != nil {
			return nil, err
		}
		out[i] = ct
		if settled != ct.ct {
			out[i] = &Ciphertext{ct: settled}
		}
	}
	return out, nil
}

func unwrapState(state []*Ciphertext) []*ckks.Ciphertext {
	out := make([]*ckks.Ciphertext, len(state))
	for i, ct := range state {
		out[i] = ct.ct
	}
	return out
}

func wrapState(state []*ckks.Ciphertext) []*Ciphertext {
	out := make([]*Ciphertext, len(state))
	for i, ct := range state {
		out[i] = &Ciphertext{ct: ct}
	}
	return out
}

// MarshalCiphertext serializes a ciphertext for storage or transport
// (the same wire format pipeline checkpoints use).
func (c *Context) MarshalCiphertext(ct *Ciphertext) ([]byte, error) {
	settled, err := c.eval.Settle(ct.ct)
	if err != nil {
		return nil, err
	}
	return settled.MarshalBinary()
}

// UnmarshalCiphertext decodes a ciphertext serialized by
// MarshalCiphertext, validates it against the context's chain, and —
// when Config.RedundantResidue is on — seeds its RRNS spare channel
// (deserialization is a trusted point, like a fresh encryption).
func (c *Context) UnmarshalCiphertext(data []byte) (*Ciphertext, error) {
	ct, err := ckks.DecodeCiphertext(c.params, data)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{ct: ct}, nil
}
