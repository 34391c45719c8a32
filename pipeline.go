package bitpacker

import (
	"context"

	"bitpacker/internal/ckks"
	"bitpacker/internal/engine"
	"bitpacker/internal/fherr"
	"bitpacker/internal/pipeline"
)

// PipelineStage is one step of a long homomorphic computation. Run
// receives the state produced by the previous stage and returns the
// next state. Run must treat its input as read-only: on a retry or a
// resume the same input is replayed from the checkpointed truth. Under
// Config.Retry each attempt receives a fresh deep copy, so a faulted
// attempt cannot damage what its re-run reads; without it Run receives
// the state itself.
type PipelineStage struct {
	Name string
	Run  func(ctx context.Context, state []*Ciphertext) ([]*Ciphertext, error)
}

// PipelineOptions tunes checkpointing and recovery for RunPipeline.
type PipelineOptions struct {
	// CheckpointDir, when non-empty, persists a checkpoint file (atomic
	// write, checksummed) after every completed stage and enables resume:
	// a later RunPipeline over the same directory skips the stages whose
	// checkpoints are intact, falling back past corrupted ones stage by
	// stage. Empty disables checkpointing.
	CheckpointDir string
	// Keep leaves the checkpoints in place after a successful run
	// (default: cleared on success).
	Keep bool
}

// PipelineReport describes what a RunPipeline call actually did:
// where it resumed from (-1 = ran from the initial state), how many
// stages executed, and how many stage re-runs the retry rung performed.
type PipelineReport = pipeline.Report

// RunPipeline executes stages in order over the initial state,
// checkpointing at every stage boundary when PipelineOptions.
// CheckpointDir is set. A run that died mid-pipeline — process crash
// included — resumes from the latest intact checkpoint: completed
// stages are not recomputed, and ciphertexts restored from a checkpoint
// are validated and have their RRNS spare channel reseeded before use.
// On success the checkpoints are cleared unless Keep is set; on failure
// they remain for the next attempt.
func (c *Context) RunPipeline(ctx context.Context, stages []PipelineStage, initial []*Ciphertext, opts PipelineOptions) ([]*Ciphertext, PipelineReport, error) {
	inner := make([]pipeline.Stage, len(stages))
	for i, st := range stages {
		run := st.Run
		if run == nil {
			return nil, PipelineReport{ResumedFrom: -1}, fherr.Wrap(fherr.ErrInvalidParams,
				"bitpacker: pipeline stage %d (%q) has no Run", i, st.Name)
		}
		inner[i] = pipeline.Stage{
			Name: st.Name,
			Run: func(ctx context.Context, state []*ckks.Ciphertext) ([]*ckks.Ciphertext, error) {
				out, err := run(ctx, wrapState(state))
				if err != nil {
					return nil, err
				}
				return c.unwrapState(out)
			},
		}
	}
	var store pipeline.Store
	if opts.CheckpointDir != "" {
		ds, err := pipeline.NewDirStore(opts.CheckpointDir)
		if err != nil {
			return nil, PipelineReport{ResumedFrom: -1}, err
		}
		store = ds
	}
	// A faulted stage (ErrInvariant, ErrEngineFault) is re-run from its
	// retained input under the context's Config.Retry, if any.
	var retryCopy *engine.RetryPolicy
	if c.cfg.Retry != nil {
		policy := *c.cfg.Retry
		retryCopy = &policy
	}
	p, err := pipeline.New(c.params, inner, pipeline.Options{Store: store, Retry: retryCopy, Keep: opts.Keep})
	if err != nil {
		return nil, PipelineReport{ResumedFrom: -1}, err
	}
	init, err := c.unwrapState(initial)
	if err != nil {
		return nil, PipelineReport{ResumedFrom: -1}, err
	}
	if ctx == nil {
		ctx = c.opCtx()
	}
	final, report, err := p.Run(ctx, init)
	if err != nil {
		return nil, report, err
	}
	return wrapState(final), report, nil
}

func wrapState(state []*ckks.Ciphertext) []*Ciphertext {
	out := make([]*Ciphertext, len(state))
	for i, ct := range state {
		out[i] = &Ciphertext{ct: ct}
	}
	return out
}

// unwrapState is a state slice as it is checkpointed or sent: every
// ciphertext settled (an Apply output pends until then).
func (c *Context) unwrapState(state []*Ciphertext) ([]*ckks.Ciphertext, error) {
	out := make([]*ckks.Ciphertext, len(state))
	for i, ct := range state {
		if ct == nil || ct.ct == nil {
			return nil, fherr.Wrap(fherr.ErrInvalidParams, "bitpacker: nil ciphertext in pipeline state (index %d)", i)
		}
		var err error
		if out[i], err = c.eval.Settle(ct.ct); err != nil {
			return nil, err
		}
	}
	return out, nil
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
