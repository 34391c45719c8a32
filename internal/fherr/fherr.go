// Package fherr is the typed error taxonomy of the FHE library. Every
// recoverable failure surfaced by the public API or the internal
// evaluator paths wraps exactly one of the sentinel errors below, so
// callers can dispatch on failure class with errors.Is / errors.As
// without parsing message strings:
//
//	ct, err := ctx.Add(a, b)
//	if errors.Is(err, fherr.ErrLevelMismatch) { ... adjust and retry ... }
//
// The package is a leaf: it imports only the standard library and is
// shared by engine, ring, ckks, chaos and the public API.
package fherr

import (
	"errors"
	"fmt"
)

// Sentinel errors. Each one names a failure class; concrete errors wrap
// them with operation context (operand levels, the missing Galois
// element, the exhausted budget, ...).
var (
	// ErrLevelMismatch: two operands sit at different levels of the
	// modulus chain (or an operation would move a ciphertext the wrong
	// way along it). Recover by Adjust-ing the shallower operand down.
	ErrLevelMismatch = errors.New("level mismatch")

	// ErrScaleMismatch: operand scales differ beyond the canonical
	// tolerance. Recover by Rescale/Adjust so scales re-align.
	ErrScaleMismatch = errors.New("scale mismatch")

	// ErrMissingKey: the evaluation-key set lacks the relinearization or
	// Galois key an operation needs. Recover by regenerating keys with
	// the required rotations (Config.Rotations / Conjugation).
	ErrMissingKey = errors.New("missing evaluation key")

	// ErrChainExhausted: the modulus chain has no level left below the
	// ciphertext (rescale/adjust at level 0). Recover by bootstrapping
	// or re-planning the circuit with more levels.
	ErrChainExhausted = errors.New("modulus chain exhausted")

	// ErrInvariant: a ciphertext failed its structural invariants
	// (moduli/level/NTT-domain/degree/metadata consistency). This means
	// memory corruption, a serialization bug, or out-of-band tampering;
	// the ciphertext must be discarded.
	ErrInvariant = errors.New("ciphertext invariant violated")

	// ErrCanceled: the operation observed a canceled or expired
	// context.Context and stopped early. The partial result was
	// discarded and pooled scratch returned.
	ErrCanceled = errors.New("operation canceled")

	// ErrNoiseBudget: the tracked noise bound came too close to the
	// ciphertext scale; decrypting now would yield garbage rather than
	// an approximation. See NoiseBudgetError.Action for the suggested
	// recovery.
	ErrNoiseBudget = errors.New("noise budget exhausted")

	// ErrEngineFault: the execution engine completed a dispatch with one
	// or more tasks unexecuted (a dropped job). The result is
	// incomplete and must be discarded.
	ErrEngineFault = errors.New("execution engine fault")

	// ErrInvalidParams: a parameter, chain or transform description is
	// malformed (wrong lengths, out-of-range levels, ...).
	ErrInvalidParams = errors.New("invalid parameters")

	// ErrFaultUnrecovered: a detected fault (invariant violation, RRNS
	// mismatch, dropped engine task) persisted through the retry budget.
	// The wrapped cause is the last attempt's failure. Recover by
	// restoring from a checkpoint (see internal/pipeline) or recomputing
	// from clean inputs.
	//
	// Precedence: cancellation always wins over retry — once the
	// operation's context is canceled, the retrier stops immediately and
	// the error wraps ErrCanceled, never ErrFaultUnrecovered, no matter
	// how many retry attempts remained.
	ErrFaultUnrecovered = errors.New("fault not recovered within retry budget")

	// ErrCircuitOpen: the retrier's circuit breaker tripped after too
	// many consecutive unrecovered operations, so the engine is treated
	// as hard-broken and operations fail fast instead of burning retry
	// budgets. Recover by fixing the underlying fault source and calling
	// Retrier.Reset (or waiting out the configured cool-down).
	ErrCircuitOpen = errors.New("retry circuit breaker open")
)

// Wrap attaches a sentinel to a formatted operation context, producing
// an error for which errors.Is(err, sentinel) holds.
func Wrap(sentinel error, format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), sentinel)
}

var sentinels = []error{
	ErrLevelMismatch, ErrScaleMismatch, ErrMissingKey, ErrChainExhausted,
	ErrInvariant, ErrCanceled, ErrNoiseBudget, ErrEngineFault,
	ErrInvalidParams, ErrFaultUnrecovered, ErrCircuitOpen,
}

// Typed reports whether err already carries one of the sentinels. A
// layer that classifies the errors of the layer below wraps only the
// untyped ones, so a typed refusal from deeper down keeps its class.
func Typed(err error) bool {
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// NoiseBudgetError reports an exhausted (or nearly exhausted) noise
// budget together with the recovery the evaluator suggests. It unwraps
// to ErrNoiseBudget.
type NoiseBudgetError struct {
	// Op is the operation whose output tripped the guard.
	Op string
	// BudgetBits is the remaining budget (log2(scale) - log2(noise
	// bound)) of the offending ciphertext, in bits. Negative means the
	// estimated noise already exceeds the scale.
	BudgetBits float64
	// GuardBits is the configured minimum budget the output fell below.
	GuardBits float64
	// Action is the suggested recovery: "rescale" (the scale is
	// inflated after a multiplication), "adjust" (levels remain; drop
	// to a cheaper level and re-plan), or "bootstrap" (the chain is
	// exhausted; only a refresh restores budget).
	Action string
}

func (e *NoiseBudgetError) Error() string {
	return fmt.Sprintf("%s: %.1f bits of noise budget remain (guard %.1f); suggested action: %s: %v",
		e.Op, e.BudgetBits, e.GuardBits, e.Action, ErrNoiseBudget)
}

// Unwrap makes errors.Is(err, ErrNoiseBudget) hold.
func (e *NoiseBudgetError) Unwrap() error { return ErrNoiseBudget }
