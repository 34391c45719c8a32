package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"bitpacker/internal/fherr"
)

// RetryPolicy tunes op-level fault recovery: how many times a detected
// fault is retried, how attempts back off, and when the circuit breaker
// declares the engine hard-broken.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation (first
	// attempt included). Zero or negative selects the default of 3.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it up to MaxDelay. Defaults: 1ms base, 100ms max.
	// Backoff sleeps are interruptible: a canceled context aborts the
	// wait immediately.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed drives the jitter PRNG. Jitter multiplies each backoff by a
	// factor in [0.5, 1.5) so synchronized retries decorrelate; the
	// seeded generator keeps test runs reproducible.
	Seed uint64
	// AttemptTimeout, when positive, bounds each individual attempt with
	// a context deadline derived from the threaded context.
	AttemptTimeout time.Duration
	// BreakerThreshold is the number of consecutive operations that must
	// exhaust their retry budget before the breaker opens and operations
	// fail fast with fherr.ErrCircuitOpen. Zero or negative selects the
	// default of 5.
	BreakerThreshold int
	// Cooldown is how long an open breaker stays closed to traffic.
	// After it elapses one trial operation is admitted (half-open): its
	// success closes the breaker, another exhaustion re-opens it. Zero
	// means the breaker only closes via Reset.
	Cooldown time.Duration
}

// WithDefaults fills the zero fields with the documented defaults.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 100 * time.Millisecond
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 5
	}
	return p
}

// Retrier re-runs operations whose failures look like transient faults
// (invariant violations from corrupted state, dropped engine tasks),
// with exponential backoff and a consecutive-failure circuit breaker.
//
// Error precedence, in order:
//
//   - Cancellation always wins: once the operation's context is
//     canceled, Do returns an error wrapping fherr.ErrCanceled
//     immediately — mid-backoff included — and never consumes further
//     attempts. A canceled operation is not a fault and does not touch
//     the breaker.
//   - Non-fault errors (level/scale mismatches, missing keys, exhausted
//     chains — deterministic API-contract failures) are returned as-is
//     on the first attempt; retrying cannot fix them.
//   - Fault errors (fherr.ErrInvariant, fherr.ErrEngineFault) are
//     retried up to the attempt budget. Exhaustion returns an error
//     wrapping both fherr.ErrFaultUnrecovered and the last cause, and
//     counts toward the breaker.
//
// A Retrier is safe for concurrent use.
type Retrier struct {
	policy RetryPolicy

	mu          sync.Mutex
	delays      *Backoff
	consecutive int       // ops that exhausted their budget since the last success
	open        bool      // breaker state
	openedAt    time.Time // when the breaker last opened

	// Counters for benchmarks and diagnostics.
	retries   int64 // re-attempts performed
	recovered int64 // ops that failed at least once but ultimately succeeded
	exhausted int64 // ops that spent the whole budget
}

// NewRetrier builds a retrier for the policy.
func NewRetrier(policy RetryPolicy) *Retrier {
	p := policy.WithDefaults()
	return &Retrier{policy: p, delays: NewBackoff(p)}
}

// Backoff computes a policy's delays between attempts: BaseDelay doubled
// per attempt up to MaxDelay, each multiplied by a jitter factor in
// [0.5, 1.5) drawn from the policy's seeded PRNG. It reads no clock and
// sleeps nowhere, so callers that keep their own time (the shard
// supervisor's state machine) share the one computation with Retrier.
// Not safe for concurrent use.
type Backoff struct {
	base, max time.Duration
	rng       *rand.Rand
}

// NewBackoff builds the delay sequence of a policy (defaults applied).
func NewBackoff(policy RetryPolicy) *Backoff {
	p := policy.WithDefaults()
	return &Backoff{base: p.BaseDelay, max: p.MaxDelay,
		rng: rand.New(rand.NewPCG(p.Seed, p.Seed^0xda3e39cb94b95bdb))}
}

// Delay is the wait after the attempt-th consecutive failure (1-based).
func (b *Backoff) Delay(attempt int) time.Duration {
	d := b.base << uint(attempt-1)
	if d > b.max || d <= 0 {
		d = b.max
	}
	return time.Duration(float64(d) * (0.5 + b.rng.Float64()))
}

// retryable reports whether an error class can plausibly clear on a
// re-run from retained inputs.
func retryable(err error) bool {
	return errors.Is(err, fherr.ErrInvariant) || errors.Is(err, fherr.ErrEngineFault)
}

// Do runs fn under the retry policy. op names the operation for error
// context. fn receives the (possibly deadline-bounded) attempt context.
func (r *Retrier) Do(ctx context.Context, op string, fn func(context.Context) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := r.admit(op); err != nil {
		return err
	}

	var lastErr error
	for attempt := 1; attempt <= r.policy.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return fherr.Wrap(fherr.ErrCanceled, "retry: %s attempt %d not started (%v)", op, attempt, err)
		}
		attemptCtx := ctx
		var cancel context.CancelFunc
		if r.policy.AttemptTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, r.policy.AttemptTimeout)
		}
		err := fn(attemptCtx)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			r.success(attempt)
			return nil
		}
		if errors.Is(err, fherr.ErrCanceled) && ctx.Err() != nil {
			// The caller's context died: cancellation wins over retry.
			return err
		}
		if !retryable(err) {
			return err
		}
		lastErr = err
		if attempt < r.policy.MaxAttempts {
			r.countRetry()
			if err := r.backoff(ctx, attempt); err != nil {
				return fherr.Wrap(fherr.ErrCanceled, "retry: %s canceled during backoff after attempt %d (%v)", op, attempt, err)
			}
		}
	}
	r.failure()
	return fmt.Errorf("retry: %s: %d attempts exhausted: %w (last: %w)",
		op, r.policy.MaxAttempts, fherr.ErrFaultUnrecovered, lastErr)
}

// admit applies the circuit breaker at operation entry.
func (r *Retrier) admit(op string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.open {
		return nil
	}
	if r.policy.Cooldown > 0 && time.Since(r.openedAt) >= r.policy.Cooldown {
		// Half-open: admit this operation as the trial. Push the window
		// forward so concurrent callers don't all rush in at once.
		r.openedAt = time.Now()
		return nil
	}
	return fherr.Wrap(fherr.ErrCircuitOpen,
		"retry: %s rejected (%d consecutive unrecovered operations; Reset or wait out the cooldown)", op, r.consecutive)
}

// backoff sleeps the jittered exponential delay for the given attempt,
// aborting early if ctx is canceled.
func (r *Retrier) backoff(ctx context.Context, attempt int) error {
	r.mu.Lock()
	d := r.delays.Delay(attempt)
	r.mu.Unlock()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

func (r *Retrier) success(attempt int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.consecutive = 0
	r.open = false
	if attempt > 1 {
		r.recovered++
	}
}

func (r *Retrier) failure() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.exhausted++
	r.consecutive++
	if r.consecutive >= r.policy.BreakerThreshold {
		r.open = true
		r.openedAt = time.Now()
	}
}

func (r *Retrier) countRetry() {
	r.mu.Lock()
	r.retries++
	r.mu.Unlock()
}

// CircuitOpen reports whether the breaker is currently rejecting
// operations (ignoring any cooldown that may have elapsed).
func (r *Retrier) CircuitOpen() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.open
}

// Reset closes the breaker and clears the consecutive-failure count,
// e.g. after the underlying fault source is fixed.
func (r *Retrier) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.open = false
	r.consecutive = 0
}

// Stats returns cumulative counters: re-attempts performed, operations
// recovered after at least one failure, and operations that exhausted
// their budget.
func (r *Retrier) Stats() (retries, recovered, exhausted int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries, r.recovered, r.exhausted
}
