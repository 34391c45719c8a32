package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"bitpacker/internal/fherr"
)

// fastPolicy keeps test backoffs tiny.
func fastPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   50 * time.Microsecond,
		MaxDelay:    200 * time.Microsecond,
		Seed:        42,
	}
}

func TestRetryRecoversTransientFault(t *testing.T) {
	r := NewRetrier(fastPolicy())
	calls := 0
	err := r.Do(context.Background(), "mul", func(context.Context) error {
		calls++
		if calls < 3 {
			return fherr.Wrap(fherr.ErrEngineFault, "task dropped")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	retries, recovered, exhausted := r.Stats()
	if retries != 2 || recovered != 1 || exhausted != 0 {
		t.Fatalf("stats = (%d, %d, %d), want (2, 1, 0)", retries, recovered, exhausted)
	}
}

func TestRetryInvariantFaultIsRetryable(t *testing.T) {
	r := NewRetrier(fastPolicy())
	calls := 0
	err := r.Do(context.Background(), "rescale", func(context.Context) error {
		calls++
		if calls == 1 {
			return fherr.Wrap(fherr.ErrInvariant, "RRNS mismatch on c0 coefficient 5")
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("err = %v, calls = %d; want nil, 2", err, calls)
	}
}

func TestRetryNonFaultErrorsReturnImmediately(t *testing.T) {
	r := NewRetrier(fastPolicy())
	calls := 0
	want := fherr.Wrap(fherr.ErrLevelMismatch, "level 3 vs 1")
	err := r.Do(context.Background(), "add", func(context.Context) error {
		calls++
		return want
	})
	if !errors.Is(err, fherr.ErrLevelMismatch) {
		t.Fatalf("err = %v, want ErrLevelMismatch", err)
	}
	if calls != 1 {
		t.Fatalf("deterministic error retried: %d calls", calls)
	}
	if _, _, exhausted := r.Stats(); exhausted != 0 {
		t.Fatal("API-contract failure counted toward the breaker")
	}
}

func TestRetryExhaustionWrapsBothSentinels(t *testing.T) {
	r := NewRetrier(fastPolicy())
	calls := 0
	err := r.Do(context.Background(), "keyswitch", func(context.Context) error {
		calls++
		return fherr.Wrap(fherr.ErrEngineFault, "persistent drop")
	})
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if !errors.Is(err, fherr.ErrFaultUnrecovered) {
		t.Fatalf("exhaustion not classified ErrFaultUnrecovered: %v", err)
	}
	if !errors.Is(err, fherr.ErrEngineFault) {
		t.Fatalf("exhaustion lost its last cause: %v", err)
	}
}

func TestRetryCancellationWins(t *testing.T) {
	// Canceled before the first attempt: no calls at all.
	r := NewRetrier(fastPolicy())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := r.Do(ctx, "mul", func(context.Context) error { calls++; return nil })
	if !errors.Is(err, fherr.ErrCanceled) || calls != 0 {
		t.Fatalf("err = %v, calls = %d; want ErrCanceled, 0", err, calls)
	}

	// Canceled during backoff: the sleep aborts early.
	p := fastPolicy()
	p.BaseDelay = time.Hour
	p.MaxDelay = time.Hour
	r = NewRetrier(p)
	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- r.Do(ctx, "mul", func(context.Context) error {
			return fherr.Wrap(fherr.ErrEngineFault, "drop")
		})
	}()
	time.Sleep(time.Millisecond)
	cancel()
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not abort its backoff on cancellation")
	}
	if !errors.Is(err, fherr.ErrCanceled) {
		t.Fatalf("backoff cancellation: err = %v, want ErrCanceled", err)
	}

	// fn reporting the caller's cancellation is passed through, not retried.
	r = NewRetrier(fastPolicy())
	ctx, cancel = context.WithCancel(context.Background())
	calls = 0
	err = r.Do(ctx, "mul", func(c context.Context) error {
		calls++
		cancel()
		return fherr.Wrap(fherr.ErrCanceled, "dispatch canceled")
	})
	if !errors.Is(err, fherr.ErrCanceled) || calls != 1 {
		t.Fatalf("err = %v, calls = %d; want ErrCanceled, 1", err, calls)
	}
	if _, _, exhausted := r.Stats(); exhausted != 0 {
		t.Fatal("cancellation counted toward the breaker")
	}
}

func TestRetryCircuitBreaker(t *testing.T) {
	p := fastPolicy()
	p.MaxAttempts = 2
	p.BreakerThreshold = 2
	r := NewRetrier(p)
	fail := func(context.Context) error { return fherr.Wrap(fherr.ErrInvariant, "corrupt") }

	for i := 0; i < 2; i++ {
		if err := r.Do(context.Background(), "op", fail); !errors.Is(err, fherr.ErrFaultUnrecovered) {
			t.Fatalf("op %d: %v, want ErrFaultUnrecovered", i, err)
		}
	}
	if !r.CircuitOpen() {
		t.Fatal("breaker did not open at the threshold")
	}
	calls := 0
	err := r.Do(context.Background(), "op", func(context.Context) error { calls++; return nil })
	if !errors.Is(err, fherr.ErrCircuitOpen) {
		t.Fatalf("open breaker returned %v, want ErrCircuitOpen", err)
	}
	if calls != 0 {
		t.Fatal("open breaker still admitted the operation")
	}

	r.Reset()
	if r.CircuitOpen() {
		t.Fatal("Reset left the breaker open")
	}
	if err := r.Do(context.Background(), "op", func(context.Context) error { return nil }); err != nil {
		t.Fatalf("after Reset: %v", err)
	}
}

func TestRetryBreakerHalfOpen(t *testing.T) {
	p := fastPolicy()
	p.MaxAttempts = 1
	p.BreakerThreshold = 1
	p.Cooldown = 2 * time.Millisecond
	r := NewRetrier(p)

	err := r.Do(context.Background(), "op", func(context.Context) error {
		return fherr.Wrap(fherr.ErrEngineFault, "drop")
	})
	if !errors.Is(err, fherr.ErrFaultUnrecovered) || !r.CircuitOpen() {
		t.Fatalf("setup: err = %v, open = %v", err, r.CircuitOpen())
	}
	// Inside the cooldown the breaker rejects.
	if err := r.Do(context.Background(), "op", func(context.Context) error { return nil }); !errors.Is(err, fherr.ErrCircuitOpen) {
		t.Fatalf("within cooldown: %v, want ErrCircuitOpen", err)
	}
	// After the cooldown one trial is admitted; success closes the breaker.
	time.Sleep(3 * time.Millisecond)
	if err := r.Do(context.Background(), "op", func(context.Context) error { return nil }); err != nil {
		t.Fatalf("half-open trial: %v", err)
	}
	if r.CircuitOpen() {
		t.Fatal("successful trial did not close the breaker")
	}
}

// TestRetryHealsDroppedDispatch exercises the real fault path end to end:
// the chaos hook drops an engine task, DispatchCtx reports ErrEngineFault,
// and the retrier re-runs the dispatch after the fault clears.
func TestRetryHealsDroppedDispatch(t *testing.T) {
	var installed atomic.Bool
	SetFaultHook(func(task int) bool { return installed.Load() && task == 0 })
	defer SetFaultHook(nil)
	installed.Store(true)

	r := NewRetrier(fastPolicy())
	var sum atomic.Int64
	attempts := 0
	err := r.Do(context.Background(), "dispatch", func(ctx context.Context) error {
		attempts++
		if attempts == 2 {
			installed.Store(false) // the transient fault clears
		}
		sum.Store(0)
		return DispatchCtx(ctx, 8, 1<<16, func(i int) { sum.Add(int64(i)) })
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	if got := sum.Load(); got != 28 {
		t.Fatalf("dispatch result = %d, want 28", got)
	}
}
