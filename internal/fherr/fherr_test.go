package fherr

import (
	"errors"
	"strings"
	"testing"
)

func TestWrapSatisfiesIs(t *testing.T) {
	for _, s := range sentinels {
		err := Wrap(s, "op at level %d", 3)
		if !errors.Is(err, s) {
			t.Errorf("Wrap(%v) does not satisfy errors.Is", s)
		}
		if !strings.Contains(err.Error(), "op at level 3") {
			t.Errorf("Wrap lost context: %v", err)
		}
		// Wrapped errors of one class must not match another.
		for _, other := range sentinels {
			if other != s && errors.Is(err, other) {
				t.Errorf("Wrap(%v) spuriously matches %v", s, other)
			}
		}
	}
}

// TestRecoverySentinelChaining covers the double-wrapped forms the retry
// layer produces: exhaustion wraps both ErrFaultUnrecovered and the last
// attempt's cause, while cancellation takes precedence and never reports
// exhaustion.
func TestRecoverySentinelChaining(t *testing.T) {
	cause := Wrap(ErrEngineFault, "dispatch dropped 1 task")
	exhausted := Wrap(ErrFaultUnrecovered, "op Mul after 3 attempts: %v", cause)
	if !errors.Is(exhausted, ErrFaultUnrecovered) {
		t.Fatal("exhaustion does not satisfy ErrFaultUnrecovered")
	}
	if errors.Is(exhausted, ErrCanceled) {
		t.Fatal("exhaustion must not look canceled")
	}

	canceled := Wrap(ErrCanceled, "op Mul canceled during attempt 2")
	if errors.Is(canceled, ErrFaultUnrecovered) {
		t.Fatal("cancellation must win over retry exhaustion")
	}
	if !errors.Is(canceled, ErrCanceled) {
		t.Fatal("cancellation lost its sentinel")
	}

	open := Wrap(ErrCircuitOpen, "5 consecutive unrecovered ops")
	if !errors.Is(open, ErrCircuitOpen) || errors.Is(open, ErrFaultUnrecovered) {
		t.Fatalf("circuit-open classification wrong: %v", open)
	}
}

func TestNoiseBudgetError(t *testing.T) {
	err := error(&NoiseBudgetError{Op: "Rescale", BudgetBits: -1.5, GuardBits: 2, Action: "bootstrap"})
	if !errors.Is(err, ErrNoiseBudget) {
		t.Fatal("NoiseBudgetError does not unwrap to ErrNoiseBudget")
	}
	var nbe *NoiseBudgetError
	if !errors.As(err, &nbe) {
		t.Fatal("errors.As failed")
	}
	if nbe.Action != "bootstrap" {
		t.Fatalf("Action = %q", nbe.Action)
	}
	if !strings.Contains(err.Error(), "bootstrap") {
		t.Fatalf("message lacks action: %v", err)
	}
}
