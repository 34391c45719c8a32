package shard

// White-box coverage for Options defaulting and validation: zero and
// negative tuning values select documented defaults, while an explicit
// heartbeat timeout below the beat interval — which would declare every
// worker hung at its first deadline check — is rejected with the typed
// parameter error before any worker is spawned.

import (
	"context"
	"errors"
	"testing"
	"time"

	"bitpacker/internal/engine"
	"bitpacker/internal/fherr"
)

func TestOptionsWithDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   Options
	}{
		{"zero", Options{}},
		{"negative", Options{Workers: -3, HeartbeatInterval: -time.Second, HeartbeatTimeout: -time.Second, ShardAttempts: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.in.withDefaults()
			if o.Workers != 2 {
				t.Errorf("Workers default = %d, want 2", o.Workers)
			}
			if o.HeartbeatInterval != 250*time.Millisecond {
				t.Errorf("HeartbeatInterval default = %v, want 250ms", o.HeartbeatInterval)
			}
			if o.HeartbeatTimeout != 8*o.HeartbeatInterval {
				t.Errorf("HeartbeatTimeout default = %v, want %v", o.HeartbeatTimeout, 8*o.HeartbeatInterval)
			}
			if o.ShardAttempts != 3 {
				t.Errorf("ShardAttempts default = %d, want 3", o.ShardAttempts)
			}
			if o.Logf == nil {
				t.Error("Logf not defaulted")
			}
		})
	}
}

func TestOptionsWorkersDefaultFollowsFleet(t *testing.T) {
	o := Options{Addrs: []string{"a:1", "b:2", "c:3"}}.withDefaults()
	if o.Workers != 3 {
		t.Fatalf("Workers = %d with 3 fleet addresses, want 3", o.Workers)
	}
	o = Options{Addrs: []string{"a:1"}, Workers: 5}.withDefaults()
	if o.Workers != 5 {
		t.Fatalf("explicit Workers overridden to %d", o.Workers)
	}
}

func TestOptionsValidate(t *testing.T) {
	ok := []Options{
		{}, // all defaults
		{HeartbeatInterval: 50 * time.Millisecond},                                          // timeout defaulted from interval
		{HeartbeatTimeout: time.Second},                                                     // above the default interval
		{HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: time.Second},           // explicit, ordered
		{HeartbeatInterval: -time.Second, HeartbeatTimeout: 300 * time.Millisecond},         // negative interval defaults to 250ms, below timeout
		{HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: -3 * time.Second},      // negative timeout defaults
		{HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: 50 * time.Millisecond}, // equal is allowed
		{Respawn: engine.RetryPolicy{MaxAttempts: 2, BreakerThreshold: 1}},                  // the fields the supervisor reads
	}
	for i, o := range ok {
		if err := o.Validate(); err != nil {
			t.Errorf("valid options %d rejected: %v", i, err)
		}
	}
	bad := []Options{
		{HeartbeatTimeout: 100 * time.Millisecond},                                    // below the default 250ms interval
		{HeartbeatInterval: time.Second, HeartbeatTimeout: 100 * time.Millisecond},    // below explicit interval
		{HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: time.Nanosecond}, // pathological
		{Respawn: engine.RetryPolicy{AttemptTimeout: time.Second}},                    // the supervisor has no per-attempt timeout
		{Respawn: engine.RetryPolicy{MaxAttempts: 2, Cooldown: time.Minute}},          // nor a breaker cooldown: refused, not ignored
	}
	for i, o := range bad {
		err := o.Validate()
		if err == nil {
			t.Errorf("contradictory options %d accepted", i)
			continue
		}
		if !errors.Is(err, fherr.ErrInvalidParams) {
			t.Errorf("contradictory options %d: %v, want ErrInvalidParams", i, err)
		}
	}
}

// TestRunRejectsInvalidOptions pins that Run enforces Validate before
// spawning anything.
func TestRunRejectsInvalidOptions(t *testing.T) {
	opts := Options{
		Dir:               t.TempDir(),
		WorkerCommand:     []string{"/bin/true"},
		HeartbeatInterval: time.Second,
		HeartbeatTimeout:  time.Millisecond,
	}
	cb := Callbacks{
		ShardDone: func(int, int) error { return nil },
		ExecLocal: func(context.Context, int, int) error { return nil },
	}
	stats, err := Run(context.Background(), opts, 1, nil, cb)
	if err == nil || !errors.Is(err, fherr.ErrInvalidParams) {
		t.Fatalf("Run accepted timeout < interval: %v", err)
	}
	if stats.Spawns != 0 {
		t.Fatalf("invalid options still spawned %d workers", stats.Spawns)
	}
}
