package shard

// White-box coverage for Options defaulting and validation: zero and
// negative tuning values select documented defaults, a beat interval a
// hello cannot carry is rejected with the typed parameter error before
// any worker is spawned, and every heartbeat deadline is derived from the
// interval.

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"bitpacker/internal/fherr"
)

func TestOptionsWithDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   Options
	}{
		{"zero", Options{}},
		{"negative", Options{Workers: -3, HeartbeatInterval: -time.Second, ShardAttempts: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.in.withDefaults()
			if o.Workers != tc.in.Workers {
				t.Errorf("Workers %d became %d: RunSharded resolves it, Run takes it as given", tc.in.Workers, o.Workers)
			}
			if o.HeartbeatInterval != 250*time.Millisecond {
				t.Errorf("HeartbeatInterval default = %v, want 250ms", o.HeartbeatInterval)
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

func TestOptionsValidate(t *testing.T) {
	ok := []Options{
		{}, // all defaults
		{HeartbeatInterval: 50 * time.Millisecond},
		{HeartbeatInterval: -time.Second}, // negative interval defaults to 250ms
		{HeartbeatInterval: MinBeat},
		{HeartbeatInterval: MaxBeat},
		{Respawn: RespawnPolicy{MaxAttempts: 2, BreakerThreshold: 1}},
	}
	for i, o := range ok {
		if err := o.Validate(); err != nil {
			t.Errorf("valid options %d rejected: %v", i, err)
		}
	}
	bad := []Options{
		{HeartbeatInterval: 500 * time.Microsecond}, // the hello would carry 0 ms: beats at a period the member refuses
		{HeartbeatInterval: MaxBeat + time.Millisecond},
	}
	for i, o := range bad {
		err := o.Validate()
		if err == nil {
			t.Errorf("invalid options %d accepted", i)
			continue
		}
		if !errors.Is(err, fherr.ErrInvalidParams) {
			t.Errorf("invalid options %d: %v, want ErrInvalidParams", i, err)
		}
	}
}

// TestRunRejectsInvalidOptions pins that Run enforces Validate before
// spawning anything, and takes no fleet it cannot reach: no slot, or
// neither a worker command nor an address (RunSharded resolves both, and
// routes a job without them in-process).
func TestRunRejectsInvalidOptions(t *testing.T) {
	valid := Options{Dir: t.TempDir(), Workers: 1, WorkerCommand: []string{"/bin/true"}}
	collect := func(int, []byte) error { return nil }
	for name, mutate := range map[string]func(*Options){
		"sub-ms interval": func(o *Options) { o.HeartbeatInterval = 500 * time.Microsecond },
		"no slot":         func(o *Options) { o.Workers = 0 },
		"no command":      func(o *Options) { o.WorkerCommand = nil },
	} {
		opts := valid
		mutate(&opts)
		stats, err := Run(context.Background(), opts, 1, [][]byte{nil}, Limit{}, nil, collect)
		if !errors.Is(err, fherr.ErrInvalidParams) {
			t.Fatalf("%s: Run returned %v, want ErrInvalidParams", name, err)
		}
		if stats.Spawns != 0 {
			t.Fatalf("%s: invalid options still spawned %d workers", name, stats.Spawns)
		}
	}
}

// TestHeartbeatDeadlineDerived pins the one heartbeat deadline, eight
// intervals, at every use: with a 40 ms interval the machine arms the
// handshake deadline 320 ms after the attach and the lease's 320 ms after
// the worker's last message, a session's send may take 320 ms, and one
// dial 640 ms.
func TestHeartbeatDeadlineDerived(t *testing.T) {
	opts := Options{Dir: "/d", Workers: 1, WorkerCommand: []string{"w"}, HeartbeatInterval: 40 * time.Millisecond}.withDefaults()
	const want = 320 * time.Millisecond
	t0 := time.Unix(1_000_000, 0)
	m, _ := newMachine(opts, 1, nil, t0)
	sl := &m.slots[0]
	at := t0.Add(10 * time.Millisecond)
	m.step(event{kind: evAttached, now: at, peer: "p"})
	if sl.state != slotHandshaking || sl.deadline != at.Add(want) {
		t.Fatalf("after attach: state %v, deadline %v after the attach; want handshaking, %v", sl.state, sl.deadline.Sub(at), want)
	}
	at = at.Add(50 * time.Millisecond)
	m.step(event{kind: evMsg, now: at, msg: Msg{Type: MsgReady, Shard: -1}})
	if sl.state != slotLeased || sl.deadline != at.Add(want) {
		t.Fatalf("after ready: state %v, deadline %v after the ready; want leased, %v", sl.state, sl.deadline.Sub(at), want)
	}
	at = at.Add(70 * time.Millisecond)
	m.step(event{kind: evMsg, now: at, msg: Msg{Type: MsgBeat, Shard: sl.shard, Epoch: sl.epoch}})
	if sl.deadline != at.Add(want) {
		t.Fatalf("after a beat: deadline %v after it, want %v", sl.deadline.Sub(at), want)
	}

	if got := opts.dialTimeout(); got != 2*want {
		t.Errorf("dial timeout %v, want %v", got, 2*want)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			io.Copy(io.Discard, c) // until the session closes
			c.Close()
		}
	}()
	sess, err := dial(context.Background(), opts, 1, 0, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.close()
	if sess.timeout != want {
		t.Errorf("session send timeout %v, want %v", sess.timeout, want)
	}
}
