package chaos

import (
	"encoding/json"
	"fmt"
	"os"
)

// NetFaultEnv is the environment variable carrying a network-level fault
// specification to shard workers (fleet members and, for the message
// faults, forked workers too). Like ProcFaultEnv, the fault fires at a
// step boundary and draws from an O_EXCL token budget under the job's
// chaos directory, so a re-dispatched shard meeting the same point does
// not re-fire an exhausted fault.
const NetFaultEnv = "BITPACKER_CHAOS_NET"

// Network-level fault kinds. The first two only make sense on the TCP
// transport (they act on the connection); the message faults
// (duplicate/stale done, beat delay) are transport-agnostic
// protocol corruption that the supervisor must survive on both.
const (
	// NetConnDrop closes the worker's supervisor connection at the step
	// boundary while compute continues — a dropped TCP session the
	// supervisor should heal by reconnecting and re-adopting the lease.
	NetConnDrop = "conn-drop"
	// NetPartition closes the connection AND refuses re-handshakes for
	// DelayMs — a network partition. A partition outliving the heartbeat
	// deadline must break the lease and trigger checkpointed re-dispatch,
	// exactly like a crash.
	NetPartition = "partition"
	// NetDupDone reports the shard's completion twice — a duplicated or
	// retransmitted done the supervisor must detect and apply once.
	NetDupDone = "dup-done"
	// NetStaleDone prefixes the real completion with a done stamped one
	// epoch older whose batch is not the output (the shard's input) — a
	// zombie's late report the epoch fence must reject, batch and all,
	// without disturbing the current lease.
	NetStaleDone = "stale-done"
	// NetBeatDelay suppresses heartbeats for DelayMs while compute and
	// the connection stay up — transient network delay on the beat path.
	// A delay below the supervisor's timeout must NOT break the lease.
	NetBeatDelay = "beat-delay"
)

// NetFault specifies one network-level fault, with the same matching and
// budget semantics as ProcFault: fires at 0-based step boundary Step of
// shard Shard (-1 = any shard), at most Times times job-wide.
type NetFault struct {
	Kind  string `json:"kind"`
	Shard int    `json:"shard"`
	Step  int    `json:"step"`
	Times int    `json:"times,omitempty"`
	// DelayMs is the partition span (NetPartition) or heartbeat
	// suppression span (NetBeatDelay).
	DelayMs int `json:"delay_ms,omitempty"`
}

// Encode serializes the fault for NetFaultEnv.
func (f NetFault) Encode() string {
	data, err := json.Marshal(f)
	if err != nil {
		panic("chaos: marshal NetFault: " + err.Error()) // (unreachable) plain struct always marshals
	}
	return string(data)
}

// ParseNetFault decodes a NetFaultEnv value. Empty input means no fault
// is configured.
func ParseNetFault(env string) (*NetFault, error) {
	if env == "" {
		return nil, nil
	}
	var f NetFault
	if err := json.Unmarshal([]byte(env), &f); err != nil {
		return nil, fmt.Errorf("chaos: parse %s: %w", NetFaultEnv, err)
	}
	if f.Times <= 0 {
		f.Times = 1
	}
	return &f, nil
}

// FireNet checks whether the environment-specified network fault fires
// at this (shard, step) point and, if so, claims one firing token under
// tokenDir and returns the fault for the caller to enact. Returns nil
// when no fault is configured, the point does not match, or the firing
// budget is spent.
func FireNet(tokenDir string, shard, step int) *NetFault {
	f, err := ParseNetFault(os.Getenv(NetFaultEnv))
	if err != nil || f == nil {
		return nil
	}
	if (f.Shard >= 0 && f.Shard != shard) || f.Step != step {
		return nil
	}
	if !claimToken(tokenDir, fmt.Sprintf("net-%s-s%d-t%d", f.Kind, f.Shard, f.Step), f.Times) {
		return nil
	}
	return f
}
