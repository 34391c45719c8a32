package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ProcFaultEnv is the environment variable carrying a process-level
// fault specification to shard workers. The supervisor's tests set it in
// the workers' environment; a worker consults FireProc at every step
// boundary and enacts the returned fault (crash, hang, output
// corruption) at exactly the specified point. These are the faults only
// the worker's own process can carry out — an exit status, a wedged
// process the supervisor must SIGKILL, bytes that go through a real
// decode. A slow, cut, partitioned or replaying link is a link's to
// inject, and the shard package's tests do it with a relay.
const ProcFaultEnv = "BITPACKER_CHAOS_PROC"

// Process-level fault kinds.
const (
	// ProcCrash exits the worker abnormally (shard.CrashExitCode) at the
	// step boundary — a segfault-class death mid-shard.
	ProcCrash = "crash"
	// ProcHang wedges the worker: compute stops AND heartbeats stop, so
	// only the supervisor's deadline can recover the shard.
	ProcHang = "hang"
	// ProcCorruptOut garbles a byte of the shard's output batch before
	// the done that carries it is written, then exits abnormally — a
	// corruption the batch's own frames must reject at the supervisor's
	// verify, which re-queues the shard.
	ProcCorruptOut = "corrupt-out"
)

// ProcFault specifies one process-level fault. Times bounds how often it
// fires across ALL worker processes of the job (including respawns):
// each firing claims a token file under the job's chaos directory with
// O_EXCL, so a respawned worker meeting the same (shard, step) point
// does not re-fire an exhausted fault and the job converges.
type ProcFault struct {
	Kind string `json:"kind"`
	// Shard restricts the fault to one shard; -1 matches any shard.
	Shard int `json:"shard"`
	// Step is the 0-based step boundary at which the fault fires.
	Step int `json:"step"`
	// Times is the total firing budget (default 1).
	Times int `json:"times,omitempty"`
}

// Encode serializes the fault for ProcFaultEnv.
func (f ProcFault) Encode() string {
	data, err := json.Marshal(f)
	if err != nil {
		panic("chaos: marshal ProcFault: " + err.Error()) // (unreachable) plain struct always marshals
	}
	return string(data)
}

// ParseProcFault decodes a ProcFaultEnv value. Empty input means no
// fault is configured.
func ParseProcFault(env string) (*ProcFault, error) {
	if env == "" {
		return nil, nil
	}
	var f ProcFault
	if err := json.Unmarshal([]byte(env), &f); err != nil {
		return nil, fmt.Errorf("chaos: parse %s: %w", ProcFaultEnv, err)
	}
	if f.Times <= 0 {
		f.Times = 1
	}
	return &f, nil
}

// FireProc checks whether the environment-specified process fault fires
// at this (shard, step) point and, if so, claims one firing token under
// tokenDir (shared by all workers of the job) and returns the fault for
// the caller to enact. Returns nil when no fault is configured, the
// point does not match, or the firing budget is spent.
func FireProc(tokenDir string, shard, step int) *ProcFault {
	f, err := ParseProcFault(os.Getenv(ProcFaultEnv))
	if err != nil || f == nil {
		return nil
	}
	if (f.Shard >= 0 && f.Shard != shard) || f.Step != step {
		return nil
	}
	if !claimToken(tokenDir, fmt.Sprintf("%s-s%d-t%d", f.Kind, f.Shard, f.Step), f.Times) {
		return nil
	}
	return f
}

// claimToken atomically claims one of budget firing slots for key by
// creating token files with O_EXCL — the cross-process analogue of
// Burst's atomic countdown. Returns false once all slots are taken (or
// the token directory is unusable, failing safe to "no fault").
func claimToken(dir, key string, budget int) bool {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false
	}
	for i := 0; i < budget; i++ {
		path := filepath.Join(dir, fmt.Sprintf("%s-%02d.token", key, i))
		fd, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fd.Close()
			return true
		}
		if !os.IsExist(err) {
			return false
		}
	}
	return false
}
