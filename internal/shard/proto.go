// Package shard supervises a fleet of disposable workers that execute a
// job's shards, and keeps the job alive under process- and network-level
// faults: crashed workers are respawned with backoff behind a per-worker
// circuit breaker, hung workers are detected by heartbeat deadline and
// SIGKILLed, dropped connections are redialed and their leases
// re-adopted, and a lost worker's leased shards are re-dispatched to
// survivors, who resume from the shard's last durable checkpoint. When
// no worker can be kept alive the supervisor degrades to in-process
// execution rather than failing the job.
//
// Every one of those decisions is made in one place: machine.go, a pure
// step(event) -> actions state machine that owns the ledger and the slot
// records and never touches a socket, a process or a clock, which is
// what lets a test explore its interleavings by the thousand. Run
// (shard.go) is its driver: one loop that feeds it events and performs
// its actions. There is one way to reach a worker — dial its address,
// send hello, read lines (session.go) — and the address is either a
// standing fleet member's (Options.Addrs) or that of a loopback member
// spawned for the slot (Options.WorkerCommand, child.go).
//
// The package is deliberately generic: it moves opaque shard IDs, not
// ciphertexts. The caller supplies callbacks that validate a completed
// shard's output, heal a shard's input, and execute a shard in-process
// (degraded mode); the bitpacker root package wires those to the
// checkpoint DirStore + v2 serialization substrate in Context.RunSharded,
// and internal/shard/worker implements the worker side of the protocol.
// Keeping ciphertext types out of this package is what lets the root
// package import it without a cycle.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"bitpacker/internal/durable"
)

// Environment keys. A process started with EnvDir in its environment is
// a spawned worker: it must serve that one exchange directory as a
// loopback fleet member (worker.Main) instead of running its normal
// main. Everything else a worker needs — slot index, beat period, job
// fingerprint — arrives in the hello.
const (
	// EnvDir is the job exchange directory (holds job.json, in/, out/,
	// ckpt/, chaos/).
	EnvDir = "BITPACKER_SHARD_DIR"
	// EnvWorkerBin, when set, names the worker executable Context.RunSharded
	// spawns (checked before bpworker on PATH).
	EnvWorkerBin = "BITPACKER_BPWORKER"
)

// Message types of the line-delimited JSON protocol. Every session is
// one socket: the supervisor opens it with a hello handshake and both
// directions ride it. Heartbeats share the stream with results, so the
// socket closing is the complete disconnection signal.
const (
	// Supervisor -> worker.
	MsgHello  = "hello"  // handshake: Dir/Fingerprint/Worker/BeatMs
	MsgAssign = "assign" // run shard Msg.Shard under lease Msg.Epoch
	MsgDrain  = "drain"  // finish nothing new, end the session

	// Worker -> supervisor.
	MsgReady  = "ready"  // context built; Shard/Epoch report any in-flight lease (Epoch 0 = idle)
	MsgBeat   = "beat"   // liveness; Shard/Step report progress
	MsgDone   = "done"   // shard Msg.Shard output durably written under Msg.Epoch
	MsgFail   = "fail"   // shard Msg.Shard failed under Msg.Epoch with Class/Err
	MsgReject = "reject" // handshake refused (fingerprint mismatch, foreign directory, unbuildable context); Err says why
)

// Failure classes carried by MsgFail. The supervisor maps them back to
// the typed-error taxonomy: a canceled worker is never charged to the
// circuit breaker as a crash.
const (
	ClassCanceled = "canceled"
	ClassFault    = "fault"
)

// Msg is one protocol line.
type Msg struct {
	Type  string `json:"t"`
	Shard int    `json:"shard,omitempty"`
	Step  int    `json:"step,omitempty"`
	Class string `json:"class,omitempty"`
	Err   string `json:"err,omitempty"`
	// Epoch is the lease fencing token: every assign carries the shard's
	// current epoch, and done/fail reports echo it. Epochs start at 1, so
	// Epoch 0 in a ready message means "no in-flight lease".
	Epoch int `json:"epoch,omitempty"`
	// Hello handshake fields.
	Dir         string `json:"dir,omitempty"`
	Fingerprint uint64 `json:"fp,omitempty"`
	Worker      int    `json:"worker,omitempty"`
	BeatMs      int    `json:"beat_ms,omitempty"`
}

// MaxLineBytes bounds one protocol line. A peer that emits a longer line
// is treated as dead: the limit keeps a hostile or corrupted stream from
// ballooning supervisor memory.
const MaxLineBytes = 1 << 20

// maxShard and maxStep bound the index fields a decoded message may
// carry. Jobs are partitioned into at most ~1M shards and programs are
// short; anything past these is a corrupted or hostile line.
const (
	maxShard = 1 << 20
	maxStep  = 1 << 20
)

// maxErrBytes caps the error text a fail line may carry into supervisor
// logs and wrapped errors.
const maxErrBytes = 4 << 10

// DecodeWorkerMessage parses and validates one protocol line from a
// worker. It is the supervisor's single entry point for bytes that
// crossed a process or network boundary: hostile, truncated, or
// oversized input must come back as an error, never a panic, and
// anything accepted carries only known message types with fields inside
// their documented bounds.
func DecodeWorkerMessage(line []byte) (Msg, error) {
	if len(line) > MaxLineBytes {
		return Msg{}, fmt.Errorf("shard: protocol line %d bytes exceeds limit %d", len(line), MaxLineBytes)
	}
	var m Msg
	if err := json.Unmarshal(line, &m); err != nil {
		return Msg{}, fmt.Errorf("shard: protocol line: %w", err)
	}
	switch m.Type {
	case MsgReady, MsgBeat, MsgDone, MsgFail, MsgReject, MsgHello, MsgAssign, MsgDrain:
	default:
		return Msg{}, fmt.Errorf("shard: unknown message type %q", m.Type)
	}
	if m.Shard < 0 || m.Shard > maxShard {
		return Msg{}, fmt.Errorf("shard: message shard %d out of range", m.Shard)
	}
	if m.Step < 0 || m.Step > maxStep {
		return Msg{}, fmt.Errorf("shard: message step %d out of range", m.Step)
	}
	if m.Epoch < 0 || m.Epoch > maxShard*maxAttemptsPerShard {
		return Msg{}, fmt.Errorf("shard: message epoch %d out of range", m.Epoch)
	}
	if m.Worker < 0 || m.Worker > maxShard {
		return Msg{}, fmt.Errorf("shard: message worker %d out of range", m.Worker)
	}
	switch m.Class {
	case "", ClassCanceled, ClassFault:
	default:
		return Msg{}, fmt.Errorf("shard: unknown failure class %q", m.Class)
	}
	if len(m.Err) > maxErrBytes {
		m.Err = m.Err[:maxErrBytes] + "..."
	}
	return m, nil
}

// maxAttemptsPerShard bounds how often one shard can plausibly be
// re-leased over a job's lifetime (epoch sanity ceiling, not a policy).
const maxAttemptsPerShard = 1 << 20

// OutputName is the stamp a worker writes into a shard's durable output
// frame: the supervisor accepts a completion only when the stamp matches
// the epoch it dispatched, which fences output files overwritten by a
// zombie worker holding a broken lease.
func OutputName(shard, epoch int) string {
	return fmt.Sprintf("shard-%d-e%d", shard, epoch)
}

// ErrStaleEpoch marks a completion whose durable output carries an
// older lease epoch than the supervisor dispatched — a fenced zombie
// write. The supervisor counts it separately from ordinary corruption
// and re-dispatches the shard.
var ErrStaleEpoch = errors.New("stale lease epoch")

// CrashExitCode is the exit status a worker uses for an induced fatal
// fault (chaos injection); any abnormal exit is treated the same way.
const CrashExitCode = 13

// JobFile is the durable job description at Dir/job.json. Config and
// Program are opaque to this package (the root package marshals its
// Config and ShardStep program into them; the worker unmarshals both and
// rebuilds a bit-identical Context from the same seed).
type JobFile struct {
	Version int `json:"version"`
	// Fingerprint hashes config+program+inputs; a mismatch against an
	// existing exchange directory means stale state from a different job
	// and everything under it is cleared before reuse.
	Fingerprint uint64          `json:"fingerprint"`
	Config      json.RawMessage `json:"config"`
	Program     json.RawMessage `json:"program"`
	// Shards lists the per-shard input sizes (shard i holds Shards[i]
	// ciphertexts); its length is the shard count.
	Shards []int `json:"shards"`
	// EngineWorkers caps each worker process's execution-engine
	// parallelism so W processes don't oversubscribe the host.
	EngineWorkers int `json:"engine_workers,omitempty"`
}

// JobFileVersion is the current JobFile schema version.
const JobFileVersion = 1

// Exchange-directory layout helpers. Inputs and outputs are
// pipeline.DirStore checkpoint files keyed by shard ID; ckpt/ holds one
// per-shard checkpoint directory the worker's pipeline resumes from.
func InDir(root string) string  { return filepath.Join(root, "in") }
func OutDir(root string) string { return filepath.Join(root, "out") }
func CkptDir(root string, shard int) string {
	return filepath.Join(root, "ckpt", fmt.Sprintf("shard-%04d", shard))
}
func ChaosDir(root string) string { return filepath.Join(root, "chaos") }

func jobFilePath(root string) string { return filepath.Join(root, "job.json") }

// WriteJobFile publishes the job description durably (temp file, fsync,
// rename, directory fsync — durable.WriteFile, like every other durable
// artifact in the exchange directory): every fleet hello is authenticated
// against this file, so a torn or vanished one fails the whole job.
func WriteJobFile(root string, jf JobFile) error {
	data, err := json.MarshalIndent(jf, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: marshal job file: %w", err)
	}
	if err := durable.WriteFile(jobFilePath(root), data, 0o644); err != nil {
		return fmt.Errorf("shard: publish job file: %w", err)
	}
	return nil
}

// ReadJobFile loads Dir/job.json. A missing file is reported as
// os.ErrNotExist for the caller to distinguish from corruption.
func ReadJobFile(root string) (JobFile, error) {
	data, err := os.ReadFile(jobFilePath(root))
	if err != nil {
		return JobFile{}, err
	}
	var jf JobFile
	if err := json.Unmarshal(data, &jf); err != nil {
		return JobFile{}, fmt.Errorf("shard: job file: %w", err)
	}
	if jf.Version != JobFileVersion {
		return JobFile{}, fmt.Errorf("shard: job file version %d (want %d)", jf.Version, JobFileVersion)
	}
	return jf, nil
}
