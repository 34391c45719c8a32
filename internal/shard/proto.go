// Package shard supervises a fleet of disposable workers that execute a
// job's shards, and keeps the job alive under process- and network-level
// faults: crashed workers are respawned with backoff behind a per-worker
// circuit breaker, hung workers are detected by heartbeat deadline and
// SIGKILLed, dropped connections are redialed and their leases
// re-adopted, and a lost worker's leased shards are re-dispatched to
// survivors, who recompute it unless its final checkpoint landed. When
// no worker can be kept alive the supervisor hands the job back
// (ErrFleetLost) with the shards it did not finish: it runs no shard
// itself, and the caller fails the job or runs them in-process.
//
// Every one of those decisions is made in one place: machine.go, a pure
// step(event) -> actions state machine that owns the ledger and the slot
// records and never touches a socket, a process or a clock, which is
// what lets a test explore its interleavings by the thousand. Run
// (shard.go) is its driver: one loop that feeds it events and performs
// its actions. There is one way to reach a worker — dial its address,
// send hello, read frames (session.go) — and the address is either a
// standing fleet member's (Options.Addrs) or that of a loopback member
// spawned for the slot (Options.WorkerCommand, child.go).
//
// The worker side's decisions are made here too: member.go is the pure
// core of one fleet slot (Member), which internal/shard/worker drives
// with sockets, a ticker and the compute, and which the tests' model
// fleet steps under the supervisor's core, so a schedule search covers
// both ends of the protocol as they ship.
//
// The package is deliberately generic: it moves shard IDs and opaque
// batches, not ciphertexts. A shard's input batch rides its assign and
// its output batch rides the done, each as one frame after the message;
// the caller supplies the inputs and the callback that validates and
// keeps a completed shard's output. Its options are the caller's too:
// Options is bitpacker.ShardOptions. The bitpacker root package wires
// Run to its ciphertext batch encoding and per-shard final checkpoints in
// Context.RunSharded, whose in-process route runs a job with no fleet and
// the shards a lost one left unfinished, and internal/shard/worker
// drives the worker side of the protocol. Keeping ciphertext types
// out of this package is what lets the root package import it without a
// cycle.
package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"bitpacker/internal/durable"
	"bitpacker/internal/frame"
)

// Environment keys. A process started with EnvDir in its environment is
// a spawned worker: it must serve that one exchange directory as a
// loopback fleet member (worker.Main) instead of running its normal
// main. Everything else a worker needs — slot index, beat period, job
// fingerprint — arrives in the hello.
const (
	// EnvDir is the job exchange directory (holds job.json, ckpt/ and,
	// under chaos, chaos/).
	EnvDir = "BITPACKER_SHARD_DIR"
	// EnvWorkerBin, when set, names the worker executable Context.RunSharded
	// spawns (checked before bpworker on PATH).
	EnvWorkerBin = "BITPACKER_BPWORKER"
)

// Message types of the protocol: each message is one JSON object in one
// Meta frame (internal/frame); an assign and a done are followed by one
// Body frame carrying the shard's batch (Msg.Batch). Every session is one
// socket: the supervisor opens it with a hello handshake and both
// directions ride it. Heartbeats share the stream with results, so the
// socket closing is the complete disconnection signal.
const (
	// Supervisor -> worker.
	MsgHello  = "hello"  // handshake: Dir/Fingerprint/Worker/BeatMs
	MsgAssign = "assign" // run shard Msg.Shard under lease Msg.Epoch on the input batch that follows
	MsgDrain  = "drain"  // finish nothing new, end the session

	// Worker -> supervisor.
	MsgReady  = "ready"  // context built; Shard/Epoch report any in-flight lease (Epoch 0 = idle)
	MsgBeat   = "beat"   // liveness; Shard/Step report progress
	MsgDone   = "done"   // shard Msg.Shard finished under Msg.Epoch; its output batch follows
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

// Msg is one protocol message.
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
	Batch       []byte `json:"-"` // an assign's input or a done's output, in the frame after the message's
}

// carriesBatch reports whether a message of type t has a batch frame.
func carriesBatch(t string) bool { return t == MsgAssign || t == MsgDone }

// Limit bounds the batch frame that follows an assign or a done: shard
// i's batch holds exactly Counts[i] ciphertexts (JobFile.Shards) of at
// most CiphertextBytes each (the encoding of a top-level ciphertext of
// the job's chain). Both ends work it out from the job, so it is no
// option; the zero Limit admits no batch at all.
type Limit struct {
	Counts          []int
	CiphertextBytes int
}

// ReadBatch reads the batch frame of shard's assign or done: one Body
// frame, refused from its header when longer than Counts[shard]
// ciphertexts can be, holding exactly that many Ciphertext frames and
// then End. Only the outer checksum is checked here; the inner frames
// guard the content where the batch is decoded.
func (l Limit) ReadBatch(r io.Reader, shard int) ([]byte, error) {
	if shard < 0 || shard >= len(l.Counts) {
		return nil, fmt.Errorf("shard: batch for shard %d of %d", shard, len(l.Counts))
	}
	n := l.Counts[shard]
	bound := int64(n)*int64(frame.HeaderLen+l.CiphertextBytes) + frame.HeaderLen
	batch, err := frame.Expect(r, frame.Body, uint32(min(bound, math.MaxUint32)))
	if err != nil {
		return nil, fmt.Errorf("shard: shard %d batch: %w", shard, err)
	}
	rest := batch
	for i := 0; ; i++ {
		kind, ct, next, err := frame.Split(rest)
		switch {
		case err != nil:
			return nil, fmt.Errorf("shard: shard %d batch, frame %d: %w", shard, i, err)
		case kind == frame.End && len(ct) == 0 && len(next) == 0:
			if i != n {
				return nil, fmt.Errorf("shard: shard %d batch holds %d ciphertexts, want %d", shard, i, n)
			}
			return batch, nil
		case kind != frame.Ciphertext:
			return nil, fmt.Errorf("shard: shard %d batch, frame %d: kind %d", shard, i, kind)
		case i >= n:
			return nil, fmt.Errorf("shard: shard %d batch holds more than %d ciphertexts", shard, n)
		case len(ct) > l.CiphertextBytes:
			return nil, fmt.Errorf("shard: shard %d batch, ciphertext %d: %d bytes, limit is %d", shard, i, len(ct), l.CiphertextBytes)
		}
		rest = next
	}
}

// MaxMsgBytes bounds one protocol message. A peer that declares a longer
// one is treated as dead: the limit keeps a hostile or corrupted stream
// from ballooning supervisor memory.
const MaxMsgBytes = 1 << 20

// maxShard and maxStep bound the index fields a decoded message may
// carry. Jobs are partitioned into at most ~1M shards and programs are
// short; anything past these is a corrupted or hostile message.
const (
	maxShard = 1 << 20
	maxStep  = 1 << 20
)

// maxErrBytes caps the error text a fail message may carry into supervisor
// logs and wrapped errors.
const maxErrBytes = 4 << 10

// DecodeWorkerMessage parses and validates one protocol message (a
// frame's payload) from a worker. It is the supervisor's single entry point for bytes that
// crossed a process or network boundary: hostile, truncated, or
// oversized input must come back as an error, never a panic, and
// anything accepted carries only known message types with fields inside
// their documented bounds.
func DecodeWorkerMessage(payload []byte) (Msg, error) {
	if len(payload) > MaxMsgBytes {
		return Msg{}, fmt.Errorf("shard: protocol message %d bytes exceeds limit %d", len(payload), MaxMsgBytes)
	}
	var m Msg
	if err := json.Unmarshal(payload, &m); err != nil {
		return Msg{}, fmt.Errorf("shard: protocol message: %w", err)
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

// CrashExitCode is the exit status a worker uses for an induced fatal
// fault (chaos injection); any abnormal exit is treated the same way.
const CrashExitCode = 13

// JobFile is the durable job description at Dir/job.json (JSON in one
// Meta frame). Config and
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

// Exchange-directory layout helpers. ckpt/ holds one per-shard
// checkpoint directory the worker's pipeline resumes from; a finished
// shard's last checkpoint is its output, which is what a rerun resumes.
func CkptDir(root string, shard int) string {
	return filepath.Join(root, "ckpt", fmt.Sprintf("shard-%04d", shard))
}
func ChaosDir(root string) string { return filepath.Join(root, "chaos") }

func jobFilePath(root string) string { return filepath.Join(root, "job.json") }

// WriteJobFile publishes the job description durably (temp file, fsync,
// rename, directory fsync — durable.WriteFile, like every other durable
// artifact in the exchange directory): every fleet hello is
// authenticated against this file, so a torn or corrupted one fails it.
func WriteJobFile(root string, jf JobFile) error {
	data, err := json.MarshalIndent(jf, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: marshal job file: %w", err)
	}
	if err := durable.WriteFile(jobFilePath(root), 0o644, frame.Append(nil, frame.Meta, data)); err != nil {
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
	if data, err = frame.Only(data, frame.Meta); err != nil {
		return JobFile{}, fmt.Errorf("shard: job file: %w", err)
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
