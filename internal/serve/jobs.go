package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"bitpacker"
	"bitpacker/internal/durable"
	"bitpacker/internal/frame"
)

// Job states reported by GET /v1/job/{id}.
const (
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobStep is one pipeline stage of a long job: the same ops the eval
// endpoint serves, applied in sequence with a checkpoint after each.
type JobStep = bitpacker.ShardStep

// JobSpec is the header frame of POST /v1/job.
type JobSpec struct {
	Tenant  string    `json:"tenant"`
	Profile string    `json:"profile"`
	Steps   []JobStep `json:"steps"`
}

// jobRecord is the durable job.json — everything needed to resume the
// job after a server restart (the input blob and the shard exchange
// directory live next to it in the job's directory). Like input.bin and
// output.bin it is stored as one frame (internal/frame), so a flipped
// byte in any of the three is refused when it is read back instead of
// acted on.
type jobRecord struct {
	ID      string    `json:"id"`
	Tenant  string    `json:"tenant"`
	Profile string    `json:"profile"`
	Steps   []JobStep `json:"steps"`
	State   string    `json:"state"`
	Error   string    `json:"error,omitempty"`
	// StagesRun counts the steps of the last run; the rest echo its
	// ShardReport (the supervisor's counters stay zero in-process).
	StagesRun      int   `json:"stages_run"`
	Shards         int   `json:"shards,omitempty"`
	Respawns       int64 `json:"respawns,omitempty"`
	Redispatches   int64 `json:"redispatches,omitempty"`
	DegradedShards int64 `json:"degraded_shards,omitempty"`
}

// JobManager runs every long job as one Context.RunSharded call with
// its exchange directory inside the job's directory: a job interrupted
// by a crash or restart is rescanned at startup and resumed from its
// shards' intact checkpoints rather than recomputed. Whether the shards
// run in-process or on a worker fleet is the ShardOptions' choice.
type JobManager struct {
	dir   string
	reg   *Registry
	shard bitpacker.ShardOptions

	// runCtx is canceled by Shutdown to drain in-flight jobs: pipelines
	// and shard supervisors observe the cancellation at their next
	// checkpoint boundary, and run() keeps a drained job durably
	// "running" so the next process resumes it.
	runCtx     context.Context
	cancelRuns context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*jobRecord
	seq    int
	wg     sync.WaitGroup
	closed bool
}

// NewJobManager opens (or creates) the job state directory and resumes
// any job left in the running state by a previous process. Every job
// runs under shard, with Dir and Keep set by the manager.
func NewJobManager(dir string, reg *Registry, shard bitpacker.ShardOptions) (*JobManager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	jm := &JobManager{dir: dir, reg: reg, shard: shard, jobs: map[string]*jobRecord{}}
	jm.runCtx, jm.cancelRuns = context.WithCancel(context.Background())
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rec, err := jm.load(e.Name())
		if err != nil {
			continue // unreadable or corrupt record: leave the directory for inspection
		}
		jm.jobs[rec.ID] = rec
		if rec.State == JobRunning {
			jm.wg.Add(1)
			go jm.run(rec)
		}
	}
	return jm, nil
}

func (jm *JobManager) jobDir(id string) string { return filepath.Join(jm.dir, id) }

// writeFile durably replaces one of a job's files with data in one frame
// of the given kind.
func (jm *JobManager) writeFile(id, name string, kind byte, data []byte) error {
	head := frame.Header(kind, data)
	return durable.WriteFile(filepath.Join(jm.jobDir(id), name), 0o644, head[:], data)
}

// readFile reads one of a job's files back, refusing one whose frame
// fails.
func (jm *JobManager) readFile(id, name string, kind byte) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(jm.jobDir(id), name))
	if err != nil {
		return nil, err
	}
	if data, err = frame.Only(data, kind); err != nil {
		return nil, fmt.Errorf("serve: job %s: %s: %w: %w", id, name, errCorrupt, err)
	}
	return data, nil
}

// load reads a job's durable record.
func (jm *JobManager) load(id string) (*jobRecord, error) {
	data, err := jm.readFile(id, "job.json", frame.Meta)
	if err != nil {
		return nil, err
	}
	rec := &jobRecord{}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, err
	}
	if rec.ID != id {
		return nil, fmt.Errorf("serve: job record %q claims id %q", id, rec.ID)
	}
	return rec, nil
}

// persist durably replaces the job record. Every file a job is
// acknowledged by (input.bin, job.json, output.bin) reaches the disk
// through writeFile: a crash or power loss leaves the previous file or
// the new one, never a torn or empty one. persist takes a copy, so the
// write and its two fsyncs need not happen under jm.mu.
func (jm *JobManager) persist(rec jobRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return jm.writeFile(rec.ID, "job.json", frame.Meta, data)
}

// badJob is a submission the client got wrong — an input blob that does
// not decode, or steps that do not plan — as opposed to a storage
// failure while recording it, which is the server's.
type badJob struct{ error }

func (e badJob) Unwrap() error { return e.error }

// Submit durably records a new job and starts it. The input ciphertext
// blob is durable before job.json says running, so a crash between the
// two leaves nothing half-started, and an id is returned only for a job
// a restart will find.
func (jm *JobManager) Submit(spec JobSpec, inputBlob []byte) (string, error) {
	p, err := jm.reg.profile(spec.Profile)
	if err != nil {
		return "", err
	}
	if _, err := p.lookup(spec.Tenant); err != nil {
		return "", err
	}
	// Decode and plan eagerly: a malformed blob, or steps the input's
	// levels cannot finish, fail the submission, not the job.
	input, err := p.ctx.UnmarshalCiphertext(inputBlob)
	if err != nil {
		return "", badJob{err}
	}
	if err := p.admit(spec.Steps, input, 0); err != nil {
		return "", badJob{err}
	}
	jm.mu.Lock()
	if jm.closed {
		jm.mu.Unlock()
		return "", ErrShutdown
	}
	// An id is claimed by creating its directory: one that exists —
	// a recovered job's, or one the startup scan could not load — is
	// skipped, never written into.
	var id string
	for {
		jm.seq++
		id = fmt.Sprintf("job-%06d", jm.seq)
		if err = os.Mkdir(jm.jobDir(id), 0o755); !errors.Is(err, fs.ErrExist) {
			break
		}
	}
	if err != nil {
		jm.mu.Unlock()
		return "", err
	}
	rec := &jobRecord{ID: id, Tenant: spec.Tenant, Profile: spec.Profile, Steps: spec.Steps, State: JobRunning}
	jm.jobs[id] = rec
	jm.wg.Add(1)
	jm.mu.Unlock()

	err = jm.writeFile(id, "input.bin", frame.Ciphertext, inputBlob)
	if err == nil {
		err = jm.persist(*rec)
	}
	if err != nil {
		jm.mu.Lock()
		delete(jm.jobs, id)
		jm.mu.Unlock()
		os.RemoveAll(jm.jobDir(id))
		jm.wg.Done()
		return "", err
	}
	go jm.run(rec)
	return id, nil
}

// run executes (or resumes) one job: steps from the durable spec,
// checkpoints in the job directory, the result blob written on success.
func (jm *JobManager) run(rec *jobRecord) {
	defer jm.wg.Done()
	err := jm.execute(rec)
	jm.mu.Lock()
	switch {
	case errors.Is(err, bitpacker.ErrCanceled) && jm.runCtx.Err() != nil:
		// Shutdown drain, not a failure: the job's input and its finished
		// shards' final checkpoints are durable, so leave it recorded as
		// running and the next process resumes it.
	case errors.Is(err, errUnpublished):
		// The result exists but could not be made durable: a storage
		// fault, not a job fault. The record must not say done for an
		// output a power loss could tear; it stays running, and the next
		// process republishes from the shards' kept final checkpoints.
		rec.Error = err.Error()
	case err != nil:
		rec.State = JobFailed
		rec.Error = err.Error()
	default:
		// Published: the exchange directory has served its purpose.
		// Failing to clear it costs disk, not the result.
		rec.State = JobDone
		rec.Error = ""
		if err := os.RemoveAll(filepath.Join(jm.jobDir(rec.ID), "shards")); err != nil {
			rec.Error = fmt.Sprintf("serve: clear exchange directory: %v", err)
		}
	}
	final := *rec
	jm.mu.Unlock()
	jm.persist(final)
}

// execute runs (or resumes) the job's steps from its input, then
// publishes the output durably, which is what lets run() record it done.
// The exchange directory is shards/ inside the job directory and is
// kept through the run: a restart keeps the shards whose final
// checkpoint (their output) landed and recomputes the rest from
// input.bin, and a failed publish is republished from them.
func (jm *JobManager) execute(rec *jobRecord) error {
	p, err := jm.reg.profile(rec.Profile)
	if err != nil {
		return err
	}
	inputBlob, err := jm.readFile(rec.ID, "input.bin", frame.Ciphertext)
	if err != nil {
		return err
	}
	initial, err := p.ctx.UnmarshalCiphertext(inputBlob)
	if err != nil {
		return err
	}
	opts := jm.shard
	opts.Dir, opts.Keep = filepath.Join(jm.jobDir(rec.ID), "shards"), true
	final, report, err := p.ctx.RunSharded(jm.runCtx, rec.Steps, []*bitpacker.Ciphertext{initial}, opts)
	jm.mu.Lock()
	rec.StagesRun = len(rec.Steps)
	rec.Shards = report.Shards
	rec.Respawns = report.Stats.Respawns
	rec.Redispatches = report.Stats.Redispatches
	rec.DegradedShards = report.Stats.LocalShards
	jm.mu.Unlock()
	if err != nil {
		return err
	}
	blob, err := p.ctx.MarshalCiphertext(final[0])
	if err != nil {
		return err
	}
	if err := jm.writeFile(rec.ID, "output.bin", frame.Ciphertext, blob); err != nil {
		return fmt.Errorf("%w: %v", errUnpublished, err)
	}
	return nil
}

// errUnpublished marks a finished job whose output could not be written.
var errUnpublished = errors.New("serve: output not published")

// errCorrupt marks a job file whose frame failed when it was read back.
var errCorrupt = errors.New("serve: stored file corrupt")

// Status returns a copy of the job's current record.
func (jm *JobManager) Status(id string) (jobRecord, error) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	rec, ok := jm.jobs[id]
	if !ok {
		return jobRecord{}, fmt.Errorf("serve: unknown job %q", id)
	}
	return *rec, nil
}

// Result returns a finished job's output ciphertext blob. An output that
// fails its frame is refused, never served as a result.
func (jm *JobManager) Result(id string) ([]byte, error) {
	rec, err := jm.Status(id)
	if err != nil {
		return nil, err
	}
	if rec.State != JobDone {
		return nil, fmt.Errorf("serve: job %s is %s", id, rec.State)
	}
	return jm.readFile(id, "output.bin", frame.Ciphertext)
}

// Close stops intake and waits for in-flight jobs to finish (their
// checkpoints make even a hard kill resumable, but a clean close leaves
// them durably done or failed, never ambiguously running).
func (jm *JobManager) Close() {
	jm.mu.Lock()
	jm.closed = true
	jm.mu.Unlock()
	jm.wg.Wait()
}

// Shutdown stops intake and drains in-flight jobs instead of waiting
// them out: each running job is cut at its next step boundary (a job on
// a fleet drains it through the supervisor's cancellation path) and
// stays durably recorded as running, so the next process resumes it
// from its finished shards and its input. This is the SIGTERM path;
// Close is the wait-for-completion path.
func (jm *JobManager) Shutdown() {
	jm.mu.Lock()
	jm.closed = true
	jm.mu.Unlock()
	jm.cancelRuns()
	jm.wg.Wait()
}
