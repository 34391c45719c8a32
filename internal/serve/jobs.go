package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"bitpacker"
	"bitpacker/internal/durable"
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
// job after a server restart (the input blob and checkpoints live next
// to it in the job's directory).
type jobRecord struct {
	ID      string    `json:"id"`
	Tenant  string    `json:"tenant"`
	Profile string    `json:"profile"`
	Steps   []JobStep `json:"steps"`
	State   string    `json:"state"`
	Error   string    `json:"error,omitempty"`
	// ResumedFrom and StagesRun echo the last run's PipelineReport.
	ResumedFrom int `json:"resumed_from"`
	StagesRun   int `json:"stages_run"`
	// Sharded-execution summary (present when the manager runs jobs
	// through supervised worker processes).
	Shards         int   `json:"shards,omitempty"`
	Respawns       int64 `json:"respawns,omitempty"`
	Redispatches   int64 `json:"redispatches,omitempty"`
	DegradedShards int64 `json:"degraded_shards,omitempty"`
}

// JobShardOptions routes long jobs through fault-tolerant sharded
// execution (Context.RunSharded): the job runs in supervised bpworker
// processes with heartbeat failover and checkpointed re-dispatch, so a
// crashed or hung worker no longer means a dead job. Workers <= 0 keeps
// the single-process RunPipeline path.
type JobShardOptions struct {
	// Workers is the worker-process count per job. With Addrs set it
	// defaults to the fleet size.
	Workers int
	// WorkerCommand overrides worker-binary resolution (default: the
	// BITPACKER_BPWORKER environment variable, then bpworker on PATH,
	// else degraded in-process execution).
	WorkerCommand []string
	// WorkerEnv is appended to every worker's environment.
	WorkerEnv []string
	// Addrs routes jobs to a standing `bpworker -listen` fleet over TCP
	// instead of forking local workers. The fleet must share the job
	// directory filesystem. Full fleet loss degrades to in-process
	// execution, same as the fork path.
	Addrs []string
}

// JobManager runs long jobs with durable per-stage checkpoints: a job
// interrupted by a crash or restart is rescanned at startup and resumed
// from its latest intact checkpoint rather than recomputed. With
// sharding enabled the stages execute in supervised worker processes
// (Context.RunSharded); otherwise in-process via Context.RunPipeline.
type JobManager struct {
	dir   string
	reg   *Registry
	shard JobShardOptions

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
// any job left in the running state by a previous process.
func NewJobManager(dir string, reg *Registry, shard JobShardOptions) (*JobManager, error) {
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
			continue // unreadable record: leave the directory for inspection
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

// load reads a job's durable record.
func (jm *JobManager) load(id string) (*jobRecord, error) {
	data, err := os.ReadFile(filepath.Join(jm.jobDir(id), "job.json"))
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
// through durable.WriteFile: a crash or power loss leaves the
// previous file or the new one, never a torn or empty one. persist takes
// a copy, so the write and its two fsyncs need not happen under jm.mu.
func (jm *JobManager) persist(rec jobRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFile(filepath.Join(jm.jobDir(rec.ID), "job.json"), data, 0o644)
}

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
		return "", err
	}
	if err := p.admit(spec.Steps, input, 0); err != nil {
		return "", err
	}
	jm.mu.Lock()
	if jm.closed {
		jm.mu.Unlock()
		return "", ErrShutdown
	}
	jm.seq++
	id := fmt.Sprintf("job-%06d", jm.seq)
	for jm.jobs[id] != nil { // skip ids recovered from a previous process
		jm.seq++
		id = fmt.Sprintf("job-%06d", jm.seq)
	}
	rec := &jobRecord{ID: id, Tenant: spec.Tenant, Profile: spec.Profile, Steps: spec.Steps, State: JobRunning}
	jm.jobs[id] = rec
	jm.wg.Add(1)
	jm.mu.Unlock()

	if err := os.MkdirAll(jm.jobDir(id), 0o755); err == nil {
		err = durable.WriteFile(filepath.Join(jm.jobDir(id), "input.bin"), inputBlob, 0o644)
		if err == nil {
			err = jm.persist(*rec)
		}
	}
	jm.mu.Lock()
	if err != nil {
		delete(jm.jobs, id)
		jm.mu.Unlock()
		jm.wg.Done()
		return "", err
	}
	jm.mu.Unlock()
	go jm.run(rec)
	return id, nil
}

// run executes (or resumes) one job: stages from the durable spec,
// checkpoints in the job directory, the result blob written on success.
func (jm *JobManager) run(rec *jobRecord) {
	defer jm.wg.Done()
	err := jm.execute(rec)
	jm.mu.Lock()
	switch {
	case err != nil && errors.Is(err, bitpacker.ErrCanceled) && jm.runCtx.Err() != nil:
		// Shutdown drain, not a failure: the job's checkpoints are
		// durable, so leave it recorded as running and the next process
		// resumes it from the latest intact checkpoint.
	case errors.Is(err, errUnpublished):
		// The result exists but could not be made durable: a storage
		// fault, not a job fault. The record must not say done for an
		// output a power loss could tear; it stays running, and the next
		// process republishes from the final checkpoint.
		rec.Error = err.Error()
	case err != nil:
		rec.State = JobFailed
		rec.Error = err.Error()
	default:
		rec.State = JobDone
		rec.Error = ""
	}
	final := *rec
	jm.mu.Unlock()
	jm.persist(final)
}

func (jm *JobManager) execute(rec *jobRecord) error {
	p, err := jm.reg.profile(rec.Profile)
	if err != nil {
		return err
	}
	inputBlob, err := os.ReadFile(filepath.Join(jm.jobDir(rec.ID), "input.bin"))
	if err != nil {
		return err
	}
	initial, err := p.ctx.UnmarshalCiphertext(inputBlob)
	if err != nil {
		return err
	}
	if jm.shard.Workers > 0 || len(jm.shard.Addrs) > 0 {
		return jm.executeSharded(rec, p, initial)
	}
	final, report, err := p.ctx.RunProgram(jm.runCtx, rec.Steps, []*bitpacker.Ciphertext{initial},
		bitpacker.PipelineOptions{CheckpointDir: filepath.Join(jm.jobDir(rec.ID), "checkpoints")}, nil)
	jm.mu.Lock()
	rec.ResumedFrom = report.ResumedFrom
	rec.StagesRun = report.StagesRun
	jm.mu.Unlock()
	if err != nil {
		return err
	}
	return jm.publish(rec, p, final[0])
}

// errUnpublished marks a finished job whose output could not be written.
var errUnpublished = errors.New("serve: output not published")

// publish durably writes a finished job's output, which is what lets
// run() record it done.
func (jm *JobManager) publish(rec *jobRecord, p *profile, out *bitpacker.Ciphertext) error {
	blob, err := p.ctx.MarshalCiphertext(out)
	if err != nil {
		return err
	}
	if err := durable.WriteFile(filepath.Join(jm.jobDir(rec.ID), "output.bin"), blob, 0o644); err != nil {
		return fmt.Errorf("%w: %v", errUnpublished, err)
	}
	return nil
}

// executeSharded runs the job's steps through supervised worker
// processes. The exchange directory lives inside the job directory, so a
// server restart resumes from the finished shards' durable outputs.
func (jm *JobManager) executeSharded(rec *jobRecord, p *profile, initial *bitpacker.Ciphertext) error {
	final, report, err := p.ctx.RunSharded(jm.runCtx, rec.Steps,
		[]*bitpacker.Ciphertext{initial}, bitpacker.ShardOptions{
			Dir:           filepath.Join(jm.jobDir(rec.ID), "shards"),
			Workers:       jm.shard.Workers,
			WorkerCommand: jm.shard.WorkerCommand,
			WorkerEnv:     jm.shard.WorkerEnv,
			Addrs:         jm.shard.Addrs,
		})
	jm.mu.Lock()
	rec.Shards = report.Shards
	rec.Respawns = report.Stats.Respawns
	rec.Redispatches = report.Stats.Redispatches
	rec.DegradedShards = report.Stats.LocalShards
	rec.StagesRun = len(rec.Steps)
	jm.mu.Unlock()
	if err != nil {
		return err
	}
	return jm.publish(rec, p, final[0])
}

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

// Result returns a finished job's output ciphertext blob.
func (jm *JobManager) Result(id string) ([]byte, error) {
	rec, err := jm.Status(id)
	if err != nil {
		return nil, err
	}
	if rec.State != JobDone {
		return nil, fmt.Errorf("serve: job %s is %s", id, rec.State)
	}
	return os.ReadFile(filepath.Join(jm.jobDir(id), "output.bin"))
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
// them out: each running job is cut at its next checkpoint boundary
// (sharded jobs drain their worker fleet through the supervisor's
// cancellation path) and stays durably recorded as running, so the next
// process resumes it from the latest intact checkpoint. This is the
// SIGTERM path; Close is the wait-for-completion path.
func (jm *JobManager) Shutdown() {
	jm.mu.Lock()
	jm.closed = true
	jm.mu.Unlock()
	jm.cancelRuns()
	jm.wg.Wait()
}
