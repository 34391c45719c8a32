package serve

// SIGTERM drain through the supervisor: Server.Shutdown cuts an
// in-flight sharded job at its next checkpoint boundary instead of
// waiting it out or marking it failed. The durable record must stay
// "running", and a fresh server over the same job directory must resume
// it to completion with an output blob bit-identical to an
// uninterrupted run of the same job.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"bitpacker"
	"bitpacker/internal/chaos"
	"bitpacker/internal/frame"
)

func drainTestConfig() bitpacker.Config {
	return bitpacker.Config{
		Scheme:        bitpacker.BitPacker,
		LogN:          9,
		Levels:        3,
		ScaleBits:     40,
		QMinBits:      48,
		WordBits:      61,
		Seed:          13,
		KeyCacheBytes: 8 << 20,
	}
}

// drainTestServer runs its long jobs on two spawned workers, which
// inherit the test's environment: a process fault reaches them through
// t.Setenv of chaos.ProcFaultEnv.
func drainTestServer(t *testing.T, jobDir string) (*Server, *httptest.Server) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Options{
		Profiles: []ProfileConfig{{Name: "p", Params: drainTestConfig(), Window: 32}},
		JobDir:   jobDir,
		Shard: bitpacker.ShardOptions{
			Workers:       2,
			WorkerCommand: []string{exe},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, httptest.NewServer(srv)
}

// submitDrainJob posts the fixed four-step job and returns its id.
func submitDrainJob(t *testing.T, srv *Server, url string) string {
	t.Helper()
	register(t, url, "alice")
	p, err := srv.reg.profile("p")
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, p.ctx.Slots())
	for i := range in {
		in[i] = 0.01 * float64(i%7)
	}
	ct, err := p.ctx.EncryptReal(in)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := p.ctx.MarshalCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	spec, _ := json.Marshal(JobSpec{Tenant: "alice", Profile: "p", Steps: []JobStep{
		{Op: OpScale, Arg: 2}, {Op: OpOffset, Arg: 0.5}, {Op: OpNegate}, {Op: OpOffset, Arg: 1},
	}})
	WriteFrame(&body, FrameHeader, spec)
	WriteFrame(&body, FrameBlob, blob)
	res, err := http.Post(url+"/v1/job", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	var sub map[string]string
	json.NewDecoder(res.Body).Decode(&sub)
	res.Body.Close()
	if res.StatusCode != 200 || sub["id"] == "" {
		t.Fatalf("job submit: status %d, body %v", res.StatusCode, sub)
	}
	return sub["id"]
}

func fetchResultBlob(t *testing.T, url, id string) []byte {
	t.Helper()
	res, err := http.Get(url + "/v1/job/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	blob, err := frame.Expect(res.Body, FrameBlob, DefaultMaxBlobBytes)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestJobShardDrainResumesBitIdentical(t *testing.T) {
	// Baseline: the same job run to completion with no interruption.
	baseSrv, baseTS := drainTestServer(t, t.TempDir())
	defer baseSrv.Close()
	defer baseTS.Close()
	baseID := submitDrainJob(t, baseSrv, baseTS.URL)
	if rec := pollJob(t, baseTS.URL, baseID, 30*time.Second); rec.State != JobDone {
		t.Fatalf("baseline job ended %s: %s", rec.State, rec.Error)
	}
	want := fetchResultBlob(t, baseTS.URL, baseID)

	// Drained run: a hang fault freezes the worker at step 1 (step 0
	// already durably checkpointed), so the job is reliably mid-flight
	// when SIGTERM-equivalent Shutdown lands — well before the 2s hang
	// threshold — and cuts it through the supervisor's cancellation path.
	jobDir := t.TempDir()
	fault := chaos.ProcFault{Kind: chaos.ProcHang, Shard: -1, Step: 1, Times: 1}
	t.Setenv(chaos.ProcFaultEnv, fault.Encode())
	srv, ts := drainTestServer(t, jobDir)
	id := submitDrainJob(t, srv, ts.URL)
	time.Sleep(400 * time.Millisecond) // let shard 0's first step checkpoint
	ts.Close()
	srv.Shutdown()

	// The drained job must be durably recorded as still running — not
	// failed — so the next process knows to pick it up.
	rec, err := srv.jobs.load(id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != JobRunning {
		t.Fatalf("drained job durably recorded %q (error %q), want %q", rec.State, rec.Error, JobRunning)
	}

	// A fresh server over the same directory, its workers fault-free,
	// resumes it to done.
	t.Setenv(chaos.ProcFaultEnv, "")
	srv2, ts2 := drainTestServer(t, jobDir)
	defer srv2.Close()
	defer ts2.Close()
	final := pollJob(t, ts2.URL, id, 30*time.Second)
	if final.State != JobDone {
		t.Fatalf("resumed job ended %s: %s", final.State, final.Error)
	}
	got := fetchResultBlob(t, ts2.URL, id)
	if !bytes.Equal(got, want) {
		t.Fatalf("drained-and-resumed output differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}
