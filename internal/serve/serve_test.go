package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bitpacker"
	"bitpacker/internal/chaos"
)

// testServer builds a one-profile server for the HTTP tests.
func testServer(t *testing.T, mutate func(*ProfileConfig), jobDir string) (*Server, *profile) {
	t.Helper()
	cfg := ProfileConfig{
		Name: "p",
		Params: bitpacker.Config{
			Scheme:        bitpacker.BitPacker,
			LogN:          9,
			Levels:        3,
			ScaleBits:     40,
			QMinBits:      48,
			WordBits:      61,
			Seed:          13,
			KeyCacheBytes: 8 << 20,
		},
		Window:        32,
		MaxBatch:      8,
		FlushInterval: 2 * time.Millisecond,
		QueueDepth:    128,
		Packing:       true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(Options{Profiles: []ProfileConfig{cfg}, JobDir: jobDir})
	if err != nil {
		t.Fatal(err)
	}
	p, err := srv.reg.profile("p")
	if err != nil {
		t.Fatal(err)
	}
	return srv, p
}

// register registers a tenant over HTTP and returns its window start.
func register(t *testing.T, url, tenant string) RegisterResponse {
	t.Helper()
	body, _ := json.Marshal(RegisterRequest{Profile: "p", Tenant: tenant})
	res, err := http.Post(url+"/v1/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("register %s: status %d", tenant, res.StatusCode)
	}
	var rr RegisterResponse
	if err := json.NewDecoder(res.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return rr
}

// evalHTTP performs one framed eval round trip, returning the HTTP
// status; on 200 the decoded result header and blob are returned too.
func evalHTTP(t *testing.T, url string, hdr EvalHeader, blob []byte) (int, *EvalResult, []byte) {
	t.Helper()
	var body bytes.Buffer
	hj, _ := json.Marshal(hdr)
	if err := WriteFrame(&body, FrameHeader, hj); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&body, FrameBlob, blob); err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(url+"/v1/eval", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		return res.StatusCode, nil, nil
	}
	resHdrJSON, err := expectFrame(res.Body, FrameHeader, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	var resHdr EvalResult
	if err := json.Unmarshal(resHdrJSON, &resHdr); err != nil {
		t.Fatal(err)
	}
	outBlob, err := expectFrame(res.Body, FrameBlob, DefaultMaxBlobBytes)
	if err != nil {
		t.Fatal(err)
	}
	return 200, &resHdr, outBlob
}

// TestServeHTTPEval: the full framed round trip — register, upload,
// evaluate, download, decrypt — lands the right values in [0, Window).
func TestServeHTTPEval(t *testing.T) {
	srv, p := testServer(t, nil, "")
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rr := register(t, ts.URL, "alice")
	vals := tenantValues(2, rr.Window)
	in := make([]float64, rr.Slots)
	copy(in[rr.WindowStart:], vals)
	ct, err := p.ctx.EncryptReal(in)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := p.ctx.MarshalCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	status, resHdr, outBlob := evalHTTP(t, ts.URL,
		EvalHeader{Profile: "p", Tenant: "alice", Op: OpScale, Arg: 3}, blob)
	if status != 200 {
		t.Fatalf("eval status %d", status)
	}
	out, err := p.ctx.UnmarshalCiphertext(outBlob)
	if err != nil {
		t.Fatal(err)
	}
	if out.Level() != resHdr.Level {
		t.Fatalf("result header level %d, blob level %d", resHdr.Level, out.Level())
	}
	got, err := p.ctx.DecryptReal(out)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if math.Abs(got[i]-3*v) > 1e-2 {
			t.Fatalf("slot %d: got %v, want %v", i, got[i], 3*v)
		}
	}

	// Unknown tenant and unknown op are client errors, not 5xx.
	if status, _, _ := evalHTTP(t, ts.URL, EvalHeader{Profile: "p", Tenant: "mallory", Op: OpScale}, blob); status != 404 {
		t.Fatalf("unknown tenant: status %d, want 404", status)
	}
	if status, _, _ := evalHTTP(t, ts.URL, EvalHeader{Profile: "p", Tenant: "alice", Op: "cube"}, blob); status != 400 {
		t.Fatalf("unknown op: status %d, want 400", status)
	}
	if status, _, _ := evalHTTP(t, ts.URL, EvalHeader{Profile: "p", Tenant: "alice", Op: OpScale}, []byte("junk")); status != 400 {
		t.Fatalf("junk blob: status %d, want 400", status)
	}
	// So is a request the chain cannot finish (the op's levels plus the
	// extraction mask's one), and one that is not slot-wise: refused before
	// the scheduler sees it.
	before := p.sched.Stats()
	for _, tc := range []struct {
		op    string
		level int
	}{{OpQuartic, 1}, {OpQuartic, 2}, {OpSquare, 0}, {OpSquare, 1}, {OpScale, 1}, {OpNegate, 0}, {bitpacker.ShardOpRotate, 3}} {
		low, err := p.ctx.Adjust(ct, tc.level)
		if err != nil {
			t.Fatal(err)
		}
		lowBlob, err := p.ctx.MarshalCiphertext(low)
		if err != nil {
			t.Fatal(err)
		}
		if status, _, _ := evalHTTP(t, ts.URL, EvalHeader{Profile: "p", Tenant: "alice", Op: tc.op, Arg: 1}, lowBlob); status != 400 {
			t.Fatalf("%s at level %d: status %d, want 400", tc.op, tc.level, status)
		}
	}
	if after := p.sched.Stats(); after != before {
		t.Fatalf("refused requests moved the scheduler's counters: %+v -> %+v", before, after)
	}
	if n := srv.FiveXX(); n != 0 {
		t.Fatalf("server wrote %d 5xx responses", n)
	}
}

// TestServeBackpressure: a full queue answers 429 with Retry-After
// instead of parking the request, and every accepted request still
// completes.
func TestServeBackpressure(t *testing.T) {
	srv, p := testServer(t, func(cfg *ProfileConfig) {
		cfg.QueueDepth = 1
		cfg.FlushInterval = 150 * time.Millisecond
	}, "")
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rr := register(t, ts.URL, "alice")
	in := make([]float64, rr.Slots)
	in[0] = 0.25
	ct, err := p.ctx.EncryptReal(in)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := p.ctx.MarshalCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}

	const n = 12
	var mu sync.Mutex
	counts := map[int]int{}
	sawRetryAfter := false
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body bytes.Buffer
			hj, _ := json.Marshal(EvalHeader{Profile: "p", Tenant: "alice", Op: OpNegate})
			WriteFrame(&body, FrameHeader, hj)
			WriteFrame(&body, FrameBlob, blob)
			res, err := http.Post(ts.URL+"/v1/eval", "application/octet-stream", &body)
			if err != nil {
				t.Error(err)
				return
			}
			defer res.Body.Close()
			mu.Lock()
			counts[res.StatusCode]++
			if res.StatusCode == 429 && res.Header.Get("Retry-After") != "" {
				sawRetryAfter = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if counts[200]+counts[429] != n {
		t.Fatalf("unexpected statuses: %v", counts)
	}
	if counts[429] == 0 {
		t.Fatalf("depth-1 queue under %d concurrent requests produced no 429s: %v", n, counts)
	}
	if !sawRetryAfter {
		t.Fatal("429 responses carried no Retry-After header")
	}
	if n := srv.FiveXX(); n != 0 {
		t.Fatalf("server wrote %d 5xx responses", n)
	}
}

// TestJobLifecycle: submit a two-step job over HTTP, poll to done,
// fetch and decrypt the result.
func TestJobLifecycle(t *testing.T) {
	srv, p := testServer(t, nil, t.TempDir())
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	register(t, ts.URL, "alice")

	in := make([]float64, p.ctx.Slots())
	for i := range in {
		in[i] = 0.01 * float64(i%5)
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
	spec, _ := json.Marshal(JobSpec{Tenant: "alice", Profile: "p",
		Steps: []JobStep{{Op: OpScale, Arg: 2}, {Op: OpOffset, Arg: 0.5}}})
	WriteFrame(&body, FrameHeader, spec)
	WriteFrame(&body, FrameBlob, blob)
	res, err := http.Post(ts.URL+"/v1/job", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	var sub map[string]string
	json.NewDecoder(res.Body).Decode(&sub)
	res.Body.Close()
	if res.StatusCode != 200 || sub["id"] == "" {
		t.Fatalf("job submit: status %d, body %v", res.StatusCode, sub)
	}

	rec := pollJob(t, ts.URL, sub["id"], 10*time.Second)
	if rec.State != JobDone {
		t.Fatalf("job ended %s: %s", rec.State, rec.Error)
	}
	if rec.StagesRun != 2 {
		t.Fatalf("job ran %d stages, want 2", rec.StagesRun)
	}

	// Steps that outrun the input's three levels are the client's error:
	// 400 with the typed message, and no job directory.
	body.Reset()
	spec, _ = json.Marshal(JobSpec{Tenant: "alice", Profile: "p",
		Steps: []JobStep{{Op: OpQuartic}, {Op: OpSquare}, {Op: OpScale, Arg: 2}}})
	WriteFrame(&body, FrameHeader, spec)
	WriteFrame(&body, FrameBlob, blob)
	res, err = http.Post(ts.URL+"/v1/job", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	var refusal map[string]string
	json.NewDecoder(res.Body).Decode(&refusal)
	res.Body.Close()
	if res.StatusCode != 400 || !strings.Contains(refusal["error"], bitpacker.ErrChainExhausted.Error()) {
		t.Fatalf("too-deep job: status %d, body %v; want 400 naming %q", res.StatusCode, refusal, bitpacker.ErrChainExhausted)
	}
	if dirs, _ := filepath.Glob(filepath.Join(srv.jobs.dir, "job-*")); len(dirs) != 1 {
		t.Fatalf("job directories after a refused submission: %v, want only the first job's", dirs)
	}
	if n := srv.FiveXX(); n != 0 {
		t.Fatalf("server wrote %d 5xx responses", n)
	}

	res, err = http.Get(ts.URL + "/v1/job/" + sub["id"] + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	outBlob, err := expectFrame(res.Body, FrameBlob, DefaultMaxBlobBytes)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.ctx.UnmarshalCiphertext(outBlob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.ctx.DecryptReal(out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		want := 2*in[i] + 0.5
		if math.Abs(got[i]-want) > 1e-2 {
			t.Fatalf("slot %d: got %v, want %v", i, got[i], want)
		}
	}
}

func pollJob(t *testing.T, url, id string, timeout time.Duration) jobRecord {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		res, err := http.Get(url + "/v1/job/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var rec jobRecord
		json.NewDecoder(res.Body).Decode(&rec)
		res.Body.Close()
		if rec.State != JobRunning {
			return rec
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after %v", id, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// orphanJob leaves job-000042 (scale by 2, negate) in jobDir the way a
// dead process would: durable record in the running state and input blob,
// no result. A context with the profile's exact parameters plays the dead
// process, and the record is testdata/parent-job.json, written by the
// commit before JobStep became bitpacker.ShardStep: the schema a restart
// must keep reading.
func orphanJob(t *testing.T, jobDir string) (in []float64) {
	t.Helper()
	cfg := bitpacker.Config{
		Scheme: bitpacker.BitPacker, LogN: 9, Levels: 3, ScaleBits: 40,
		QMinBits: 48, WordBits: 61, Seed: 13, KeyCacheBytes: 8 << 20,
	}
	writer, err := bitpacker.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in = make([]float64, writer.Slots())
	for i := range in {
		in[i] = 0.02 * float64(i%3)
	}
	ct, err := writer.EncryptReal(in)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := writer.MarshalCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(jobDir, "job-000042")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "input.bin"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := os.ReadFile(filepath.Join("testdata", "parent-job.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job.json"), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	return in
}

// TestJobUnpublishedOutputStaysRunning: a job is recorded done only after
// its output is durable. When publishing output.bin fails (here: a
// non-empty directory squats on the name, so the rename cannot land) the
// record — in memory and on disk — must still say running, with no result
// served and no temp file left, so that the next process republishes.
func TestJobUnpublishedOutputStaysRunning(t *testing.T) {
	jobDir := t.TempDir()
	orphanJob(t, jobDir)
	dir := filepath.Join(jobDir, "job-000042")
	if err := os.MkdirAll(filepath.Join(dir, "output.bin", "squatter"), 0o755); err != nil {
		t.Fatal(err)
	}
	srv, _ := testServer(t, nil, jobDir)
	srv.Close() // waits the resumed job out
	rec, err := srv.jobs.Status("job-000042")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != JobRunning || rec.Error == "" {
		t.Fatalf("unpublished job recorded %q (error %q), want running with the publish error", rec.State, rec.Error)
	}
	onDisk, err := srv.jobs.load("job-000042")
	if err != nil || onDisk.State != JobRunning {
		t.Fatalf("durable record after a failed publish: %+v, %v; want running", onDisk, err)
	}
	if _, err := srv.jobs.Result("job-000042"); err == nil {
		t.Fatal("a result was served for a job whose output was never published")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(left) != 0 {
		t.Fatalf("failed publish left temp files behind: %v", left)
	}
}

// TestJobResumeAfterRestart: a job directory left in the running state
// by a dead process (durable record + input blob, no result) is picked
// up and driven to completion by the next server's startup scan.
func TestJobResumeAfterRestart(t *testing.T) {
	jobDir := t.TempDir()
	in := orphanJob(t, jobDir)

	srv, p := testServer(t, nil, jobDir)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	got := pollJob(t, ts.URL, "job-000042", 10*time.Second)
	if got.State != JobDone {
		t.Fatalf("resumed job ended %s: %s", got.State, got.Error)
	}
	if want := []JobStep{{Op: OpScale, Arg: 2}, {Op: OpNegate}}; !reflect.DeepEqual(got.Steps, want) || got.StagesRun != 2 {
		t.Fatalf("parent-format record read as %+v (%d stages run), want %+v", got.Steps, got.StagesRun, want)
	}
	outBlob, err := srv.jobs.Result("job-000042")
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.ctx.UnmarshalCiphertext(outBlob)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := p.ctx.DecryptReal(out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if math.Abs(vals[i]-(-2*in[i])) > 1e-2 {
			t.Fatalf("slot %d: got %v, want %v", i, vals[i], -2*in[i])
		}
	}
}

// TestServeSmoke is the CI serve-smoke job: 100 mixed-tenant requests
// through the full HTTP stack while chaos bursts drop engine tasks
// under the evaluations. The op-level retry rung heals every burst, so
// the run must produce zero 5xx responses, every answer must decrypt to
// the right values, and shutdown must drain cleanly. Run under -race.
func TestServeSmoke(t *testing.T) {
	srv, p := testServer(t, func(cfg *ProfileConfig) {
		cfg.Params.Retry = &bitpacker.RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond}
	}, "")
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const tenants = 8
	const requests = 100
	w := p.cfg.Window
	type reqCase struct {
		hdr  EvalHeader
		blob []byte
		want []float64
	}
	cases := make([]reqCase, requests)
	windowStart := make([]int, tenants)
	for ti := 0; ti < tenants; ti++ {
		rr := register(t, ts.URL, fmt.Sprintf("tenant-%d", ti))
		windowStart[ti] = rr.WindowStart
	}
	ops := []string{OpSquare, OpScale, OpOffset, OpNegate}
	// Pre-encrypt everything before chaos goes live: the fault hook is
	// process-global and the clients' encryptions are not the system
	// under test.
	for i := range cases {
		ti := i % tenants
		op := ops[i%len(ops)]
		arg := 0.5 + 0.125*float64(i%4)
		vals := tenantValues(ti, w)
		in := make([]float64, p.ctx.Slots())
		copy(in[windowStart[ti]:], vals)
		ct, err := p.ctx.EncryptReal(in)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := p.ctx.MarshalCiphertext(ct)
		if err != nil {
			t.Fatal(err)
		}
		cases[i] = reqCase{
			hdr:  EvalHeader{Profile: "p", Tenant: fmt.Sprintf("tenant-%d", ti), Op: op, Arg: arg},
			blob: blob,
			want: expected(op, arg, vals),
		}
	}

	inj := chaos.New(99)
	_, restore := inj.Burst(0, 2)
	defer restore()

	results := make([][]float64, requests)
	statuses := make([]int, requests)
	var wg sync.WaitGroup
	for c := 0; c < tenants; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for i := client; i < requests; i += tenants {
				status, _, outBlob := evalHTTP(t, ts.URL, cases[i].hdr, cases[i].blob)
				statuses[i] = status
				if status != 200 {
					continue
				}
				out, err := p.ctx.UnmarshalCiphertext(outBlob)
				if err != nil {
					t.Error(err)
					continue
				}
				vals, err := p.ctx.DecryptReal(out)
				if err != nil {
					t.Error(err)
					continue
				}
				results[i] = vals
			}
		}(c)
	}
	// Re-arm the chaos burst a few times mid-run: transient fault
	// showers, each small enough for the retry budget to absorb.
	for k := 0; k < 4; k++ {
		time.Sleep(15 * time.Millisecond)
		restore()
		_, restore = inj.Burst(0, 2)
	}
	wg.Wait()
	restore()

	for i, status := range statuses {
		if status != 200 {
			t.Fatalf("request %d: status %d under chaos (want 200)", i, status)
		}
		for s, want := range cases[i].want {
			if math.Abs(results[i][s]-want) > 1e-2 {
				t.Fatalf("request %d slot %d: got %v, want %v", i, s, results[i][s], want)
			}
		}
	}
	if n := srv.FiveXX(); n != 0 {
		t.Fatalf("chaos leaked %d 5xx responses", n)
	}
	stats := p.sched.Stats()
	if stats.PackedBatches == 0 {
		t.Fatal("smoke run never packed a batch")
	}
	t.Logf("smoke: %d packed batches served %d requests, %d solo, %d fallbacks, max batch %d",
		stats.PackedBatches, stats.PackedReqs, stats.SoloEvals, stats.Fallbacks, stats.MaxBatch)

	// Clean shutdown: close the HTTP front end, then drain. Close must
	// return with nothing queued and no goroutine wedged (the -race run
	// doubles as the leak check).
	ts.Close()
	srv.Close()
}
