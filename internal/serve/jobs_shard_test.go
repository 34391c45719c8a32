package serve

// Long jobs through the sharded executor: the serving layer's job
// manager routes steps into supervised worker processes, and a worker
// crash mid-job must be recovered transparently (respawn + checkpointed
// re-dispatch) with the job still producing the right values. Worker
// processes are this test binary re-exec'd via TestMain.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"bitpacker"
	"bitpacker/internal/chaos"
	"bitpacker/internal/frame"
	"bitpacker/internal/shard/worker"
)

func TestMain(m *testing.M) {
	if worker.IsWorker() {
		os.Exit(worker.Main())
	}
	os.Exit(m.Run())
}

func TestJobShardedSurvivesWorkerCrash(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	fault := chaos.ProcFault{Kind: chaos.ProcCrash, Shard: -1, Step: 1, Times: 1}
	srv, err := NewServer(Options{
		Profiles: []ProfileConfig{{
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
			Window: 32,
		}},
		JobDir: t.TempDir(),
		Shard: bitpacker.ShardOptions{
			Workers:       2,
			WorkerCommand: []string{exe},
			WorkerEnv:     []string{chaos.ProcFaultEnv + "=" + fault.Encode()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	register(t, ts.URL, "alice")
	p, err := srv.reg.profile("p")
	if err != nil {
		t.Fatal(err)
	}

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

	rec := pollJob(t, ts.URL, sub["id"], 30*time.Second)
	if rec.State != JobDone {
		t.Fatalf("sharded job ended %s: %s", rec.State, rec.Error)
	}
	if rec.Shards != 1 {
		t.Fatalf("one-ciphertext job ran %d shards", rec.Shards)
	}
	if rec.Respawns == 0 || rec.Redispatches == 0 {
		t.Fatalf("injected worker crash was not recovered through respawn/re-dispatch: %+v", rec)
	}

	res, err = http.Get(ts.URL + "/v1/job/" + sub["id"] + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	outBlob, err := frame.Expect(res.Body, FrameBlob, DefaultMaxBlobBytes)
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
