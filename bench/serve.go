package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"bitpacker"
	"bitpacker/internal/serve"
)

const (
	serveTenants = 8
	servePool    = 8 // distinct pre-encrypted requests per tenant
	serveProfile = "bench"
)

// serveTenant is one closed-loop caller: it sends its next request only
// after the previous reply arrived.
type serveTenant struct {
	name  string
	op    string
	arg   float64
	start int         // first slot of its window in the request ciphertext
	level int         // level its replies must arrive at: top - op depth - 1 for the extraction mask
	body  [][]byte    // framed requests, header + blob
	want  [][]float64 // plaintext result of the op on each request's window
}

// serveMix drives serve.Server in process through ServeHTTP. Tenants 0-5
// send quartic and pack into shared ciphertexts; tenant 6 (scale) and 7
// (square) are incompatible with everyone, wait out the flush interval
// and take the solo path — so the median sits in the packed class and
// the tail in the solo class.
type serveMix struct {
	cfg     serve.ProfileConfig
	srv     *serve.Server
	client  *bitpacker.Context // same parameters and seed as the profile: same keys
	tenants []serveTenant
}

func newServe(e env) (instance, error) {
	logN := e.logN(12)
	w := &serveMix{cfg: serve.ProfileConfig{
		Name: serveProfile,
		Params: bitpacker.Config{
			Scheme:        bitpacker.BitPacker,
			LogN:          logN,
			Levels:        3,
			ScaleBits:     40,
			QMinBits:      48,
			WordBits:      61,
			Seed:          e.seed,
			KeyCacheBytes: 16 << 20,
			Workers:       e.procs,
		},
		Window:     (1 << (logN - 1)) / serveTenants,
		MaxBatch:   serveTenants,
		QueueDepth: 4 * serveTenants,
		Packing:    true,
	}}
	var err error
	if w.srv, err = serve.NewServer(serve.Options{Profiles: []serve.ProfileConfig{w.cfg}}); err != nil {
		return nil, err
	}
	if w.client, err = bitpacker.New(w.cfg.Params); err != nil {
		w.srv.Close()
		return nil, err
	}
	rng := e.rng(2)
	for ti := 0; ti < serveTenants; ti++ {
		t := serveTenant{name: fmt.Sprintf("t%d", ti), op: serve.OpQuartic, level: w.client.MaxLevel() - 3}
		switch ti {
		case serveTenants - 2:
			t.op, t.arg, t.level = serve.OpScale, 0.5+rng.Float64(), w.client.MaxLevel()-2
		case serveTenants - 1:
			t.op, t.level = serve.OpSquare, w.client.MaxLevel()-2
		}
		reg, _ := json.Marshal(serve.RegisterRequest{Profile: serveProfile, Tenant: t.name})
		rec := httptest.NewRecorder()
		w.srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/register", bytes.NewReader(reg)))
		var rr serve.RegisterResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &rr) != nil {
			w.srv.Close()
			return nil, fmt.Errorf("register %s: status %d", t.name, rec.Code)
		}
		t.start = rr.WindowStart
		header, _ := json.Marshal(serve.EvalHeader{Profile: serveProfile, Tenant: t.name, Op: t.op, Arg: t.arg})
		for k := 0; k < servePool; k++ {
			in := make([]float64, w.client.Slots())
			want := make([]float64, w.cfg.Window)
			for s := range want {
				x := 2*rng.Float64() - 1
				in[t.start+s] = x
				switch t.op {
				case serve.OpQuartic:
					want[s] = x * x * x * x
				case serve.OpSquare:
					want[s] = x * x
				case serve.OpScale:
					want[s] = t.arg * x
				}
			}
			ct, err := w.client.EncryptReal(in)
			if err != nil {
				w.srv.Close()
				return nil, err
			}
			blob, err := w.client.MarshalCiphertext(ct)
			if err != nil {
				w.srv.Close()
				return nil, err
			}
			var body bytes.Buffer
			serve.WriteFrame(&body, serve.FrameHeader, header)
			serve.WriteFrame(&body, serve.FrameBlob, blob)
			t.body = append(t.body, body.Bytes())
			t.want = append(t.want, want)
		}
		w.tenants = append(w.tenants, t)
	}
	// Warm-up: a hundred requests, so the rotation keys of every window
	// are generated and the pools are filled.
	warm := w.drive(0, func(i int) bool { return i < (100+serveTenants-1)/serveTenants }, nil)
	if warm.failed > 0 {
		w.srv.Close()
		return nil, fmt.Errorf("warm-up requests: %w", warm.firstErr)
	}
	return w, nil
}

func (w *serveMix) config() bitpacker.Config { return w.cfg.Params }
func (w *serveMix) livePIDs() []int          { return nil }
func (w *serveMix) close() error             { w.srv.Close(); return nil }

func (w *serveMix) run(until time.Time, first int, tr *tracer) window {
	return w.drive(first, func(int) bool { return time.Now().Before(until) }, tr)
}

// drive runs the eight tenant loops side by side; each sends requests
// first, first+1, ... while more(i) holds (and always request first).
func (w *serveMix) drive(first int, more func(i int) bool, tr *tracer) window {
	var (
		mu           sync.Mutex
		out          window
		packed, solo []float64
		wg           sync.WaitGroup
	)
	before, err := w.stats()
	if err != nil {
		out.fail(err)
	}
	start := time.Now()
	for ti := range w.tenants {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			for i := first; i == first || more(i); i++ {
				ms, isPacked, absErr, err := w.request(&w.tenants[ti], i, ti+serveTenants*i, tr)
				mu.Lock()
				out.attempted++
				if err != nil {
					out.fail(err)
				} else {
					out.lat = append(out.lat, ms)
					out.worstErr = math.Max(out.worstErr, absErr)
					if isPacked {
						packed = append(packed, ms)
					} else {
						solo = append(solo, ms)
					}
				}
				mu.Unlock()
			}
		}(ti)
	}
	wg.Wait()
	out.wall = time.Since(start)

	after, err := w.stats()
	if err != nil {
		out.fail(err)
	}
	sched, was := after.Scheduler, before.Scheduler
	out.layer = map[string]float64{
		"serve.latency_p95_ms":        quantile(out.lat, 0.95),
		"serve.latency_p99_ms":        quantile(out.lat, 0.99),
		"serve.latency_p50_ms.packed": median(packed),
		"serve.latency_p50_ms.solo":   median(solo),
		"serve.rejected":              float64(sched.Rejected - was.Rejected),
		"serve.fallbacks":             float64(sched.Fallbacks - was.Fallbacks),
	}
	ratio := func(name string, num, den int64) {
		if den > 0 {
			out.layer[name] = float64(num) / float64(den)
		}
	}
	packedReqs := sched.PackedReqs - was.PackedReqs
	ratio("serve.packed_ratio", packedReqs, sched.Submitted-was.Submitted)
	ratio("serve.mean_batch", packedReqs, sched.PackedBatches-was.PackedBatches)
	hits := after.KeyCacheHits - before.KeyCacheHits
	ratio("serve.keycache_hit_ratio", hits, hits+after.KeyCacheMisses-before.KeyCacheMisses)
	return out
}

// stats reads the profile's counters the way an operator would: GET /v1/stats.
func (w *serveMix) stats() (serve.ProfileStats, error) {
	rec := httptest.NewRecorder()
	w.srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var parsed struct {
		Profiles map[string]serve.ProfileStats `json:"profiles"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil {
		return serve.ProfileStats{}, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return parsed.Profiles[serveProfile], nil
}

// request sends the tenant's i-th request and checks the reply. The
// clock covers ServeHTTP and reading both reply frames, like a client's
// download; decoding and the sampled decryption come after it.
func (w *serveMix) request(t *serveTenant, i, trace int, tr *tracer) (ms float64, packed bool, absErr float64, err error) {
	k := i % servePool
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/eval", bytes.NewReader(t.body[k]))
	t0 := time.Now()
	root := tr.start(trace, 0, "bench", "unit")
	id := tr.start(trace, root, "serve", "http")
	w.srv.ServeHTTP(rec, req)
	tr.end(id)
	id = tr.start(trace, root, "serve", "read_frames")
	var header, blob []byte
	if rec.Code == http.StatusOK {
		if _, header, err = serve.ReadFrame(rec.Body, 1<<16); err == nil {
			_, blob, err = serve.ReadFrame(rec.Body, serve.DefaultMaxBlobBytes)
		}
	} else {
		err = fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	tr.end(id)
	tr.end(root)
	ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return 0, false, 0, fmt.Errorf("%s request %d: %w", t.name, i, err)
	}
	var res serve.EvalResult
	if err := json.Unmarshal(header, &res); err != nil {
		return 0, false, 0, fmt.Errorf("%s request %d: reply header: %w", t.name, i, err)
	}
	ct, err := w.client.UnmarshalCiphertext(blob)
	if err != nil {
		return 0, false, 0, fmt.Errorf("%s request %d: reply blob: %w", t.name, i, err)
	}
	if ct.Level() != t.level || res.Level != t.level || math.Abs(ct.ScaleLog2()-res.Scale) > 1e-9 || math.Abs(res.Scale-w.cfg.Params.ScaleBits) > 1 {
		return 0, false, 0, fmt.Errorf("%s request %d: reply at level %d scale 2^%.2f (header: level %d scale 2^%.2f), want level %d scale ~2^%.0f",
			t.name, i, ct.Level(), ct.ScaleLog2(), res.Level, res.Scale, t.level, w.cfg.Params.ScaleBits)
	}
	// One reply in eight is decrypted, staggered across tenants and
	// fixed by the request index.
	if (i+t.start/w.cfg.Window)%8 != 0 {
		return ms, res.Packed, 0, nil
	}
	got, err := w.client.DecryptReal(ct)
	if err != nil {
		return 0, false, 0, err
	}
	for s, want := range t.want[k] {
		absErr = math.Max(absErr, math.Abs(got[s]-want))
	}
	if absErr > tolerance {
		return 0, false, 0, fmt.Errorf("%s request %d: |decrypted - reference| = %.3g > 2^-14", t.name, i, absErr)
	}
	return ms, res.Packed, absErr, nil
}
