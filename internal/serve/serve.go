package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"

	"bitpacker"
	"bitpacker/internal/frame"
)

// DefaultMaxBlobBytes is the clients' default read bound for a blob
// frame the server answers with. The server itself bounds an uploaded
// blob by its profile's largest ciphertext (blobBound), whatever its size.
const DefaultMaxBlobBytes = 64 << 20

// maxHeaderBytes bounds a request's header frame.
const maxHeaderBytes = 64 << 10

// blobBound is the largest blob frame a request may carry for a profile
// whose largest ciphertext encodes to n bytes: n, clamped to what a frame
// length can say.
func blobBound(n int) uint32 { return uint32(min(int64(n), math.MaxUint32)) }

// Options configures a Server.
type Options struct {
	// Profiles the server hosts (at least one).
	Profiles []ProfileConfig
	// JobDir, when non-empty, enables the long-job endpoints with
	// durable checkpoint state rooted there.
	JobDir string
	// Shard is what every long job runs under: one Context.RunSharded
	// call, with Dir and Keep set by the job manager. The zero value
	// (Workers 0, no Addrs) runs a job's shards in-process; Workers or
	// Addrs put them on a supervised worker fleet.
	Shard bitpacker.ShardOptions
}

// Server is the multi-tenant FHE serving layer: tenant registration,
// framed streaming eval with slot-packing batching, durable long jobs,
// and stats — all on the stdlib mux.
type Server struct {
	reg     *Registry
	jobs    *JobManager
	mux     *http.ServeMux
	maxBody int64        // a request body: the header frame and the largest profile's blob
	fiveXX  atomic.Int64 // count of 5xx responses, exported via /v1/stats
}

// NewServer builds the profiles (generating their contexts) and, when
// JobDir is set, resumes any jobs a previous process left running.
func NewServer(opts Options) (*Server, error) {
	if len(opts.Profiles) == 0 {
		return nil, fmt.Errorf("serve: no profiles configured")
	}
	reg, err := NewRegistry(opts.Profiles)
	if err != nil {
		return nil, err
	}
	s := &Server{reg: reg, mux: http.NewServeMux()}
	for _, p := range reg.profiles {
		s.maxBody = max(s.maxBody, int64(blobBound(p.ctx.MaxCiphertextBytes())))
	}
	s.maxBody += maxHeaderBytes
	if opts.JobDir != "" {
		jm, err := NewJobManager(opts.JobDir, reg, opts.Shard)
		if err != nil {
			reg.Close()
			return nil, err
		}
		s.jobs = jm
	}
	s.mux.HandleFunc("POST /v1/register", s.handleRegister)
	s.mux.HandleFunc("POST /v1/eval", s.handleEval)
	s.mux.HandleFunc("POST /v1/job", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/job/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/job/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close drains the schedulers and waits for in-flight jobs to run to
// completion.
func (s *Server) Close() {
	s.reg.Close()
	if s.jobs != nil {
		s.jobs.Close()
	}
}

// Shutdown drains the schedulers and checkpoints in-flight long jobs
// instead of waiting them out: running jobs (including sharded ones,
// whose worker fleets drain through the supervisor) are cut at their
// next checkpoint boundary and stay durably "running", so the next
// process resumes them bit-identically. This is the SIGTERM path.
func (s *Server) Shutdown() {
	s.reg.Close()
	if s.jobs != nil {
		s.jobs.Shutdown()
	}
}

// FiveXX reports how many 5xx responses the server has written — the
// smoke test's "no internal failures leaked" assertion.
func (s *Server) FiveXX() int64 { return s.fiveXX.Load() }

// httpError maps a serving-layer error to its status code and writes a
// JSON error body. ErrBusy carries Retry-After: 1, asking the client to
// back off one second and resubmit.
func (s *Server) httpError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrShutdown):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownProfile), errors.Is(err, ErrUnknownTenant):
		status = http.StatusNotFound
	case errors.Is(err, bitpacker.ErrInvalidParams), errors.Is(err, bitpacker.ErrChainExhausted):
		// What profile.admit refuses: a program or input the client chose.
		status = http.StatusBadRequest
	}
	if status >= 500 {
		s.fiveXX.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// badRequest writes a 400 with a JSON error body.
func (s *Server) badRequest(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// RegisterRequest is the body of POST /v1/register.
type RegisterRequest struct {
	Profile string `json:"profile"`
	Tenant  string `json:"tenant"`
}

// RegisterResponse tells the tenant where its data lives: its slot
// window [WindowStart, WindowStart+Window) inside the profile's
// Slots()-slot ciphertexts. Eval inputs must carry the payload in that
// window (zero elsewhere); eval outputs always land in [0, Window).
type RegisterResponse struct {
	Profile     string  `json:"profile"`
	Tenant      string  `json:"tenant"`
	Slots       int     `json:"slots"`
	Window      int     `json:"window"`
	WindowStart int     `json:"window_start"`
	MaxLevel    int     `json:"max_level"`
	ScaleBits   float64 `json:"scale_bits"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		s.badRequest(w, fmt.Errorf("serve: bad register body: %w", err))
		return
	}
	if req.Tenant == "" {
		s.badRequest(w, fmt.Errorf("serve: empty tenant name"))
		return
	}
	p, err := s.reg.profile(req.Profile)
	if err != nil {
		s.httpError(w, err)
		return
	}
	t := p.register(req.Tenant)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(RegisterResponse{
		Profile:     req.Profile,
		Tenant:      req.Tenant,
		Slots:       p.ctx.Slots(),
		Window:      p.cfg.Window,
		WindowStart: t.window * p.cfg.Window,
		MaxLevel:    p.ctx.MaxLevel(),
		ScaleBits:   p.cfg.Params.ScaleBits,
	})
}

// EvalHeader is the header frame of POST /v1/eval; the blob frame that
// follows carries the input ciphertext.
type EvalHeader struct {
	Profile string  `json:"profile"`
	Tenant  string  `json:"tenant"`
	Op      string  `json:"op"`
	Arg     float64 `json:"arg,omitempty"`
}

// EvalResult is the response header frame; the blob frame that follows
// carries the result ciphertext (tenant payload in slots [0, Window)).
type EvalResult struct {
	Packed bool    `json:"packed"`
	Level  int     `json:"level"`
	Scale  float64 `json:"scale_log2"`
}

// readRequest reads the two frames of an eval or job request: the JSON
// header into hdr, then the ciphertext blob under the bound of the
// profile the header names (*name, a field of hdr) — the largest
// ciphertext its chain has (blobBound). The profile is
// resolved before any blob byte is read, so an unknown one is answered
// from the header alone and a blob frame declaring more than one
// ciphertext of the profile is refused from its header. On failure the
// error response is written and ok is false.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, hdr any, name *string) (p *profile, blob []byte, ok bool) {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	headerJSON, err := frame.Expect(body, FrameHeader, maxHeaderBytes)
	if err != nil {
		s.badRequest(w, err)
		return nil, nil, false
	}
	if err := json.Unmarshal(headerJSON, hdr); err != nil {
		s.badRequest(w, fmt.Errorf("serve: bad request header: %w", err))
		return nil, nil, false
	}
	if p, err = s.reg.profile(*name); err != nil {
		s.httpError(w, err)
		return nil, nil, false
	}
	if blob, err = frame.Expect(body, FrameBlob, blobBound(p.ctx.MaxCiphertextBytes())); err != nil {
		s.badRequest(w, err)
		return nil, nil, false
	}
	return p, blob, true
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	var hdr EvalHeader
	p, blob, ok := s.readRequest(w, r, &hdr, &hdr.Profile)
	if !ok {
		return
	}
	ct, err := p.ctx.UnmarshalCiphertext(blob)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	out, packed, err := p.Eval(hdr.Tenant, hdr.Op, hdr.Arg, ct)
	if err != nil {
		s.httpError(w, err)
		return
	}
	outBlob, err := p.ctx.MarshalCiphertext(out)
	if err != nil {
		s.httpError(w, err)
		return
	}
	resHdr, _ := json.Marshal(EvalResult{Packed: packed, Level: out.Level(), Scale: out.ScaleLog2()})
	w.Header().Set("Content-Type", "application/octet-stream")
	frame.Write(w, FrameHeader, resHdr)
	frame.Write(w, FrameBlob, outBlob)
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		s.badRequest(w, fmt.Errorf("serve: jobs disabled (no JobDir)"))
		return
	}
	var spec JobSpec
	_, blob, ok := s.readRequest(w, r, &spec, &spec.Profile)
	if !ok {
		return
	}
	id, err := s.jobs.Submit(spec, blob)
	if err != nil {
		if errors.As(err, new(badJob)) {
			s.badRequest(w, err)
		} else {
			s.httpError(w, err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"id": id})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		s.badRequest(w, fmt.Errorf("serve: jobs disabled (no JobDir)"))
		return
	}
	rec, err := s.jobs.Status(r.PathValue("id"))
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rec)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		s.badRequest(w, fmt.Errorf("serve: jobs disabled (no JobDir)"))
		return
	}
	blob, err := s.jobs.Result(r.PathValue("id"))
	if errors.Is(err, errCorrupt) {
		s.httpError(w, err) // the server's storage failed, not the client's request
		return
	}
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	frame.Write(w, FrameBlob, blob)
}

// ProfileStats is one profile's /v1/stats entry.
type ProfileStats struct {
	Tenants          int        `json:"tenants"`
	Windows          int        `json:"windows"`
	Scheduler        SchedStats `json:"scheduler"`
	ResidentKeyBytes int64      `json:"resident_key_bytes"`
	KeyCacheHits     int64      `json:"key_cache_hits"`
	KeyCacheMisses   int64      `json:"key_cache_misses"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := map[string]ProfileStats{}
	for name, p := range s.reg.profiles {
		p.mu.Lock()
		tenants := len(p.tenants)
		p.mu.Unlock()
		kcs := p.ctx.KeyCacheStats()
		out[name] = ProfileStats{
			Tenants:          tenants,
			Windows:          p.windows(),
			Scheduler:        p.sched.Stats(),
			ResidentKeyBytes: kcs.ResidentBytes,
			KeyCacheHits:     kcs.Hits,
			KeyCacheMisses:   kcs.Misses,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"profiles": out, "five_xx": s.fiveXX.Load()})
}
