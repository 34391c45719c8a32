package serve

import (
	"fmt"
	"sync"
	"time"

	"bitpacker"
)

// Ops the eval endpoint accepts: the slot-wise ops of the program
// vocabulary (bitpacker's op table), under the names the serving API has
// always used for them.
const (
	OpSquare  = bitpacker.ShardOpSquare
	OpQuartic = bitpacker.ShardOpQuartic
	OpScale   = bitpacker.ShardOpScale
	OpOffset  = bitpacker.ShardOpOffset
	OpNegate  = bitpacker.ShardOpNegate
)

// admit plans a tenant's program on its input ciphertext before anything
// is queued or written, so a request the chain cannot finish is refused
// as the client's error rather than failing half-way as ours. The
// serving layer takes slot-wise programs only, and spare is the levels
// the caller spends on the result itself (the extraction mask's one).
func (p *profile) admit(steps []JobStep, ct *bitpacker.Ciphertext, spare int) error {
	plan, err := p.ctx.PlanProgram(steps, ct.Level())
	if err != nil {
		return err
	}
	if !plan.SlotWise {
		return fmt.Errorf("serve: program is not slot-wise: %w", bitpacker.ErrInvalidParams)
	}
	if plan.EndLevel < spare {
		return fmt.Errorf("serve: program ends at level %d and the reply needs %d more: %w", plan.EndLevel, spare, bitpacker.ErrChainExhausted)
	}
	return nil
}

// evalRequest is one tenant's unit of work queued at the scheduler.
type evalRequest struct {
	tenant *tenant
	op     string
	arg    float64
	ct     *bitpacker.Ciphertext
	level  int
	scale  float64 // ScaleLog2, the packing compatibility key
	done   chan evalOutcome
}

// evalOutcome is the scheduler's answer to one request.
type evalOutcome struct {
	ct     *bitpacker.Ciphertext
	packed bool // rode a shared packed evaluation
	err    error
}

// SchedStats counts what the scheduler actually did.
type SchedStats struct {
	Submitted     int64 `json:"submitted"`      // requests accepted into the queue
	Rejected      int64 `json:"rejected"`       // requests bounced with ErrBusy (HTTP 429)
	PackedBatches int64 `json:"packed_batches"` // shared evaluations performed
	PackedReqs    int64 `json:"packed_reqs"`    // requests served by shared evaluations
	SoloEvals     int64 `json:"solo_evals"`     // requests evaluated one-per-ciphertext
	Fallbacks     int64 `json:"fallbacks"`      // packed batches that failed and re-ran solo
	MaxBatch      int64 `json:"max_batch"`      // largest batch coalesced so far
}

// scheduler owns a profile's bounded request queue and the slot-packing
// batch loop: compatible small requests (same op, level, and scale,
// distinct slot windows) coalesce into one shared ciphertext — pack via
// homomorphic adds, evaluate once, then extract each tenant's window
// with hoisted masking rotations whose keys are pinned in the key cache
// for exactly the life of the batch.
type scheduler struct {
	p     *profile
	queue chan *evalRequest

	mu      sync.Mutex
	closed  bool
	stats   SchedStats
	pending []*evalRequest // stashed incompatible requests, next batch's seeds

	// masks caches the [0, Window) extraction mask pre-encoded per
	// level: the vector never changes, so each level pays its encode
	// transform exactly once instead of once per request.
	masks map[int]*bitpacker.Plain

	wg sync.WaitGroup
}

func newScheduler(p *profile) *scheduler {
	s := &scheduler{p: p, queue: make(chan *evalRequest, p.cfg.QueueDepth), masks: map[int]*bitpacker.Plain{}}
	s.wg.Add(1)
	go s.run()
	return s
}

// Submit queues one request, never blocking: a full queue is the
// backpressure signal (ErrBusy → HTTP 429 + Retry-After), not a place
// to park goroutines. Requests the batch loop stashed as incompatible
// count toward the depth — otherwise the collect loop would drain the
// queue into the stash and the bound would never bind.
func (s *scheduler) Submit(r *evalRequest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrShutdown
	}
	if len(s.pending)+len(s.queue) >= s.p.cfg.QueueDepth {
		s.stats.Rejected++
		return ErrBusy
	}
	select {
	case s.queue <- r:
		s.stats.Submitted++
		return nil
	default:
		s.stats.Rejected++
		return ErrBusy
	}
}

// Stats snapshots the scheduler's counters.
func (s *scheduler) Stats() SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close stops intake, drains the queue (queued requests still get
// evaluated — shutdown is clean, not lossy), and waits for the loop.
func (s *scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

// nextRequest yields the oldest stashed request, else blocks on the
// queue. nil means the queue is closed and fully drained.
func (s *scheduler) nextRequest() *evalRequest {
	s.mu.Lock()
	if len(s.pending) > 0 {
		r := s.pending[0]
		s.pending = s.pending[1:]
		s.mu.Unlock()
		return r
	}
	s.mu.Unlock()
	r, ok := <-s.queue
	if !ok {
		return nil
	}
	return r
}

// compatible reports whether r can ride in a batch seeded by batch[0]:
// same op, level and scale (so the packed adds and the single shared
// evaluation are well-defined) and a slot window no batch member
// already occupies (so extraction windows never collide).
func compatible(batch []*evalRequest, r *evalRequest) bool {
	head := batch[0]
	if r.op != head.op || r.level != head.level || r.scale != head.scale {
		return false
	}
	for _, b := range batch {
		if b.tenant.window == r.tenant.window {
			return false
		}
	}
	return true
}

// run is the batch loop: seed a batch, collect compatible requests
// until MaxBatch or the flush deadline, evaluate, repeat.
func (s *scheduler) run() {
	defer s.wg.Done()
	for {
		first := s.nextRequest()
		if first == nil {
			s.drainPending()
			return
		}
		batch := []*evalRequest{first}
		if s.p.cfg.Packing && s.p.cfg.MaxBatch > 1 {
			deadline := time.NewTimer(s.p.cfg.FlushInterval)
		collect:
			for len(batch) < s.p.cfg.MaxBatch {
				// Favor stashed requests left over from earlier batches.
				s.mu.Lock()
				took := false
				for i, r := range s.pending {
					if compatible(batch, r) {
						batch = append(batch, r)
						s.pending = append(s.pending[:i], s.pending[i+1:]...)
						took = true
						break
					}
				}
				s.mu.Unlock()
				if took {
					continue
				}
				select {
				case r, ok := <-s.queue:
					if !ok {
						break collect
					}
					if compatible(batch, r) {
						batch = append(batch, r)
					} else {
						s.mu.Lock()
						s.pending = append(s.pending, r)
						s.mu.Unlock()
					}
				case <-deadline.C:
					break collect
				}
			}
			deadline.Stop()
		}
		s.evalBatch(batch)
	}
}

// drainPending answers any stashed requests after the queue closes:
// requests that were stashed as incompatible and never seeded a batch
// still get evaluated — shutdown is clean, not lossy.
func (s *scheduler) drainPending() {
	for {
		s.mu.Lock()
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		r := s.pending[0]
		s.pending = s.pending[1:]
		s.mu.Unlock()
		s.evalBatch([]*evalRequest{r})
	}
}

// evalBatch routes a batch: packed when it genuinely coalesced, solo
// otherwise. A packed failure falls back to per-request solo evaluation
// so one tenant's fault (a poisoned ciphertext, an injected engine
// fault that survived retry) cannot poison its batch-mates.
func (s *scheduler) evalBatch(batch []*evalRequest) {
	if len(batch) == 1 || !s.p.cfg.Packing {
		for _, r := range batch {
			s.evalSolo(r)
		}
		return
	}
	if err := s.evalPacked(batch); err != nil {
		s.mu.Lock()
		s.stats.Fallbacks++
		s.mu.Unlock()
		for _, r := range batch {
			s.evalSolo(r)
		}
		return
	}
	s.mu.Lock()
	s.stats.PackedBatches++
	s.stats.PackedReqs += int64(len(batch))
	if int64(len(batch)) > s.stats.MaxBatch {
		s.stats.MaxBatch = int64(len(batch))
	}
	s.mu.Unlock()
}

// applyOp performs the batch's single shared evaluation (also the solo
// path, with a one-element batch): the op table's form of the op, with
// one special case. A packed batch of a per-tenant-argument op (scale,
// offset) carries a different constant in each tenant's slot window, so
// it builds the combined vector; a solo request does not need one — its
// reply is masked to its window anyway.
func (s *scheduler) applyOp(ct *bitpacker.Ciphertext, batch []*evalRequest) (*bitpacker.Ciphertext, error) {
	fhe, head := s.p.ctx, batch[0]
	if len(batch) > 1 && head.op == OpOffset {
		return fhe.AddConst(ct, s.combined(batch))
	}
	if len(batch) > 1 && head.op == OpScale {
		out, err := fhe.MulConst(ct, s.combined(batch))
		if err != nil {
			return nil, err
		}
		return fhe.Rescale(out)
	}
	out, err := fhe.ApplyShardStep(bitpacker.ShardStep{Op: head.op, Arg: head.arg}, []*bitpacker.Ciphertext{ct})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// combined builds the per-tenant-argument plaintext vector: arg in each
// request's window, zero elsewhere.
func (s *scheduler) combined(batch []*evalRequest) []complex128 {
	vec := make([]complex128, s.p.ctx.Slots())
	w := s.p.cfg.Window
	for _, r := range batch {
		base := r.tenant.window * w
		for i := 0; i < w; i++ {
			vec[base+i] = complex(r.arg, 0)
		}
	}
	return vec
}

// extract rotates the tenant's window to slot 0 and masks [0, Window):
// the response always carries the tenant's result in its first Window
// slots regardless of which window it rode in, and co-tenant slots are
// zeroed before anything leaves the scheduler.
func (s *scheduler) extract(ct *bitpacker.Ciphertext, windowStart int) (*bitpacker.Ciphertext, error) {
	fhe := s.p.ctx
	if windowStart != 0 {
		var err error
		if ct, err = fhe.Rotate(ct, windowStart); err != nil {
			return nil, err
		}
	}
	return s.mask(ct)
}

// mask zeroes every slot outside [0, Window).
func (s *scheduler) mask(ct *bitpacker.Ciphertext) (*bitpacker.Ciphertext, error) {
	fhe := s.p.ctx
	pl, err := s.maskPlain(ct.Level())
	if err != nil {
		return nil, err
	}
	out, err := fhe.MulPlain(ct, pl)
	if err != nil {
		return nil, err
	}
	return fhe.Rescale(out)
}

// maskPlain returns the extraction mask pre-encoded for the level.
func (s *scheduler) maskPlain(level int) (*bitpacker.Plain, error) {
	s.mu.Lock()
	if pl, ok := s.masks[level]; ok {
		s.mu.Unlock()
		return pl, nil
	}
	s.mu.Unlock()
	fhe := s.p.ctx
	vec := make([]complex128, fhe.Slots())
	for i := 0; i < s.p.cfg.Window; i++ {
		vec[i] = 1
	}
	pl, err := fhe.EncodePlain(vec, level)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.masks[level] = pl
	s.mu.Unlock()
	return pl, nil
}

// evalSolo is the one-request-per-ciphertext path: evaluate, then run
// the identical extraction pipeline the packed path uses, so the two
// paths are directly comparable (and the property test can hold them
// to each other).
func (s *scheduler) evalSolo(r *evalRequest) {
	out, err := s.applyOp(r.ct, []*evalRequest{r})
	if err == nil {
		out, err = s.extract(out, r.tenant.window*s.p.cfg.Window)
	}
	s.mu.Lock()
	s.stats.SoloEvals++
	s.mu.Unlock()
	r.done <- evalOutcome{ct: out, err: err}
}

// evalPacked is the slot-packing fast path: pack the batch into one
// shared ciphertext with homomorphic adds, evaluate once, then extract
// every tenant's window via hoisted rotations (one shared ModUp) whose
// Galois keys are pinned in the key cache for the life of the batch.
func (s *scheduler) evalPacked(batch []*evalRequest) error {
	fhe := s.p.ctx
	packed := batch[0].ct
	for _, r := range batch[1:] {
		var err error
		if packed, err = fhe.Add(packed, r.ct); err != nil {
			return err
		}
	}
	result, err := s.applyOp(packed, batch)
	if err != nil {
		return err
	}
	w := s.p.cfg.Window
	steps := make([]int, len(batch))
	for i, r := range batch {
		steps[i] = r.tenant.window * w
	}
	// Pin the batch's rotation working set: the keys stream in (or
	// promote from compressed) once and stay resident — LRU-pinned —
	// exactly while this batch is in flight.
	release, err := fhe.PinRotations(steps...)
	if err != nil {
		return err
	}
	defer release()
	rotated, err := fhe.RotateHoisted(result, steps)
	if err != nil {
		return err
	}
	outs := make([]*bitpacker.Ciphertext, len(batch))
	for i := range batch {
		if outs[i], err = s.mask(rotated[i]); err != nil {
			return err
		}
	}
	for i, r := range batch {
		r.done <- evalOutcome{ct: outs[i], packed: true}
	}
	return nil
}

// Eval is the synchronous front door the HTTP layer calls: validate,
// submit, wait. The scheduler always answers every accepted request, so
// the wait needs no timeout of its own.
func (p *profile) Eval(tenantName, op string, arg float64, ct *bitpacker.Ciphertext) (*bitpacker.Ciphertext, bool, error) {
	if err := p.admit([]JobStep{{Op: op, Arg: arg}}, ct, 1); err != nil {
		return nil, false, err
	}
	t, err := p.lookup(tenantName)
	if err != nil {
		return nil, false, err
	}
	r := &evalRequest{
		tenant: t,
		op:     op,
		arg:    arg,
		ct:     ct,
		level:  ct.Level(),
		scale:  ct.ScaleLog2(),
		done:   make(chan evalOutcome, 1),
	}
	if err := p.sched.Submit(r); err != nil {
		return nil, false, err
	}
	out := <-r.done
	return out.ct, out.packed, out.err
}
