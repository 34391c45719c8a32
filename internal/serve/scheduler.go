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

// scheduler is the driver around a profile's core (core.go), which makes
// every queueing decision: Submit and Close feed it under one mutex, a
// timer carries out each deadline it arms, and each batch it releases is
// evaluated on a goroutine of its own that reports back when done. The
// core keeps at most one batch in flight, so evaluations never overlap.
type scheduler struct {
	p        *profile
	mu       sync.Mutex
	core     *core
	finished chan struct{} // closed on the core's finish

	masks map[int]*bitpacker.Plain // extraction mask per level; only the batch in flight touches it
}

func newScheduler(p *profile) *scheduler {
	return &scheduler{
		p:        p,
		core:     newCore(p.cfg.MaxBatch, p.cfg.QueueDepth, p.cfg.FlushInterval),
		finished: make(chan struct{}),
		masks:    map[int]*bitpacker.Plain{},
	}
}

// step feeds one event, stamped now, to the core.
func (s *scheduler) step(ev event) []action {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev.now = time.Now()
	return s.core.step(ev)
}

// perform carries out the core's actions.
func (s *scheduler) perform(acts []action) {
	for _, a := range acts {
		switch a.kind {
		case actReject:
			a.req.done <- evalOutcome{err: a.err}
		case actEvaluate:
			go s.evaluate(a)
		case actArm:
			time.AfterFunc(time.Until(a.deadline), func() { s.perform(s.step(event{kind: evTick})) })
		case actFinish:
			close(s.finished)
		}
	}
}

// evaluate runs one batch, reports it done, and answers its members —
// unless the core re-runs them alone after a packed failure.
func (s *scheduler) evaluate(a action) {
	outs, err := s.eval(a.batch)
	acts := s.step(event{kind: evDone, failed: err != nil})
	if err == nil || len(a.batch) == 1 {
		for i, r := range a.batch {
			out := evalOutcome{err: err}
			if err == nil {
				out.ct, out.packed = outs[i], len(a.batch) > 1
			}
			r.done <- out
		}
	}
	s.perform(acts)
}

// Submit queues one request, never blocking: a full queue is the
// backpressure signal (ErrBusy → HTTP 429 + Retry-After), not a place
// to park goroutines. The answer, a rejection included, arrives on
// r.done.
func (s *scheduler) Submit(r *evalRequest) { s.perform(s.step(event{kind: evArrive, req: r})) }

// Stats snapshots the scheduler's counters.
func (s *scheduler) Stats() SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.stats
}

// Close stops intake and waits until every queued request has been
// evaluated and answered: shutdown is clean, not lossy.
func (s *scheduler) Close() {
	s.perform(s.step(event{kind: evClose}))
	<-s.finished
}

// eval is the one evaluation of a batch, whatever its size: pack the
// members by adds (none for a batch of one), apply the op once, then
// extract every member's window in one hoisted pass over the window
// offsets — RotateHoistedMulRescale pins exactly those keys for its
// fan-out and multiplies by the cached mask before its one division
// per reply. It returns the replies in batch order.
func (s *scheduler) eval(batch []*evalRequest) ([]*bitpacker.Ciphertext, error) {
	fhe := s.p.ctx
	packed := batch[0].ct
	for _, r := range batch[1:] {
		var err error
		if packed, err = fhe.Add(packed, r.ct); err != nil {
			return nil, err
		}
	}
	result, err := s.applyOp(packed, batch)
	if err != nil {
		return nil, err
	}
	steps := make([]int, len(batch))
	for i, r := range batch {
		steps[i] = r.tenant.window * s.p.cfg.Window
	}
	mask, err := s.mask(result.Level())
	if err != nil {
		return nil, err
	}
	return fhe.RotateHoistedMulRescale(result, steps, mask)
}

// applyOp performs the batch's single shared evaluation: the op table's
// form of the op, with one special case. A packed batch of a per-tenant-argument op (scale,
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

// mask is the plaintext that zeroes every slot outside [0, Window) at
// a level. The vector never changes, so each level pays its encode
// transform once, not once per request.
func (s *scheduler) mask(level int) (*bitpacker.Plain, error) {
	if pl, ok := s.masks[level]; ok {
		return pl, nil
	}
	vec := make([]complex128, s.p.ctx.Slots())
	for i := 0; i < s.p.cfg.Window; i++ {
		vec[i] = 1
	}
	pl, err := s.p.ctx.EncodePlain(vec, level)
	if err == nil {
		s.masks[level] = pl
	}
	return pl, err
}

// Eval is the synchronous front door the HTTP layer calls: validate,
// submit, wait. The scheduler answers every submitted request exactly
// once, a rejection included, so the wait needs no timeout of its own.
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
	p.sched.Submit(r)
	out := <-r.done
	return out.ct, out.packed, out.err
}
