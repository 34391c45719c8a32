package serve

import "time"

// The scheduler's core. One core value owns a profile's whole queueing
// state — one FIFO of accepted requests, the batch in flight, the open
// batch's deadline, and the members of a failed packed batch still owed
// their solo turn — and advances only through step(event) -> actions. It
// takes no lock, starts no goroutine and reads no clock (every event
// carries the time it happened), so an arrival pattern is just a list of
// events: core_test.go drives this file alone through seeded and
// exhaustive schedules in virtual time, and the driver in scheduler.go is
// the only code that touches goroutines, timers and ciphertexts.
// DESIGN.md "The batch scheduler" has the state x event table.
//
// The contract with whoever feeds it: every evaluate is answered by
// exactly one done, and an armed deadline comes back as a tick at or
// after it.

type eventKind uint8

const (
	evArrive eventKind = iota // a request was submitted
	evTick                    // time passed
	evDone                    // the batch in flight finished
	evClose                   // intake stops; what is queued still runs
)

type event struct {
	kind   eventKind
	now    time.Time
	req    *evalRequest // evArrive
	failed bool         // evDone: the evaluation returned an error
}

type actionKind uint8

const (
	actReject   actionKind = iota // answer req with err: it was never queued
	actEvaluate                   // evaluate batch, then report done (a failed packed batch is re-run, not answered)
	actArm                        // deliver a tick at deadline
	actFinish                     // intake is closed and every request answered
)

type action struct {
	kind     actionKind
	req      *evalRequest   // actReject
	err      error          // actReject: ErrBusy, or ErrShutdown after close
	batch    []*evalRequest // actEvaluate: the seed first
	deadline time.Time      // actArm
}

type core struct {
	maxBatch, depth int
	flush           time.Duration

	queue    []*evalRequest // accepted and waiting, oldest first; the open batch's seed is queue[0]
	inFlight []*evalRequest // the batch being evaluated, nil when none
	fallback []*evalRequest // a failed packed batch's members not yet re-run alone
	open     bool           // queue[0] seeds a batch collecting riders until deadline
	deadline time.Time
	closed   bool
	finished bool
	stats    SchedStats
	out      []action
}

func newCore(maxBatch, depth int, flush time.Duration) *core {
	return &core{maxBatch: maxBatch, depth: depth, flush: flush}
}

func (c *core) emit(a action) { c.out = append(c.out, a) }

// step applies one event and returns what the driver must do. The slice
// is the caller's: the next step starts a new one.
func (c *core) step(ev event) []action {
	c.out = nil
	switch ev.kind {
	case evArrive:
		switch {
		case c.closed:
			c.emit(action{kind: actReject, req: ev.req, err: ErrShutdown})
		case len(c.queue) >= c.depth:
			c.stats.Rejected++
			c.emit(action{kind: actReject, req: ev.req, err: ErrBusy})
		default:
			c.stats.Submitted++
			c.queue = append(c.queue, ev.req)
		}
	case evDone:
		c.done(ev.failed)
	case evClose:
		c.closed = true
	}
	c.settle(ev.now)
	return c.out
}

// done books the batch in flight. A packed batch that failed answers no
// one: its members go alone next, so one tenant's fault (or an injected
// engine fault the retry rung could not heal) costs its batch-mates
// latency, never an answer.
func (c *core) done(failed bool) {
	b := c.inFlight
	c.inFlight = nil
	switch n := int64(len(b)); {
	case n == 0: // no batch in flight: nothing to book
	case n == 1:
		c.stats.SoloEvals++
	case failed:
		c.stats.Fallbacks++
		c.fallback = b
	default:
		c.stats.PackedBatches++
		c.stats.PackedReqs += n
		c.stats.MaxBatch = max(c.stats.MaxBatch, n)
	}
}

// settle starts the next evaluation when nothing is in flight: a failed
// batch's next member alone, else the open batch once it is full, closed
// or due, or as soon as a queued request lies outside it — the evaluator
// never idles while one waits. A batch opens when its seed reaches the
// head of an idle queue and is armed to flush FlushInterval later.
func (c *core) settle(now time.Time) {
	switch {
	case c.inFlight != nil:
		return
	case len(c.fallback) > 0:
		c.evaluate(c.fallback[:1])
		c.fallback = c.fallback[1:]
		return
	case len(c.queue) == 0:
		if c.closed && !c.finished {
			c.finished = true
			c.emit(action{kind: actFinish})
		}
		return
	}
	batch := c.collect()
	opening := !c.open
	if opening {
		c.open, c.deadline = true, now.Add(c.flush)
	}
	if len(batch) < c.maxBatch && len(batch) == len(c.queue) && !c.closed && now.Before(c.deadline) {
		if opening {
			c.emit(action{kind: actArm, deadline: c.deadline})
		}
		return
	}
	c.open = false
	rest, i := c.queue[:0], 0
	for _, r := range c.queue {
		if i < len(batch) && r == batch[i] {
			i++
		} else {
			rest = append(rest, r)
		}
	}
	c.queue = rest
	c.evaluate(batch)
}

func (c *core) evaluate(batch []*evalRequest) {
	c.inFlight = batch
	c.emit(action{kind: actEvaluate, batch: batch})
}

// collect picks the open batch: the oldest queued request, then every
// later one compatible with it in arrival order, up to MaxBatch.
func (c *core) collect() []*evalRequest {
	batch := []*evalRequest{c.queue[0]}
	for _, r := range c.queue[1:] {
		if len(batch) == c.maxBatch {
			break
		}
		if compatible(batch, r) {
			batch = append(batch, r)
		}
	}
	return batch
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
