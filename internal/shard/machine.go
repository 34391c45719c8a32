package shard

import (
	"errors"
	"fmt"
	"time"

	"bitpacker/internal/engine"
	"bitpacker/internal/fherr"
)

// The supervisor's core. One machine value owns the whole ledger of a
// Run — which shard is queued, leased to whom under which epoch, being
// verified, or done — plus one small record per worker slot, and
// advances only through step(event) -> actions. It
// starts no goroutine, takes no lock, does no I/O and reads no clock
// (every event carries the time it happened; backoff jitter comes from
// the policy's seeded PRNG), so an interleaving of worker, network and
// callback behaviour is just a list of events: machine_test.go drives
// this file alone through seeded and exhaustive schedules, and the driver
// in shard.go is the only code that touches sockets and processes.
// DESIGN.md "Sharded execution & supervision" has the state x event table.
//
// The contract with whoever feeds it: an event about a slot's session or
// child means the one the core last asked for — after a drop or a new
// start/dial nothing more arrives from the old one — and a verify is
// answered by exactly one event. A done's output batch passes through as
// opaque bytes, from the message into the verify. The machine runs no
// shard itself: once every slot is retired with shards unfinished it
// finishes with ErrFleetLost, and the caller decides what happens to
// them.

type eventKind uint8

const (
	evAttached    eventKind = iota // a start or dial produced a session; hello is on its way
	evDialFailed                   // a start or dial produced none (terminal: retrying cannot help)
	evMsg                          // the slot's session delivered a protocol message
	evClosed                       // the slot's session ended
	evChildExited                  // the slot's own process is gone
	evVerified                     // collect returned for (shard, epoch)
	evTick                         // time passed
	evCancel                       // the job's context was canceled
)

type event struct {
	kind         eventKind
	now          time.Time
	slot         int
	msg          Msg    // evMsg; a done carries its output batch
	shard, epoch int    // evVerified
	err          error  // what failed, or the callback's verdict
	terminal     bool   // evDialFailed: no worker can ever be started this way
	peer         string // evAttached: who answered, for the log lines
}

type actionKind uint8

const (
	actStart  actionKind = iota // after the delay, begin a life: spawn the child if slots own one, then dial
	actDial                     // after the delay, dial the slot's member again
	actSend                     // write msg on the slot's session (last: nothing follows, half-close)
	actDrop                     // end the slot's session, pending start or dial, and child (stdin closed, SIGKILL after the delay)
	actVerify                   // run collect(shard, batch)
	actLog                      // one structured line
	actFinish                   // the Run is over with err
)

type action struct {
	kind         actionKind
	slot         int
	after        time.Duration
	msg          Msg
	last         bool
	shard, epoch int
	batch        []byte // actVerify: the output batch the done carried
	text         string
	err          error
}

type shardState uint8

const (
	shardPending   shardState = iota // in the queue
	shardLeased                      // assigned to owner under epoch
	shardVerifying                   // owner reported done under epoch; collect is looking at the output
	shardDone
)

type shardRec struct {
	state    shardState
	epoch    int // lease fencing token: increments per dispatch
	owner    int // slot of the current or last lease
	attempts int // failures a live worker reported (or collect found); broken leases are free
	brokenBy int // 1 + the slot that last lost this shard's lease
}

type slotState uint8

const (
	slotStarting    slotState = iota // start issued: backoff, spawn, address, first dial
	slotHandshaking                  // attached; the worker is building its context and has not said ready
	slotIdle
	slotLeased
	slotRedialing // session lost; redialing while the heartbeat budget of the drop lasts
	slotFlushing  // re-attached to a worker that says it is idle: its queued report for our lease is due
	slotDraining  // told to go; waiting for it to close
	slotRetired   // out of the Run: drained, canceled, or given up on
)

type slot struct {
	id           int
	state        slotState
	shard, epoch int       // the lease; (-1, 0) is none
	deadline     time.Time // attached: last message + the heartbeat deadline; else when the state itself gives up
	leaseStart   time.Time // ShardDeadline runs from here; progress beats push it
	attempt      int       // lives that ended badly in the current respawn round
	rounds       int       // consecutive exhausted rounds; BreakerThreshold of them retire the slot
	lives        int       // sessions started: the first is a spawn, the rest respawns
	redials      int       // attempts since the current drop
	peer         string
}

type machine struct {
	opts    Options
	respawn engine.RetryPolicy // opts.Respawn with its defaults filled in
	spawns  bool               // slots own a child process rather than dial a standing member
	backoff *engine.Backoff    // between lives of a slot
	redial  *engine.Backoff    // between dials within one drop

	shards    []shardRec
	pending   []int
	doneCount int
	inflight  int // verifies not yet answered
	slots     []slot
	live      int // slots not retired
	stats     Stats

	stopping   bool  // no more work is handed out: all done, job failed, or canceled
	canceled   error // the context's, once canceled
	jobErr     error
	lastRetire error
	finished   bool
	out        []action
}

// newMachine builds the core for shards [0, total) minus those already
// done and returns it with its opening actions.
func newMachine(opts Options, total int, done []bool, now time.Time) (*machine, []action) {
	respawn := opts.Respawn.retry()
	m := &machine{
		opts:    opts,
		respawn: respawn,
		spawns:  len(opts.Addrs) == 0,
		backoff: engine.NewBackoff(respawn),
		// In-lease redials back off from redialBaseDelay up to one
		// heartbeat interval; the deadline, not a count, ends them.
		redial: engine.NewBackoff(engine.RetryPolicy{BaseDelay: redialBaseDelay, MaxDelay: opts.HeartbeatInterval}),
		shards: make([]shardRec, total),
	}
	for i := range m.shards {
		if i < len(done) && done[i] {
			m.shards[i].state = shardDone
			m.doneCount++
		} else {
			m.pending = append(m.pending, i)
		}
	}
	m.live = min(opts.Workers, len(m.pending))
	m.slots = make([]slot, m.live)
	for i := range m.slots {
		m.slots[i] = slot{id: i, shard: -1}
		m.start(&m.slots[i], 0, now)
	}
	return m, m.settle()
}

func (m *machine) emit(a action) { m.out = append(m.out, a) }

// note is the one emission point of "what the supervisor did and why":
// every recovery action is one structured log line and, when it has one,
// one Stats counter.
func (m *machine) note(counter *int64, format string, args ...any) {
	if counter != nil {
		*counter++
	}
	m.emit(action{kind: actLog, text: fmt.Sprintf(format, args...)})
}

// step advances the machine by one event.
func (m *machine) step(ev event) []action {
	if m.finished {
		return nil
	}
	switch ev.kind {
	case evTick:
		for i := range m.slots {
			m.tick(&m.slots[i], ev.now)
		}
	case evCancel:
		// Cancellation always wins and is never a fault: a worker stopped
		// because the job was canceled is not a crash, and nothing is
		// charged to any budget. Idle workers are drained (dispatch); the
		// rest are cut off where they stand.
		m.canceled, m.stopping = ev.err, true
		for i := range m.slots {
			if sl := &m.slots[i]; sl.state != slotIdle && sl.state != slotDraining && sl.state != slotRetired {
				m.leave(sl, false, 0)
			}
		}
	case evVerified:
		m.verified(ev)
	case evAttached:
		m.attached(&m.slots[ev.slot], ev)
	case evDialFailed, evClosed:
		m.lost(&m.slots[ev.slot], ev)
	case evMsg:
		m.message(&m.slots[ev.slot], ev)
	case evChildExited:
		// A child's exit beats whatever symptom of it was noticed first: a
		// dead pid is a crash at once, never a silence to time out or a
		// port to keep redialing. One that was told to leave has just left.
		if sl := &m.slots[ev.slot]; sl.state == slotDraining {
			m.note(nil, "shard: action=drain worker=%d peer=%s", sl.id, sl.peer)
			m.leave(sl, false, 0)
		} else if sl.state != slotRetired {
			m.fail(sl, &m.stats.Crashes, "crash", ev.err, ev.now)
		}
	}
	m.dispatch(ev.now)
	return m.settle()
}

// dispatch hands queued shards to idle slots, each lease under a fresh
// epoch — or, once the job is stopping, tells every attached slot to go.
func (m *machine) dispatch(now time.Time) {
	for i := range m.slots {
		sl := &m.slots[i]
		switch {
		case m.stopping && (sl.state == slotHandshaking || sl.state == slotIdle || sl.state == slotLeased):
			// Drain: the worker ends the session on its own and a child is
			// then told to exit. A lease cut short by the end of the job
			// is not a re-dispatch.
			m.release(sl, false)
			sl.state, sl.deadline = slotDraining, now.Add(m.opts.heartbeatDeadline())
			m.emit(action{kind: actSend, slot: sl.id, msg: Msg{Type: MsgDrain}, last: true})
		case !m.stopping && sl.state == slotIdle && len(m.pending) > 0:
			sl.state, sl.leaseStart = slotLeased, now
			// The next queued shard, under a fresh fencing epoch.
			sl.shard, m.pending = m.pending[0], m.pending[1:]
			rec := &m.shards[sl.shard]
			rec.epoch++
			rec.state, rec.owner, sl.epoch = shardLeased, sl.id, rec.epoch
			m.note(nil, "shard: action=assign worker=%d peer=%s shard=%d epoch=%d", sl.id, sl.peer, sl.shard, sl.epoch)
			m.emit(action{kind: actSend, slot: sl.id, msg: Msg{Type: MsgAssign, Shard: sl.shard, Epoch: sl.epoch}})
		}
	}
}

func (m *machine) queue(shard int) {
	m.shards[shard].state = shardPending
	m.pending = append(m.pending, shard)
}

// settle ends the step. Once no slot is left and no verdict is in flight
// the Run is over: done, failed, canceled, or — shards unfinished — the
// fleet is lost, which is handed back to the caller.
func (m *machine) settle() []action {
	var err error
	switch total := len(m.shards); {
	case m.live > 0:
		return m.take()
	case m.jobErr != nil:
		err = m.jobErr
	case m.canceled != nil:
		err = fherr.Wrap(fherr.ErrCanceled, "shard: job canceled (%v)", m.canceled)
	case m.doneCount == total:
	case m.inflight > 0:
		return m.take() // a verdict may still finish or re-queue a shard
	default:
		err = fmt.Errorf("shard: %d/%d shards unfinished: %w: %w (last: %v)",
			total-m.doneCount, total, ErrFleetLost, fherr.ErrFaultUnrecovered, m.lastRetire)
	}
	m.finished = true
	m.emit(action{kind: actFinish, err: err})
	return m.take()
}

func (m *machine) take() []action {
	out := m.out
	m.out = nil
	return out
}

func (m *machine) start(sl *slot, after time.Duration, now time.Time) {
	// Binding precedes everything slow in a child, so its session is due
	// within the deadline any other silence gets. A dial to a standing
	// member is bounded by the driver's dial timeout instead.
	sl.state, sl.deadline = slotStarting, now.Add(after+m.opts.heartbeatDeadline())
	m.emit(action{kind: actStart, slot: sl.id, after: after})
}

// release takes the slot's lease away and queues the shard again (its
// next worker recomputes it unless its final checkpoint landed). broken marks a lease lost to
// a death or partition: free for the shard's attempt budget, counted as a
// re-dispatch.
func (m *machine) release(sl *slot, broken bool) {
	if sl.epoch == 0 {
		return
	}
	m.queue(sl.shard)
	if broken {
		m.shards[sl.shard].brokenBy = 1 + sl.id
		m.note(&m.stats.Redispatches, "shard: action=redispatch worker=%d shard=%d", sl.id, sl.shard)
	}
	sl.shard, sl.epoch = -1, 0
}

// drop ends what the slot has of its worker: lease back in the queue,
// session and pending dials gone, child ended (grace: how long it may
// take to exit on its own).
func (m *machine) drop(sl *slot, broken bool, grace time.Duration) {
	m.release(sl, broken)
	m.emit(action{kind: actDrop, slot: sl.id, after: grace})
}

// leave drops the worker and takes the slot out of the Run.
func (m *machine) leave(sl *slot, broken bool, grace time.Duration) {
	m.drop(sl, broken, grace)
	sl.state = slotRetired
	m.live--
}

// fail is the one death handler: count it, break the lease, make sure
// session and process are gone, and spend the slot's respawn budget —
// MaxAttempts lives per round with jittered backoff between them,
// BreakerThreshold consecutive exhausted rounds retire the slot. A life
// that completed a shard has reset both counters (verified).
func (m *machine) fail(sl *slot, counter *int64, kind string, cause error, now time.Time) {
	m.note(counter, "shard: action=%s worker=%d peer=%s shard=%d reason=%q", kind, sl.id, sl.peer, sl.shard, cause)
	if m.stopping {
		m.leave(sl, true, 0)
		return
	}
	m.drop(sl, true, 0)
	if sl.attempt++; sl.attempt < m.respawn.MaxAttempts {
		m.start(sl, m.backoff.Delay(sl.attempt), now)
		return
	}
	sl.attempt = 0
	sl.rounds++
	m.note(nil, "shard: action=respawn-round-exhausted worker=%d reason=%q", sl.id, cause)
	if sl.rounds < m.respawn.BreakerThreshold {
		m.start(sl, 0, now)
		return
	}
	m.retire(sl, fherr.Wrap(fherr.ErrCircuitOpen, "shard: worker %d (%s): %d consecutive respawn rounds exhausted (last: %s: %v)",
		sl.id, sl.peer, sl.rounds, kind, cause))
}

// retire gives up on a slot: its breaker opened, or what failed cannot be
// fixed by trying again (no binary, a rejected handshake) — deliberately
// not a fault, so there are no retries. The last slot retired hands the
// fleet back (settle).
func (m *machine) retire(sl *slot, cause error) {
	m.lastRetire = cause
	m.note(&m.stats.WorkersRetired, "shard: action=retire worker=%d reason=%q", sl.id, cause)
	m.leave(sl, true, 0)
}

func (m *machine) attached(sl *slot, ev event) {
	if sl.state != slotStarting {
		return // a redial connected: the lease's fate waits for the ready
	}
	sl.state, sl.deadline, sl.peer = slotHandshaking, ev.now.Add(m.opts.heartbeatDeadline()), ev.peer
	m.stats.Spawns++
	if sl.lives++; sl.lives == 1 {
		m.note(nil, "shard: action=spawn worker=%d peer=%s", sl.id, ev.peer)
	} else {
		m.note(&m.stats.Respawns, "shard: action=respawn worker=%d peer=%s", sl.id, ev.peer)
	}
}

// lost: a dial produced no session, or the session ended — which says
// nothing about the worker behind it. A member keeps computing through a
// disconnection, so a drop spends what is left of the heartbeat deadline
// redialing before the lease is given up.
func (m *machine) lost(sl *slot, ev event) {
	switch sl.state {
	case slotStarting:
		switch {
		case ev.terminal:
			m.retire(sl, ev.err)
		case m.spawns:
			m.fail(sl, &m.stats.Crashes, "crash", ev.err, ev.now)
		default:
			// A standing member that cannot be dialed is backed off and
			// redialed on the same budget, but nothing crashed.
			m.fail(sl, nil, "unreachable", ev.err, ev.now)
		}
	case slotHandshaking, slotIdle, slotLeased:
		m.stats.HeartbeatMisses++
		sl.state, sl.redials = slotRedialing, 0
		m.note(&m.stats.ConnDrops, "shard: action=conn-drop worker=%d shard=%d epoch=%d budget=%v reason=%q",
			sl.id, sl.shard, sl.epoch, sl.deadline.Sub(ev.now).Round(time.Millisecond), ev.err)
		m.emit(action{kind: actDial, slot: sl.id})
	case slotRedialing:
		if sl.redials++; ev.now.Before(sl.deadline) {
			m.emit(action{kind: actDial, slot: sl.id, after: m.redial.Delay(sl.redials)})
			return
		}
		m.tick(sl, ev.now) // the budget is spent: a partition
	case slotFlushing:
		m.fail(sl, &m.stats.Crashes, "crash", errors.New("reconnected session closed before flushing completion"), ev.now)
	case slotDraining:
		m.note(nil, "shard: action=drain worker=%d peer=%s", sl.id, sl.peer)
		m.leave(sl, false, m.opts.heartbeatDeadline())
	}
}

// tick checks the slot's deadline. A worker beats from the hello on,
// before the context build, so one deadline covers startup, idling and
// compute; a drop inherits what is left of it.
func (m *machine) tick(sl *slot, now time.Time) {
	late, hbt := !now.Before(sl.deadline), m.opts.heartbeatDeadline()
	switch sl.state {
	case slotStarting:
		if late && m.spawns {
			m.fail(sl, &m.stats.Hangs, "hang", fmt.Errorf("no session within %v of the start", hbt), now)
		}
	case slotHandshaking, slotIdle, slotLeased:
		switch silent := (now.Sub(sl.deadline) + hbt).Round(time.Millisecond); {
		case late:
			m.fail(sl, &m.stats.Hangs, "hang", fmt.Errorf("no heartbeat for %v (deadline %v)", silent, hbt), now)
		case sl.state == slotLeased && m.opts.ShardDeadline > 0 && now.Sub(sl.leaseStart) > m.opts.ShardDeadline:
			m.fail(sl, &m.stats.Hangs, "hang", fmt.Errorf("shard %d exceeded deadline %v", sl.shard, m.opts.ShardDeadline), now)
		case silent > 2*m.opts.HeartbeatInterval:
			m.note(&m.stats.HeartbeatMisses, "shard: action=heartbeat-miss worker=%d peer=%s silent=%v", sl.id, sl.peer, silent)
		}
	case slotRedialing:
		// The drop outlived the lease's heartbeat budget, exactly like a
		// hang. The worker may be alive on the far side; its epoch is
		// fenced from here on.
		if late {
			m.fail(sl, &m.stats.Partitions, "partition", errors.New("no reconnection before the heartbeat deadline"), now)
		}
	case slotFlushing:
		if late {
			m.fail(sl, &m.stats.Crashes, "crash", errors.New("reconnected worker lost the lease state"), now)
		}
	case slotDraining:
		if late {
			m.note(nil, "shard: action=drain-kill worker=%d peer=%s", sl.id, sl.peer)
			m.leave(sl, false, 0)
		}
	}
}

func (m *machine) message(sl *slot, ev event) {
	switch sl.state {
	case slotHandshaking, slotIdle, slotLeased:
		sl.deadline = ev.now.Add(m.opts.heartbeatDeadline())
	case slotRedialing, slotFlushing:
		// The budget was fixed when the connection dropped.
	default:
		return // draining: it is on its way out, whatever it still says
	}
	switch msg := ev.msg; msg.Type {
	case MsgBeat:
		// Progress beats also push the shard deadline forward.
		if sl.state == slotLeased && msg.Shard == sl.shard && msg.Step > 0 {
			sl.leaseStart = ev.now
		}
	case MsgReady:
		m.ready(sl, ev)
	case MsgReject:
		// Terminal misconfiguration (wrong fingerprint, wrong fleet).
		m.retire(sl, fmt.Errorf("shard: worker %d handshake rejected by %s: %s", sl.id, sl.peer, msg.Err))
	case MsgDone, MsgFail:
		m.report(sl, ev)
	default:
		m.fail(sl, &m.stats.Crashes, "crash", fmt.Errorf("protocol: unexpected %q", msg.Type), ev.now)
	}
}

// ready ends a handshake. After a redial it also says what the worker
// still holds: our exact lease (re-adopt, nothing was lost), nothing (it
// may have finished during the drop and queued the report, which follows
// the ready), or something else (it lost our state).
func (m *machine) ready(sl *slot, ev event) {
	msg := ev.msg
	switch {
	case sl.state == slotHandshaking:
		if msg.Epoch > 0 {
			// A standing member still running a lease from a previous
			// supervisor life abandons it at the next assign; its reports
			// are fenced by epoch.
			m.note(nil, "shard: action=ready-stale-lease worker=%d shard=%d epoch=%d", sl.id, msg.Shard, msg.Epoch)
		}
		sl.state = slotIdle
	case sl.state != slotRedialing:
		// A re-handshake mid-life says nothing new.
	case sl.epoch == 0 || (msg.Shard == sl.shard && msg.Epoch == sl.epoch):
		sl.state, sl.deadline = slotIdle, ev.now.Add(m.opts.heartbeatDeadline())
		if sl.epoch > 0 {
			sl.state = slotLeased
			m.stats.Readopts++
		}
		m.note(&m.stats.Reconnects, "shard: action=readopt worker=%d peer=%s shard=%d epoch=%d", sl.id, sl.peer, sl.shard, sl.epoch)
	case msg.Epoch != 0:
		m.fail(sl, &m.stats.Crashes, "crash", fmt.Errorf("reconnected worker reports shard %d epoch %d while leased %d epoch %d",
			msg.Shard, msg.Epoch, sl.shard, sl.epoch), ev.now)
	default:
		sl.state = slotFlushing
	}
}

// report handles a done or fail, and is the one place such a report is
// compared against a lease — which is what fences a zombie's output
// batch, since it rides its done. The slot's own lease ends with its
// report: the slot is idle again at once and the output is validated off
// to the side. Anything else is a duplicate or a fenced zombie — counted
// and dropped, never applied — or a protocol violation.
func (m *machine) report(sl *slot, ev event) {
	msg := ev.msg
	switch own := (sl.state == slotLeased || sl.state == slotFlushing) && msg.Shard == sl.shard && msg.Epoch == sl.epoch; {
	case !own && (msg.Shard < 0 || msg.Shard >= len(m.shards) || msg.Epoch > m.shards[msg.Shard].epoch):
		m.fail(sl, &m.stats.Crashes, "crash", fmt.Errorf("protocol: %s for shard %d epoch %d while leased %d epoch %d",
			msg.Type, msg.Shard, msg.Epoch, sl.shard, sl.epoch), ev.now)
		return
	case !own:
		switch rec := m.shards[msg.Shard]; {
		case rec.state == shardDone || (rec.state == shardVerifying && rec.epoch == msg.Epoch):
			m.note(&m.stats.DuplicateDones, "shard: action=duplicate-done worker=%d shard=%d epoch=%d", sl.id, msg.Shard, msg.Epoch)
		case msg.Type == MsgDone:
			m.note(&m.stats.StaleEpochRejects, "shard: action=stale-epoch-reject worker=%d shard=%d epoch=%d current=%d", sl.id, msg.Shard, msg.Epoch, rec.epoch)
		default:
			m.note(nil, "shard: action=stale-fail-dropped worker=%d shard=%d epoch=%d current=%d", sl.id, msg.Shard, msg.Epoch, rec.epoch)
		}
		return
	}
	if sl.state == slotFlushing {
		sl.deadline = ev.now.Add(m.opts.heartbeatDeadline())
		m.note(&m.stats.Reconnects, "shard: action=reconnect-flush worker=%d peer=%s shard=%d epoch=%d type=%s", sl.id, sl.peer, sl.shard, sl.epoch, msg.Type)
	}
	sl.state = slotIdle
	if msg.Type == MsgFail && msg.Class == ClassCanceled {
		// The worker's own operation context was canceled: not a crash and
		// not a shard fault.
		m.note(nil, "shard: action=worker-canceled worker=%d shard=%d reason=%q", sl.id, sl.shard, msg.Err)
		m.release(sl, true)
		return
	}
	shard, epoch := sl.shard, sl.epoch
	sl.shard, sl.epoch = -1, 0
	if msg.Type == MsgFail {
		m.shardFailed(shard, fmt.Errorf("worker %d: %s", sl.id, msg.Err))
		return
	}
	m.shards[shard].state = shardVerifying
	m.inflight++
	m.emit(action{kind: actVerify, shard: shard, epoch: epoch, batch: msg.Batch})
}

// verified: collect looked at the output batch a worker reported done.
// Any error turns the completion into a shard failure.
func (m *machine) verified(ev event) {
	rec := &m.shards[ev.shard]
	m.inflight--
	switch {
	case ev.err != nil:
		m.note(nil, "shard: action=output-rejected worker=%d shard=%d reason=%q", rec.owner, ev.shard, ev.err)
		m.shardFailed(ev.shard, ev.err)
	default:
		rec.state = shardDone
		if rec.brokenBy != 0 && rec.brokenBy != 1+rec.owner {
			m.stats.LeasesStolen++
		}
		// A life that completes shards is not failing: its slot starts
		// over with a full respawn budget, however its lives end.
		m.slots[rec.owner].attempt, m.slots[rec.owner].rounds = 0, 0
		if m.doneCount++; m.doneCount == len(m.shards) {
			m.stopping = true
		}
	}
}

// shardFailed handles a failure a live worker reported, or an output
// collect rejected: queue the shard again — its input is the
// supervisor's own copy, which no disk can have corrupted — or fail the
// job once the shard's attempt budget is spent.
func (m *machine) shardFailed(shard int, cause error) {
	rec := &m.shards[shard]
	if rec.attempts++; rec.attempts < m.opts.ShardAttempts {
		m.note(&m.stats.ShardRetries, "shard: action=shard-retry worker=%d shard=%d attempt=%d reason=%q", rec.owner, shard, rec.attempts, cause)
		m.queue(shard)
		return
	}
	m.note(nil, "shard: action=shard-exhausted worker=%d shard=%d attempts=%d reason=%q", rec.owner, shard, rec.attempts, cause)
	m.queue(shard)
	m.stopping = true
	if m.jobErr == nil {
		m.jobErr = fmt.Errorf("shard: shard %d failed %d times: %w (last: %w)", shard, rec.attempts, fherr.ErrFaultUnrecovered, cause)
	}
}
