package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bitpacker/internal/engine"
	"bitpacker/internal/fherr"
)

// Options tunes a supervised run.
type Options struct {
	// Dir is the job exchange directory (required). Every hello names it;
	// a spawned worker also gets it as EnvDir and serves nothing else.
	Dir string
	// Workers is the worker-slot count. Default: one slot per fleet
	// address when Addrs is set, else 2. The supervisor never runs more
	// slots than there are shards.
	Workers int
	// WorkerCommand is the argv of a worker process (the caller resolves
	// bpworker/self-exec before calling Run). When Addrs is empty the
	// supervisor spawns one per slot as a loopback fleet member and dials
	// the address it announces.
	WorkerCommand []string
	// WorkerEnv is appended to the inherited environment of every spawned
	// worker.
	WorkerEnv []string
	// Addrs lists standing fleet endpoints (`bpworker -listen`). When
	// non-empty the supervisor spawns nothing: slot i dials
	// Addrs[i%len(Addrs)].
	Addrs []string
	// Fingerprint authenticates sessions: the member compares it against
	// the job file in Dir and rejects a mismatch, so a supervisor cannot
	// adopt a fleet that is serving a different job.
	Fingerprint uint64
	// HeartbeatInterval is the worker beat period (default 250ms);
	// HeartbeatTimeout is the deadline after which a silent worker is
	// declared hung — fenced and re-dispatched, and SIGKILLed when the
	// supervisor spawned it (default 8x the interval). A dropped
	// connection spends the same deadline: the supervisor reconnects with
	// backoff and re-adopts the lease if the worker still holds it; a
	// partition that outlives the deadline breaks the lease exactly like
	// a crash.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// ShardDeadline, when positive, bounds the wall time of one shard
	// lease: a worker that heartbeats but makes no progress past it is
	// treated exactly like a hang. Zero disables the bound.
	ShardDeadline time.Duration
	// Respawn is the per-worker-slot recovery policy, with
	// engine.Retrier semantics: a crashed or hung worker is respawned
	// (or redialed) with jittered exponential backoff up to MaxAttempts
	// times per round, and BreakerThreshold consecutive exhausted rounds
	// open that slot's circuit breaker and retire it. A life that
	// completed a shard starts the count over. Zero values select the
	// Retrier defaults; AttemptTimeout and Cooldown mean nothing here
	// and Validate refuses them.
	Respawn engine.RetryPolicy
	// ShardAttempts bounds how many times a shard that a live worker
	// *reports* as failed (as opposed to dying while holding it) is
	// re-dispatched before the job fails with ErrFaultUnrecovered
	// (default 3). Broken leases never count against this budget.
	ShardAttempts int
	// DisableDegraded fails the job when every worker slot has been
	// retired instead of falling back to in-process execution.
	DisableDegraded bool
	// Logf, when non-nil, receives one structured line per recovery
	// action (spawn, respawn, hang kill, conn drop, readopt, partition,
	// stale-epoch reject, re-dispatch, degraded entry).
	Logf func(format string, args ...any)
	// OnSpawn, when non-nil, observes every worker session start —
	// monitoring hooks and TestShardSoak's random killer use it. pid is
	// 0 for standing fleet members (there is no local process to signal).
	OnSpawn func(worker, pid int)
}

// Heartbeat defaults, and the fixed policy that hangs off them. No caller
// ever tuned the dial and redial values separately from the heartbeat,
// so they are not options.
const (
	defaultHeartbeatInterval = 250 * time.Millisecond
	defaultTimeoutBeats      = 8 // HeartbeatTimeout default, in intervals
	// One connection attempt may take this many heartbeat timeouts.
	dialTimeoutFactor = 2
	// In-lease redials of a dropped connection back off from
	// redialBaseDelay up to one heartbeat interval until the heartbeat
	// deadline expires.
	redialBaseDelay = 5 * time.Millisecond
)

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		if len(o.Addrs) > 0 {
			o.Workers = len(o.Addrs)
		} else {
			o.Workers = 2
		}
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = defaultHeartbeatInterval
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = defaultTimeoutBeats * o.HeartbeatInterval
	}
	if o.ShardAttempts <= 0 {
		o.ShardAttempts = 3
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Validate rejects contradictory tuning before any worker is spawned.
// Zero and negative durations are not errors — they select defaults —
// but an explicit heartbeat timeout below the beat interval would kill
// every worker on its first deadline check and can only be a mistake.
func (o Options) Validate() error {
	interval := o.HeartbeatInterval
	if interval <= 0 {
		interval = defaultHeartbeatInterval
	}
	if o.HeartbeatTimeout > 0 && o.HeartbeatTimeout < interval {
		return fherr.Wrap(fherr.ErrInvalidParams,
			"shard: heartbeat timeout %v below interval %v (every worker would be declared hung at its first check)",
			o.HeartbeatTimeout, interval)
	}
	if o.Respawn.AttemptTimeout != 0 || o.Respawn.Cooldown != 0 {
		return fherr.Wrap(fherr.ErrInvalidParams,
			"shard: Respawn.AttemptTimeout %v and Respawn.Cooldown %v mean nothing to the supervisor (a life is bounded by the heartbeat and shard deadlines, a retired slot stays retired)",
			o.Respawn.AttemptTimeout, o.Respawn.Cooldown)
	}
	return nil
}

// Stats counts the supervisor's recovery actions over one Run.
type Stats struct {
	// Spawns is every worker session start; Respawns is the subset that
	// replaced a crashed, hung, or partitioned predecessor in the same
	// slot.
	Spawns   int64
	Respawns int64
	// Crashes counts abnormal worker exits (and dialed members that came
	// back with lost state); Hangs counts heartbeat- or shard-deadline
	// kills (each hang also exits abnormally but is not double-counted
	// as a crash).
	Crashes int64
	Hangs   int64
	// HeartbeatMisses counts deadline checks that found a beat overdue
	// by more than two intervals — late beats that may precede a hang —
	// plus dropped connections (a disconnection is a missed beat until
	// the reconnect succeeds or the lease expires).
	HeartbeatMisses int64
	// ConnDrops counts sessions that closed mid-life; Reconnects the
	// drops healed by a successful redial; Readopts the subset where an
	// in-flight lease was re-adopted (same shard, same epoch) with the
	// worker never having stopped computing. Partitions counts drops
	// that outlived the heartbeat deadline and broke the lease.
	ConnDrops  int64
	Reconnects int64
	Readopts   int64
	Partitions int64
	// Redispatches counts shards returned to the queue because their
	// worker died or partitioned; LeasesStolen is the subset completed
	// by a different worker than the one that lost them.
	Redispatches int64
	LeasesStolen int64
	// ShardRetries counts re-dispatches after a live worker reported a
	// shard failure (distinct from broken leases).
	ShardRetries int64
	// WorkersRetired counts slots whose circuit breaker opened (or whose
	// spawn failed terminally); DegradedEntries counts falls back to
	// in-process execution, and LocalShards the shards completed there.
	WorkersRetired  int64
	DegradedEntries int64
	LocalShards     int64
	// DuplicateDones counts completion reports for already-completed
	// shards (a worker that finished just before its lease was broken,
	// or a duplicated/reordered done on the wire) — detected and
	// ignored, never double-applied.
	DuplicateDones int64
	// StaleEpochRejects counts fenced zombie writes: done reports or
	// durable output stamps carrying an older lease epoch than the
	// supervisor dispatched. Rejected and (for a stamped output under
	// the current done) re-dispatched, never applied.
	StaleEpochRejects int64
}

// Callbacks connect the generic supervisor to the caller's shard
// payloads.
type Callbacks struct {
	// ShardDone validates and collects a completed shard's durable
	// output. epoch is the lease epoch the supervisor dispatched; the
	// callback must reject an output stamped with any other epoch by
	// returning an error wrapping ErrStaleEpoch (epoch < 0 accepts any
	// stamp — the resume scan). Any error (missing, corrupt, stale, or
	// undecodable output) turns the completion report into a shard
	// failure.
	ShardDone func(shard, epoch int) error
	// HealInput, when non-nil, republishes a shard's input before a
	// re-dispatch, so a corrupted input file cannot pin a shard down.
	HealInput func(shard int) error
	// ExecLocal runs one shard in-process — degraded mode's executor,
	// publishing its output under the given lease epoch. It must be
	// resumable from the shard's durable checkpoints, exactly like a
	// worker.
	ExecLocal func(ctx context.Context, shard, epoch int) error
}

// Run executes shards [0, total) across worker sessions. done marks
// shards already completed by a previous attempt (may be nil). Run
// returns when every shard is complete, the job fails with a typed
// error, or ctx is canceled.
//
// Run is the driver of the state machine in machine.go: one loop that
// feeds it what happened and performs what it answers. Whatever the
// driver starts (timers, dials, session readers, child watchers, the
// three callbacks) runs off the loop and comes back through the inbox, so
// the driver's tables need no lock, and nothing it starts outlives Run.
func Run(ctx context.Context, opts Options, total int, done []bool, cb Callbacks) (Stats, error) {
	if err := opts.Validate(); err != nil {
		return Stats{}, err
	}
	opts = opts.withDefaults()
	if total <= 0 {
		return Stats{}, fherr.Wrap(fherr.ErrInvalidParams, "shard: no shards")
	}
	if cb.ShardDone == nil || cb.ExecLocal == nil {
		return Stats{}, fherr.Wrap(fherr.ErrInvalidParams, "shard: ShardDone and ExecLocal callbacks required")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cb.HealInput == nil {
		cb.HealInput = func(int) error { return nil }
	}
	m, first := newMachine(opts, total, done, time.Now())
	d := &driver{opts: opts, cb: cb, ctx: ctx, m: m, inbox: make(chan func()), ports: make([]port, len(m.slots))}
	var stop context.CancelFunc
	d.quit, stop = context.WithCancel(context.Background())
	d.perform(first)
	ticker := time.NewTicker(opts.HeartbeatInterval)
	canceled := ctx.Done()
	for !d.finished {
		select {
		case fn := <-d.inbox:
			fn()
		case <-ticker.C:
			d.feed(event{kind: evTick})
		case <-canceled:
			canceled = nil
			d.feed(event{kind: evCancel, err: ctx.Err()})
		}
	}
	ticker.Stop()
	stop()
	for slot := range d.ports {
		d.drop(slot, 0)
	}
	// Whatever is still on its way is let in and finds nothing to do: the
	// core is finished and every port has moved on.
	go func() { d.bg.Wait(); close(d.inbox) }()
	for fn := range d.inbox {
		fn()
	}
	return m.stats, d.err
}

// driver is the I/O half of one Run. It decides nothing about leases,
// epochs, budgets or counters. Its judgements are about its own I/O:
// whether a completion still belongs to what the core last asked of a
// slot (port.gen), and that a dead child's exit is reported only after
// what the child had written to its session.
type driver struct {
	opts Options
	cb   Callbacks
	ctx  context.Context // the caller's: what ExecLocal runs under
	m    *machine

	inbox chan func()     // what happened off the loop, to be run on it
	quit  context.Context // ends with the loop: dials and timers stop waiting
	bg    sync.WaitGroup  // every goroutine the driver started, the only senders on inbox
	ports []port

	finished bool
	err      error
}

// port is a slot's I/O: the session and process the core's record stands
// for. gen moves on whenever the core asks for something new of the slot
// or drops it; a completion that carries an older gen is dropped.
type port struct {
	gen   int
	addr  string // where the slot's member listens; a fresh child announces its own
	sess  *session
	child *child
}

// feed stamps an event with the time and performs the core's answer.
func (d *driver) feed(ev event) {
	ev.now = time.Now()
	d.perform(d.m.step(ev))
}

// async runs work off the loop and then what it returns on it. Run does
// not return before both have happened.
func (d *driver) async(work func() (onLoop func())) {
	d.bg.Add(1)
	go func() {
		defer d.bg.Done()
		if fn := work(); fn != nil {
			d.inbox <- fn
		}
	}()
}

func (d *driver) perform(actions []action) {
	for _, a := range actions {
		switch a.kind {
		case actStart, actDial:
			d.connect(a.slot, a.after, a.kind == actStart)
		case actSend:
			if sess := d.ports[a.slot].sess; sess != nil {
				if err := sess.send(a.msg); err != nil {
					// The read side sees the drop; the core takes it from there.
					d.opts.Logf("shard: action=%s-write-failed worker=%d shard=%d reason=%q", a.msg.Type, a.slot, a.msg.Shard, err.Error())
				}
				if a.last {
					sess.closeSend()
				}
			}
		case actDrop:
			d.drop(a.slot, a.after)
		case actVerify:
			d.call(event{kind: evVerified, shard: a.shard, epoch: a.epoch}, func() error { return d.cb.ShardDone(a.shard, a.epoch) })
		case actHeal:
			d.call(event{kind: evHealed, shard: a.shard}, func() error { return d.cb.HealInput(a.shard) })
		case actExecLocal:
			d.call(event{kind: evLocalDone, shard: a.shard, epoch: a.epoch}, func() error { return d.cb.ExecLocal(d.ctx, a.shard, a.epoch) })
		case actLog:
			d.opts.Logf("%s", a.text)
		case actFinish:
			d.finished, d.err = true, a.err
		}
	}
}

// call runs one of the caller's callbacks off the loop and answers the
// core with its verdict.
func (d *driver) call(answer event, callback func() error) {
	d.async(func() func() {
		answer.err = callback()
		return func() { d.feed(answer) }
	})
}

// connect gives the slot a session once the delay is over, unless the
// core has asked for something else of the slot by then.
func (d *driver) connect(slot int, after time.Duration, life bool) {
	p := &d.ports[slot]
	p.gen++
	gen := p.gen
	d.async(func() func() {
		select {
		case <-time.After(after):
			return func() { d.attach(slot, gen, life) }
		case <-d.quit.Done():
			return nil
		}
	})
}

// deliver feeds the core an event about a slot, unless the core has moved
// the slot on since gen.
func (d *driver) deliver(slot, gen int, ev event) {
	if d.ports[slot].gen == gen {
		ev.slot = slot
		d.feed(ev)
	}
}

// attach dials the slot's member. A new life first gets its address — the
// one thing Addrs vs WorkerCommand decides: a standing member's, or that
// of a child spawned now, which announces where it listens — and its
// first session is what OnSpawn observes.
func (d *driver) attach(slot, gen int, life bool) {
	p := &d.ports[slot]
	if p.gen != gen {
		return
	}
	if n := len(d.opts.Addrs); n > 0 {
		p.addr = d.opts.Addrs[slot%n]
	} else if life {
		ch, err := startChild(d.opts, slot)
		if err != nil {
			d.deliver(slot, gen, event{kind: evDialFailed, err: err, terminal: true})
			return
		}
		p.child, p.addr = ch, ""
		d.async(func() func() {
			<-ch.done // every child is dropped by the end of Run at the latest
			return func() {
				ch.reaped = true
				tail := ch.stderr.String()
				switch {
				case p.child == ch && p.sess == nil:
					d.exited(slot)
				case p.child == ch:
					// Its last words are heard first: the end of the
					// session reports the exit.
				case tail != "":
					// Ended on the core's word, which has logged why; what
					// the child said on its way out is kept beside it.
					d.opts.Logf("shard: action=reaped worker=%d pid=%d status=%q stderr=%q", slot, ch.cmd.Process.Pid, fmt.Sprint(ch.err), tail)
				}
			}
		})
	}
	addr, ch := p.addr, p.child
	d.async(func() func() {
		if addr == "" {
			select {
			case addr = <-ch.addr:
			case <-d.quit.Done():
			}
			if addr == "" {
				return nil // stdout ended first: the exit, or the start deadline, says why
			}
		}
		sess, err := dial(d.quit, d.opts, slot, addr)
		if err != nil {
			return func() { d.deliver(slot, gen, event{kind: evDialFailed, err: err}) }
		}
		d.inbox <- func() {
			if p.gen != gen {
				sess.close() // which also ends the read below
				return
			}
			p.sess, p.addr = sess, addr
			peer, pid := addr, 0 // pid 0: a standing member, nothing local to signal
			if ch != nil {
				pid = ch.cmd.Process.Pid
				peer = fmt.Sprintf("pid %d at %s", pid, addr)
			}
			if life && d.opts.OnSpawn != nil {
				d.opts.OnSpawn(slot, pid)
			}
			d.feed(event{kind: evAttached, slot: slot, peer: peer})
		}
		err = sess.read(func(m Msg) { d.inbox <- func() { d.deliver(slot, gen, event{kind: evMsg, msg: m}) } })
		return func() {
			if p.gen != gen {
				return
			}
			sess.close()
			p.sess = nil
			if p.child != nil && p.child.reaped {
				d.exited(slot)
			} else {
				d.feed(event{kind: evClosed, slot: slot, err: err})
			}
		}
	})
}

// exited tells the core that the slot's child is gone: a crash at once,
// by exit status, with the stderr tail for the log line.
func (d *driver) exited(slot int) {
	ch := d.ports[slot].child
	d.ports[slot].child = nil
	d.feed(event{kind: evChildExited, slot: slot, err: fmt.Errorf("process exited: %v (stderr %q)", ch.err, ch.stderr.String())})
}

// drop ends what the slot has of its worker: the session, with the gen
// any start or dial still on its way, and the child, which its watcher
// reaps.
func (d *driver) drop(slot int, grace time.Duration) {
	p := &d.ports[slot]
	p.gen++
	if p.sess != nil {
		p.sess.close()
		p.sess = nil
	}
	if p.child != nil {
		p.child.stop(grace)
		p.child = nil
	}
}
