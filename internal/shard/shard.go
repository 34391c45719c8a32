package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"bitpacker/internal/engine"
	"bitpacker/internal/fherr"
)

// Options tunes a sharded job. It is declared once, here, and is
// bitpacker.ShardOptions: RunSharded reads all of it and routes the job —
// in-process, or across a fleet — and hands Run a copy with Dir, Workers
// and WorkerCommand resolved. Run reads only the fleet's part; ShardSize,
// EngineWorkers, DisableDegraded and Keep are RunSharded's alone. Each
// field has a setter — a deployment flag, bench/ or a test seam — named
// in DESIGN.md's options ledger; the heartbeat deadline and the dial and
// redial timing, which nobody tuned apart from the beat period, derive
// from HeartbeatInterval.
type Options struct {
	// Dir is the job exchange directory: the job description and the
	// per-shard checkpoints live under it (inputs and outputs travel on
	// the worker sessions), and a rerun over the same directory resumes
	// (a shard whose final checkpoint is intact is not recomputed; a
	// different job's leftovers are detected by fingerprint and cleared).
	// Empty uses a private temporary directory (no cross-run resume).
	// Every hello names it; a spawned worker also gets it as EnvDir and
	// serves nothing else.
	Dir string
	// Workers is the worker-slot count. Zero with no Addrs means no
	// fleet: RunSharded runs every shard in-process, one after another,
	// through the same ExecShard path and checkpoints. With Addrs it
	// defaults to len(Addrs). The supervisor never runs more slots than
	// there are shards.
	Workers int
	// ShardSize is the number of ciphertexts per shard. Zero picks a
	// default that keeps at least ~4 shards per worker for re-dispatch
	// granularity (minimum 1 ciphertext).
	ShardSize int
	// WorkerCommand is the argv of a worker process. When empty,
	// RunSharded tries the BITPACKER_BPWORKER environment variable, then
	// bpworker on PATH; with none available the job runs degraded
	// in-process (or fails if DisableDegraded). When Addrs is empty the
	// supervisor spawns one per slot as a loopback fleet member and dials
	// the address it announces; a spawned worker inherits the
	// supervisor's environment, plus EnvDir.
	WorkerCommand []string
	// Addrs lists standing fleet endpoints (`bpworker -listen`). When
	// non-empty the supervisor spawns nothing: slot i dials
	// Addrs[i%len(Addrs)], authenticated with the job fingerprint.
	// Workers defaults to len(Addrs).
	Addrs []string
	// EngineWorkers caps each worker process's execution-engine
	// parallelism (default: NumCPU / Workers, minimum 1) so the fleet
	// does not oversubscribe the host.
	EngineWorkers int
	// HeartbeatInterval is the worker beat period (default 250ms, at
	// least MinBeat and at most MaxBeat). Eight intervals of silence make
	// the heartbeat deadline, after which a worker is declared hung —
	// fenced and re-dispatched, and SIGKILLed when the supervisor spawned
	// it. A dropped connection spends the same deadline: the supervisor
	// reconnects with backoff and re-adopts the lease if the worker still
	// holds it; a partition that outlives the deadline breaks the lease
	// exactly like a crash.
	HeartbeatInterval time.Duration
	// ShardDeadline, when positive, bounds the wall time of one shard
	// lease: a worker that heartbeats but makes no progress past it is
	// treated exactly like a hang. Zero disables the bound.
	ShardDeadline time.Duration
	// Respawn is the per-worker-slot recovery policy (see
	// RespawnPolicy).
	Respawn RespawnPolicy
	// ShardAttempts bounds how many times a shard that a live worker
	// *reports* as failed (as opposed to dying while holding it) is
	// re-dispatched before the job fails with ErrFaultUnrecovered
	// (default 3). Broken leases never count against this budget.
	ShardAttempts int
	// DisableDegraded fails the job with ErrFaultUnrecovered when every
	// worker slot has been retired with shards unfinished, instead of
	// running them in-process.
	DisableDegraded bool
	// Keep leaves the exchange directory's artifacts in place after a
	// successful run (default: cleared; a failed run always keeps them
	// for resume).
	Keep bool
	// Logf, when non-nil, receives one structured line per recovery
	// action (spawn, respawn, hang kill, conn drop, readopt, partition,
	// stale-epoch reject, re-dispatch, degraded entry). A spawn or respawn
	// line names its peer: "pid N at ADDR" for a spawned worker, the
	// address alone for a standing member.
	Logf func(format string, args ...any)
}

// RespawnPolicy is the supervisor's per-slot recovery policy: the fields
// of engine.RetryPolicy it reads, with engine.Retrier semantics. A
// crashed or hung worker is respawned (or redialed) with jittered
// exponential backoff, from BaseDelay up to MaxDelay, up to MaxAttempts
// times per round, and BreakerThreshold consecutive exhausted rounds
// open that slot's circuit breaker and retire it. A life that completed
// a shard starts the count over. Zero values select the Retrier
// defaults.
type RespawnPolicy struct {
	MaxAttempts      int
	BaseDelay        time.Duration
	MaxDelay         time.Duration
	Seed             uint64
	BreakerThreshold int
}

// retry is p as the engine policy it is part of, defaults filled in.
func (p RespawnPolicy) retry() engine.RetryPolicy {
	return engine.RetryPolicy{MaxAttempts: p.MaxAttempts, BaseDelay: p.BaseDelay, MaxDelay: p.MaxDelay,
		Seed: p.Seed, BreakerThreshold: p.BreakerThreshold}.WithDefaults()
}

// The heartbeat default, and the fixed policy that hangs off the
// interval. No caller ever tuned the deadline, the dial or the redial
// values separately from the heartbeat, so they are not options.
const (
	defaultHeartbeatInterval = 250 * time.Millisecond
	timeoutBeats             = 8 // the heartbeat deadline, in intervals
	// One connection attempt may take this many heartbeat deadlines.
	dialTimeoutFactor = 2
	// In-lease redials of a dropped connection back off from
	// redialBaseDelay up to one heartbeat interval until the heartbeat
	// deadline expires.
	redialBaseDelay = 5 * time.Millisecond
)

func (o Options) withDefaults() Options {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = defaultHeartbeatInterval
	}
	if o.ShardAttempts <= 0 {
		o.ShardAttempts = 3
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// heartbeatDeadline is the deadline after which a silent worker is
// declared hung, and what one send may take.
func (o Options) heartbeatDeadline() time.Duration { return timeoutBeats * o.HeartbeatInterval }

// dialTimeout is what one connection attempt may take.
func (o Options) dialTimeout() time.Duration { return dialTimeoutFactor * o.heartbeatDeadline() }

// Validate rejects tuning no worker can follow before any is spawned.
// Zero and negative intervals are not errors — they select the default —
// but an interval a hello cannot carry is: it goes in whole
// milliseconds, and a member refuses one outside [MinBeat, MaxBeat].
func (o Options) Validate() error {
	interval := o.HeartbeatInterval
	if interval <= 0 {
		interval = defaultHeartbeatInterval
	}
	if interval < MinBeat || interval > MaxBeat {
		return fherr.Wrap(fherr.ErrInvalidParams,
			"shard: heartbeat interval %v outside [%v, %v] (a member beats in whole milliseconds)", interval, MinBeat, MaxBeat)
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
	// shard failure or collect rejected the output batch of its done
	// (distinct from broken leases).
	ShardRetries int64
	// WorkersRetired counts slots whose circuit breaker opened (or whose
	// spawn failed terminally). DegradedEntries and LocalShards are
	// RunSharded's, not Run's: a job that lost its fleet (ErrFleetLost)
	// and fell back to in-process execution, and the shards it then ran
	// there.
	WorkersRetired  int64
	DegradedEntries int64
	LocalShards     int64
	// DuplicateDones counts completion reports for already-completed
	// shards (a worker that finished just before its lease was broken,
	// or a duplicated/reordered done on the wire) — detected and
	// ignored, never double-applied.
	DuplicateDones int64
	// StaleEpochRejects counts fenced zombie reports: done reports, output
	// batch and all, carrying an older lease epoch than the supervisor
	// dispatched. Dropped, never applied.
	StaleEpochRejects int64
}

// ErrFleetLost is Run's hand-back: every worker slot was retired with
// shards unfinished and no verdict in flight. The error Run returns wraps
// it and fherr.ErrFaultUnrecovered; every shard it did not collect is
// unfinished, and the caller fails the job or runs those itself.
var ErrFleetLost = errors.New("all workers retired")

// Run executes one shard per input batch across worker sessions: every
// assign of shard i carries inputs[i], every batch on the wire is read
// under lim, and every session is authenticated with the job's
// fingerprint. done marks shards already completed by a previous attempt
// (may be nil). collect validates and keeps the output batch a worker's
// done carried for the lease the supervisor dispatched; any error (a
// corrupt or undecodable batch) turns the completion report into a shard
// failure. Run returns when every shard is complete, the fleet is lost
// (ErrFleetLost), the job fails with a typed error, or ctx is canceled.
//
// Run is the driver of the state machine in machine.go: one loop that
// feeds it what happened and performs what it answers. Whatever the
// driver starts (timers, dials, session readers, child watchers,
// collect) runs off the loop and comes back through the inbox, so the
// driver's tables need no lock, and nothing it starts outlives Run.
func Run(ctx context.Context, opts Options, fingerprint uint64, inputs [][]byte, lim Limit, done []bool, collect func(shard int, output []byte) error) (Stats, error) {
	if err := opts.Validate(); err != nil {
		return Stats{}, err
	}
	opts = opts.withDefaults()
	total := len(inputs)
	switch {
	case total <= 0:
		return Stats{}, fherr.Wrap(fherr.ErrInvalidParams, "shard: no shards")
	case opts.Workers <= 0 || (len(opts.Addrs) == 0 && len(opts.WorkerCommand) == 0):
		return Stats{}, fherr.Wrap(fherr.ErrInvalidParams, "shard: no fleet to supervise (%d workers, addresses %q, worker command %q)", opts.Workers, opts.Addrs, opts.WorkerCommand)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m, first := newMachine(opts, total, done, time.Now())
	d := &driver{opts: opts, fingerprint: fingerprint, collect: collect, m: m, inputs: inputs, lim: lim, inbox: make(chan func()), ports: make([]port, len(m.slots))}
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
	opts        Options
	fingerprint uint64 // what every hello carries
	collect     func(shard int, output []byte) error
	m           *machine
	inputs      [][]byte // what each shard's assign carries
	lim         Limit    // what a batch on the wire may be

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
				msg := a.msg
				if msg.Type == MsgAssign {
					msg.Batch = d.inputs[msg.Shard]
				}
				if err := sess.send(msg); err != nil {
					// Closed here, the read side sees the drop and the core
					// takes it from there.
					d.opts.Logf("shard: action=%s-write-failed worker=%d shard=%d reason=%q", msg.Type, a.slot, msg.Shard, err.Error())
					sess.close()
				}
				if a.last {
					sess.closeSend()
				}
			}
		case actDrop:
			d.drop(a.slot, a.after)
		case actVerify:
			answer := event{kind: evVerified, shard: a.shard, epoch: a.epoch}
			d.async(func() func() {
				answer.err = d.collect(a.shard, a.batch)
				return func() { d.feed(answer) }
			})
		case actLog:
			d.opts.Logf("%s", a.text)
		case actFinish:
			d.finished, d.err = true, a.err
		}
	}
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
// of a child spawned now, which announces where it listens.
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
		sess, err := dial(d.quit, d.opts, d.fingerprint, slot, addr)
		if err != nil {
			return func() { d.deliver(slot, gen, event{kind: evDialFailed, err: err}) }
		}
		d.inbox <- func() {
			if p.gen != gen {
				sess.close() // which also ends the read below
				return
			}
			p.sess, p.addr = sess, addr
			peer := addr // a standing member: nothing local to signal
			if ch != nil {
				peer = fmt.Sprintf("pid %d at %s", ch.cmd.Process.Pid, addr)
			}
			d.feed(event{kind: evAttached, slot: slot, peer: peer})
		}
		err = sess.read(d.lim, func(m Msg) { d.inbox <- func() { d.deliver(slot, gen, event{kind: evMsg, msg: m}) } })
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
