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
	// open that slot's circuit breaker and retire it. Zero values select
	// the Retrier defaults.
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
	// monitoring hooks and the chaos soak's random killer use it. pid is
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
	// deadline expires; the attempt count is never the binding limit.
	redialBaseDelay   = 5 * time.Millisecond
	redialMaxAttempts = 1000
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

// supervisor is the shared state of one Run.
type supervisor struct {
	opts Options
	cb   Callbacks

	mu          sync.Mutex
	cond        *sync.Cond
	pending     []int
	epoch       map[int]int  // shard -> current lease epoch (increments per dispatch)
	leaseOwner  map[int]int  // shard -> slot holding its lease
	brokenOwner map[int]int  // shard -> slot that last lost its lease
	attempts    map[int]int  // worker-reported failures per shard
	spawned     map[int]bool // slots that have spawned at least once
	done        map[int]bool
	doneCount   int
	total       int
	jobErr      error
	canceled    bool
	stats       Stats
}

// Run executes shards [0, total) across worker sessions. done marks
// shards already completed by a previous attempt (may be nil). Run
// returns when every shard is complete, the job fails with a typed
// error, or ctx is canceled.
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
	s := &supervisor{
		opts:        opts,
		cb:          cb,
		epoch:       map[int]int{},
		leaseOwner:  map[int]int{},
		brokenOwner: map[int]int{},
		attempts:    map[int]int{},
		spawned:     map[int]bool{},
		done:        map[int]bool{},
		total:       total,
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < total; i++ {
		if i < len(done) && done[i] {
			s.done[i] = true
			s.doneCount++
		} else {
			s.pending = append(s.pending, i)
		}
	}
	if s.doneCount == total {
		return s.stats, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if len(opts.Addrs) == 0 && len(opts.WorkerCommand) == 0 {
		// No way to reach workers at all: straight to degraded mode.
		return s.finish(ctx, fmt.Errorf("shard: no worker command or fleet address"))
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		// Wake claim waiters when the job is canceled.
		<-runCtx.Done()
		s.mu.Lock()
		s.canceled = true
		s.cond.Broadcast()
		s.mu.Unlock()
	}()

	slots := opts.Workers
	if slots > total-s.doneCount {
		slots = total - s.doneCount
	}
	var wg sync.WaitGroup
	var lastWorkerErr error
	var lastMu sync.Mutex
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			if err := s.slotLoop(runCtx, slot); err != nil {
				lastMu.Lock()
				lastWorkerErr = err
				lastMu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return s.finish(ctx, lastWorkerErr)
}

// finish assesses the post-worker state and, when shards remain with no
// worker to run them, enters degraded in-process execution.
func (s *supervisor) finish(ctx context.Context, lastWorkerErr error) (Stats, error) {
	s.mu.Lock()
	jobErr, doneCount := s.jobErr, s.doneCount
	s.mu.Unlock()
	if jobErr != nil {
		return s.snapshot(), jobErr
	}
	if err := ctx.Err(); err != nil {
		return s.snapshot(), fherr.Wrap(fherr.ErrCanceled, "shard: job canceled (%v)", err)
	}
	if doneCount == s.total {
		return s.snapshot(), nil
	}
	// Shards remain and every slot has exited: no worker could be kept
	// alive. Degrade to in-process execution unless forbidden.
	if s.opts.DisableDegraded {
		if lastWorkerErr == nil {
			lastWorkerErr = errors.New("no worker available")
		}
		return s.snapshot(), fmt.Errorf("shard: %d/%d shards unfinished with all workers retired: %w (last: %v)",
			s.total-doneCount, s.total, fherr.ErrFaultUnrecovered, lastWorkerErr)
	}
	s.mu.Lock()
	s.stats.DegradedEntries++
	remaining := append([]int(nil), s.pending...)
	for shard := range s.leaseOwner {
		// Leases of workers that died on the way out.
		remaining = append(remaining, shard)
	}
	s.mu.Unlock()
	s.opts.Logf("shard: action=degraded remaining=%d reason=%q", len(remaining), errString(lastWorkerErr))
	for _, shard := range remaining {
		if err := ctx.Err(); err != nil {
			return s.snapshot(), fherr.Wrap(fherr.ErrCanceled, "shard: degraded run canceled (%v)", err)
		}
		epoch := s.nextEpoch(shard)
		if err := s.cb.ExecLocal(ctx, shard, epoch); err != nil {
			return s.snapshot(), fmt.Errorf("shard: degraded shard %d: %w", shard, err)
		}
		s.mu.Lock()
		s.done[shard] = true
		s.doneCount++
		s.stats.LocalShards++
		s.mu.Unlock()
		s.opts.Logf("shard: action=local-complete shard=%d epoch=%d", shard, epoch)
	}
	return s.snapshot(), nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func (s *supervisor) snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// nextEpoch advances and returns a shard's lease epoch — every dispatch
// (worker assign or degraded local execution) gets a fresh fencing
// token.
func (s *supervisor) nextEpoch(shard int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch[shard]++
	return s.epoch[shard]
}

// claim blocks until a shard is available, leasing it to slot under a
// fresh epoch. ok=false means there will never be more work for this
// slot (job done, failed, or canceled) and the worker should be drained.
func (s *supervisor) claim(slot int) (shard, epoch int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.jobErr != nil || s.canceled || s.doneCount == s.total {
			return 0, 0, false
		}
		if len(s.pending) > 0 {
			shard = s.pending[0]
			s.pending = s.pending[1:]
			s.leaseOwner[shard] = slot
			s.epoch[shard]++
			return shard, s.epoch[shard], true
		}
		s.cond.Wait()
	}
}

// complete processes a worker's done report for the current lease:
// validate the durable output against the dispatched epoch, then mark
// the shard finished. A failed validation is treated as a reported shard
// failure; a stale-epoch stamp additionally counts as a fenced zombie
// write.
func (s *supervisor) complete(slot, shard, epoch int) {
	s.mu.Lock()
	if s.done[shard] {
		s.stats.DuplicateDones++
		delete(s.leaseOwner, shard)
		s.mu.Unlock()
		s.opts.Logf("shard: action=duplicate-done worker=%d shard=%d", slot, shard)
		return
	}
	s.mu.Unlock()

	if err := s.cb.ShardDone(shard, epoch); err != nil {
		if errors.Is(err, ErrStaleEpoch) {
			s.addStat(func(st *Stats) { st.StaleEpochRejects++ })
			s.opts.Logf("shard: action=stale-epoch-reject worker=%d shard=%d epoch=%d reason=%q", slot, shard, epoch, err.Error())
		} else {
			s.opts.Logf("shard: action=output-rejected worker=%d shard=%d reason=%q", slot, shard, err.Error())
		}
		s.shardFailed(slot, shard, err)
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done[shard] {
		s.stats.DuplicateDones++
	} else {
		s.done[shard] = true
		s.doneCount++
		if prev, broken := s.brokenOwner[shard]; broken && prev != slot {
			s.stats.LeasesStolen++
		}
	}
	delete(s.leaseOwner, shard)
	if s.doneCount == s.total {
		s.cond.Broadcast()
	}
}

// staleMsg classifies a done/fail report that does not match the
// worker's current lease: a duplicate (shard already done), a fenced
// zombie (older epoch), or neither (a protocol violation the caller
// turns into a crash). Duplicates and zombies are counted and dropped.
func (s *supervisor) staleMsg(slot int, m Msg) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done[m.Shard] {
		s.stats.DuplicateDones++
		s.opts.Logf("shard: action=duplicate-done worker=%d shard=%d epoch=%d", slot, m.Shard, m.Epoch)
		return true
	}
	if m.Epoch < s.epoch[m.Shard] {
		if m.Type == MsgDone {
			s.stats.StaleEpochRejects++
			s.opts.Logf("shard: action=stale-epoch-reject worker=%d shard=%d epoch=%d current=%d", slot, m.Shard, m.Epoch, s.epoch[m.Shard])
		} else {
			s.opts.Logf("shard: action=stale-fail-dropped worker=%d shard=%d epoch=%d current=%d", slot, m.Shard, m.Epoch, s.epoch[m.Shard])
		}
		return true
	}
	return false
}

// shardFailed handles a shard failure reported by a live worker (or a
// rejected output): heal the input and re-dispatch, or fail the job once
// the shard's attempt budget is spent.
func (s *supervisor) shardFailed(slot, shard int, cause error) {
	s.mu.Lock()
	delete(s.leaseOwner, shard)
	s.attempts[shard]++
	attempts := s.attempts[shard]
	exhausted := attempts >= s.opts.ShardAttempts
	if exhausted && s.jobErr == nil {
		s.jobErr = fmt.Errorf("shard: shard %d failed %d times: %w (last: %w)",
			shard, attempts, fherr.ErrFaultUnrecovered, cause)
	}
	s.mu.Unlock()
	if exhausted {
		s.opts.Logf("shard: action=shard-exhausted worker=%d shard=%d attempts=%d reason=%q",
			slot, shard, attempts, cause.Error())
		s.wake()
		return
	}
	if s.cb.HealInput != nil {
		if err := s.cb.HealInput(shard); err != nil {
			s.opts.Logf("shard: action=heal-input-failed shard=%d reason=%q", shard, err.Error())
		}
	}
	s.mu.Lock()
	s.pending = append(s.pending, shard)
	s.stats.ShardRetries++
	s.mu.Unlock()
	s.opts.Logf("shard: action=shard-retry worker=%d shard=%d attempt=%d reason=%q",
		slot, shard, attempts, cause.Error())
	s.wake()
}

// releaseLease returns a dead worker's shard to the queue (re-dispatch
// from its last durable checkpoint). Broken leases are free: they count
// against the worker's breaker, not the shard's attempt budget.
func (s *supervisor) releaseLease(slot int, shard int) {
	if shard < 0 {
		return
	}
	s.mu.Lock()
	if owner, held := s.leaseOwner[shard]; !held || owner != slot {
		s.mu.Unlock()
		return
	}
	delete(s.leaseOwner, shard)
	if !s.done[shard] {
		s.pending = append(s.pending, shard)
		s.brokenOwner[shard] = slot
		s.stats.Redispatches++
	}
	s.mu.Unlock()
	s.opts.Logf("shard: action=redispatch worker=%d shard=%d", slot, shard)
	s.wake()
}

func (s *supervisor) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *supervisor) addStat(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// slotLoop keeps one worker slot alive: each Retrier round spawns (or
// dials) and runs a worker to clean completion, retrying crashes, hangs
// and partitions with jittered backoff; consecutive exhausted rounds
// open the slot's breaker and retire it. Cancellation always wins and is
// never charged as a crash. Returns nil on clean drain, else the
// retirement cause.
func (s *supervisor) slotLoop(ctx context.Context, slot int) error {
	retrier := engine.NewRetrier(s.opts.Respawn)
	for {
		err := retrier.Do(ctx, fmt.Sprintf("shard-worker-%d", slot), func(actx context.Context) error {
			return s.workerLife(actx, slot)
		})
		switch {
		case err == nil:
			return nil // clean drain
		case errors.Is(err, fherr.ErrCanceled):
			return nil // job canceled; not a worker fault
		case errors.Is(err, fherr.ErrFaultUnrecovered):
			// One round's respawn budget spent; the breaker counted it.
			// Keep trying until the breaker opens.
			s.opts.Logf("shard: action=respawn-round-exhausted worker=%d reason=%q", slot, err.Error())
			continue
		default:
			// Breaker open, or a terminal spawn error (missing binary,
			// rejected handshake): retire the slot.
			s.addStat(func(st *Stats) { st.WorkersRetired++ })
			s.opts.Logf("shard: action=retire worker=%d reason=%q", slot, err.Error())
			s.wake() // unblock peers if this was the last slot
			return err
		}
	}
}

// reconnect redials a dropped session and decides the lease's fate. It
// returns the adopted session (plus any done/fail the worker flushed
// ahead of the supervisor's read, which the caller must process), or —
// cause non-nil — the kind of end the slot met, for the caller's death
// handling: "partition" past the heartbeat deadline, "crash" for a worker
// that lost its state, anything else when ctx ended the attempt.
func (s *supervisor) reconnect(ctx context.Context, slot int, addr string, cur, curEpoch int, lastBeat time.Time) (sess *session, pending *Msg, kind string, cause error) {
	deadline := lastBeat.Add(s.opts.HeartbeatTimeout)
	s.addStat(func(st *Stats) { st.ConnDrops++; st.HeartbeatMisses++ })
	s.opts.Logf("shard: action=conn-drop worker=%d shard=%d epoch=%d budget=%v",
		slot, cur, curEpoch, time.Until(deadline).Round(time.Millisecond))

	rctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	var ready Msg
	retrier := engine.NewRetrier(engine.RetryPolicy{
		MaxAttempts: redialMaxAttempts, BaseDelay: redialBaseDelay, MaxDelay: s.opts.HeartbeatInterval})
	err := retrier.Do(rctx, fmt.Sprintf("shard-reconnect-%d", slot), func(actx context.Context) error {
		ns, err := s.dial(slot, addr)
		if err != nil {
			return err
		}
		m, err := awaitReady(actx, ns)
		if err != nil {
			ns.close()
			return err
		}
		sess, ready = ns, m
		return nil
	})
	if err != nil {
		if ctx.Err() == nil && rctx.Err() != nil {
			// The redial budget (the heartbeat deadline) expired with the
			// job still alive: a partition that outlived the lease.
			return nil, nil, "partition", fmt.Errorf("no reconnection before the heartbeat deadline: %v", err)
		}
		return nil, nil, "reconnect-failed", err
	}

	if cur < 0 || (ready.Shard == cur && ready.Epoch == curEpoch) {
		// Idle drop healed, or the worker still holds our exact lease. The
		// consumed ready is handed back as the pending message so a drop
		// during startup still delivers it to the ready loop.
		s.addStat(func(st *Stats) {
			st.Reconnects++
			if cur >= 0 {
				st.Readopts++
			}
		})
		s.opts.Logf("shard: action=readopt worker=%d peer=%s shard=%d epoch=%d", slot, addr, cur, curEpoch)
		return sess, &ready, "", nil
	}
	lost := func(kind string, cause error) (*session, *Msg, string, error) {
		sess.close()
		return nil, nil, kind, cause
	}
	if ready.Epoch != 0 {
		return lost("crash", fmt.Errorf("reconnected worker reports shard %d epoch %d while leased %d epoch %d",
			ready.Shard, ready.Epoch, cur, curEpoch))
	}
	// The worker is idle: it may have finished our shard during the
	// partition and queued the done, which it flushes right after the
	// ready. Wait for that report before declaring the state lost.
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		select {
		case m, open := <-sess.msgs:
			if !open {
				return lost("crash", errors.New("reconnected session closed before flushing completion"))
			}
			if m.Type == MsgBeat {
				continue
			}
			if (m.Type == MsgDone || m.Type == MsgFail) && m.Shard == cur && m.Epoch == curEpoch {
				s.addStat(func(st *Stats) { st.Reconnects++ })
				s.opts.Logf("shard: action=reconnect-flush worker=%d peer=%s shard=%d epoch=%d type=%s",
					slot, addr, cur, curEpoch, m.Type)
				return sess, &m, "", nil
			}
			return lost("crash", fmt.Errorf("reconnected worker flushed %q for shard %d epoch %d while leased %d epoch %d",
				m.Type, m.Shard, m.Epoch, cur, curEpoch))
		case <-timer.C:
			return lost("crash", errors.New("reconnected worker lost the lease state"))
		case <-ctx.Done():
			return lost("canceled", ctx.Err())
		}
	}
}

// awaitReady reads session messages until the handshake resolves: ready
// (possibly preceded by beats), reject, or an error.
func awaitReady(ctx context.Context, sess *session) (Msg, error) {
	for {
		select {
		case m, open := <-sess.msgs:
			if !open {
				return Msg{}, fherr.Wrap(fherr.ErrEngineFault, "shard: session closed before ready (%v)", sess.close())
			}
			switch m.Type {
			case MsgReady:
				return m, nil
			case MsgBeat:
				continue
			case MsgReject:
				return Msg{}, fmt.Errorf("shard: handshake rejected: %s", m.Err)
			default:
				return Msg{}, fherr.Wrap(fherr.ErrEngineFault, "shard: protocol: %q before ready", m.Type)
			}
		case <-ctx.Done():
			return Msg{}, fherr.Wrap(fherr.ErrCanceled, "shard: handshake canceled (%v)", ctx.Err())
		}
	}
}

// workerLife runs one worker from spawn-or-dial to exit. Return classes:
// nil (clean drain), ErrCanceled (job canceled), ErrEngineFault-wrapped
// (crash, hang, or partition — retryable, respawned or redialed by the
// slot's Retrier), other (terminal spawn/handshake problem — retires the
// slot).
func (s *supervisor) workerLife(ctx context.Context, slot int) error {
	var (
		ch       *child // the slot's own process; nil when it dials a standing member
		sess     *session
		peer     string
		cur      = -1 // shard currently leased to this worker
		curEpoch = 0  // its fencing epoch
	)
	// lctx ends with the job or with the slot's child, whichever goes
	// first. Every wait below (address, handshake, redial backoff, next
	// message) is cut short by the child's exit, so a dead pid is a crash
	// at once — never a silence to time out or a port to keep redialing.
	lctx, stop := context.WithCancel(ctx)
	defer stop()

	// die centralizes death handling: drop the session, kill and reap the
	// child, release the lease, and classify. Cancellation beats fault: a
	// worker killed because the job was canceled must surface ErrCanceled,
	// never count as a crash against the breaker. A child's exit beats
	// whatever symptom of it was noticed first.
	die := func(kind string, cause error) error {
		stderr := ""
		exited := ch != nil && ch.exited() // before our own kill makes it true
		if sess != nil {
			sess.close()
		}
		if ch != nil {
			ch.kill()
			stderr = ch.stderr.String()
		}
		s.releaseLease(slot, cur)
		if err := ctx.Err(); err != nil {
			return fherr.Wrap(fherr.ErrCanceled, "shard: worker %d stopped by cancellation (%v)", slot, err)
		}
		if exited {
			kind, cause = "crash", fmt.Errorf("process exited: %v", ch.err)
		}
		switch kind {
		case "hang":
			s.addStat(func(st *Stats) { st.Hangs++ })
		case "partition":
			s.addStat(func(st *Stats) { st.Partitions++ })
		default:
			s.addStat(func(st *Stats) { st.Crashes++ })
		}
		s.opts.Logf("shard: action=%s worker=%d peer=%s shard=%d reason=%q stderr=%q",
			kind, slot, peer, cur, errString(cause), stderr)
		return fherr.Wrap(fherr.ErrEngineFault, "shard: worker %d (%s) %s: %v", slot, peer, kind, cause)
	}

	// The one thing Addrs vs WorkerCommand decides: where the address
	// comes from.
	var addr string
	if n := len(s.opts.Addrs); n > 0 {
		addr = s.opts.Addrs[slot%n]
		peer = addr
	} else {
		var err error
		if ch, err = startChild(s.opts, slot); err != nil {
			return err
		}
		defer ch.stop(s.opts.HeartbeatTimeout)
		peer = fmt.Sprintf("pid %d", ch.pid())
		go func() {
			select {
			case <-ch.done:
				stop()
			case <-lctx.Done():
			}
		}()
		// Binding precedes everything slow in the child, so its address is
		// due within the deadline any other silence gets.
		select {
		case a, ok := <-ch.addr:
			if !ok {
				return die("crash", errors.New("stdout closed before the worker announced its address"))
			}
			addr = a
		case <-time.After(s.opts.HeartbeatTimeout):
			return die("hang", fmt.Errorf("no address announced within %v", s.opts.HeartbeatTimeout))
		case <-lctx.Done():
			return die("canceled", lctx.Err())
		}
	}
	var err error
	if sess, err = s.dial(slot, addr); err != nil {
		if ch == nil {
			return err // an unreachable member is backed off and redialed, not a crash
		}
		return die("crash", err)
	}

	s.mu.Lock()
	s.stats.Spawns++
	respawn := s.spawned[slot]
	s.spawned[slot] = true
	if respawn {
		s.stats.Respawns++
	}
	s.mu.Unlock()
	action := "spawn"
	if respawn {
		action = "respawn"
	}
	s.opts.Logf("shard: action=%s worker=%d peer=%s addr=%s", action, slot, peer, addr)
	if s.opts.OnSpawn != nil {
		s.opts.OnSpawn(slot, ch.pid())
	}

	lastBeat := time.Now()
	curStart := time.Now()
	ticker := time.NewTicker(s.opts.HeartbeatInterval)
	defer ticker.Stop()

	// awaitMsg multiplexes protocol messages with disconnection, death,
	// hang-deadline and cancellation signals. ok=false means fatal: the
	// second return is the classified error.
	awaitMsg := func() (Msg, bool, error) {
		for {
			select {
			case m, open := <-sess.msgs:
				if !open {
					// A dropped connection is a heartbeat miss, not a death:
					// the member keeps computing. Redial with backoff and
					// re-adopt the lease while the deadline budget lasts.
					sess.close()
					ns, pending, kind, cause := s.reconnect(lctx, slot, addr, cur, curEpoch, lastBeat)
					if cause != nil {
						return Msg{}, false, die(kind, cause)
					}
					sess = ns
					lastBeat = time.Now()
					if pending != nil {
						return *pending, true, nil
					}
					continue
				}
				lastBeat = time.Now()
				return m, true, nil
			case <-ticker.C:
				silent := time.Since(lastBeat)
				if silent > s.opts.HeartbeatTimeout {
					return Msg{}, false, die("hang", fmt.Errorf("no heartbeat for %v (deadline %v)", silent.Round(time.Millisecond), s.opts.HeartbeatTimeout))
				}
				if silent > 2*s.opts.HeartbeatInterval {
					s.addStat(func(st *Stats) { st.HeartbeatMisses++ })
					s.opts.Logf("shard: action=heartbeat-miss worker=%d peer=%s silent=%v", slot, peer, silent.Round(time.Millisecond))
				}
				if cur >= 0 && s.opts.ShardDeadline > 0 && time.Since(curStart) > s.opts.ShardDeadline {
					return Msg{}, false, die("hang", fmt.Errorf("shard %d exceeded deadline %v", cur, s.opts.ShardDeadline))
				}
			case <-lctx.Done():
				return Msg{}, false, die("canceled", lctx.Err())
			}
		}
	}

	// Startup: the worker builds its Context (keygen included) and says
	// ready. Its beater starts with the hello, before the build, so the
	// ordinary deadline applies. A standing member may report a stale
	// in-flight lease from a previous supervisor life; it abandons that
	// work at the next assign, and its stale reports are fenced by epoch.
	for {
		m, ok, err := awaitMsg()
		if !ok {
			return err
		}
		if m.Type == MsgReady {
			if m.Epoch > 0 {
				s.opts.Logf("shard: action=ready-stale-lease worker=%d shard=%d epoch=%d", slot, m.Shard, m.Epoch)
			}
			break
		}
		if m.Type == MsgReject {
			// Terminal misconfiguration (wrong fingerprint / wrong fleet):
			// NOT an engine fault, so the slot retires without redials.
			sess.close()
			return fmt.Errorf("shard: worker %d handshake rejected by %s: %s", slot, peer, m.Err)
		}
		if m.Type != MsgBeat {
			return die("crash", fmt.Errorf("protocol: %q before ready", m.Type))
		}
	}

	for {
		shard, epoch, more := s.claim(slot)
		if !more {
			// Drain: let the worker end the session on its own; a child is
			// then told to exit (stdin closed) and reaped on the way out.
			sess.send(Msg{Type: MsgDrain})
			sess.closeSend()
			drainDeadline := time.After(s.opts.HeartbeatTimeout)
			for {
				select {
				case _, open := <-sess.msgs:
					if !open {
						sess.close()
						s.opts.Logf("shard: action=drain worker=%d peer=%s", slot, peer)
						if err := ctx.Err(); err != nil {
							return fherr.Wrap(fherr.ErrCanceled, "shard: worker %d drained after cancellation (%v)", slot, err)
						}
						return nil
					}
				case <-drainDeadline:
					sess.close()
					s.opts.Logf("shard: action=drain-kill worker=%d peer=%s", slot, peer)
					return nil
				}
			}
		}
		cur, curEpoch = shard, epoch
		curStart = time.Now()
		if err := sess.send(Msg{Type: MsgAssign, Shard: shard, Epoch: epoch}); err != nil {
			// Let the read side observe the drop and run the reconnect path;
			// the re-adopted worker never saw this assign, so re-adoption
			// will fail fast into a redispatch.
			s.opts.Logf("shard: action=assign-write-failed worker=%d shard=%d reason=%q", slot, shard, err.Error())
		}
		for cur >= 0 {
			m, ok, err := awaitMsg()
			if !ok {
				return err
			}
			switch m.Type {
			case MsgBeat:
				// Progress beats also push the shard deadline forward.
				if m.Shard == cur && m.Step > 0 {
					curStart = time.Now()
				}
			case MsgDone:
				if m.Shard == cur && m.Epoch == curEpoch {
					s.complete(slot, cur, curEpoch)
					cur, curEpoch = -1, 0
					continue
				}
				if s.staleMsg(slot, m) {
					continue
				}
				return die("crash", fmt.Errorf("protocol: done for shard %d epoch %d while leased %d epoch %d", m.Shard, m.Epoch, cur, curEpoch))
			case MsgFail:
				if m.Shard != cur || m.Epoch != curEpoch {
					if s.staleMsg(slot, m) {
						continue
					}
					return die("crash", fmt.Errorf("protocol: fail for shard %d epoch %d while leased %d epoch %d", m.Shard, m.Epoch, cur, curEpoch))
				}
				if m.Class == ClassCanceled {
					// The worker's own operation context was canceled. If
					// the job is being canceled this is expected shutdown
					// noise; either way it is not a crash and not a shard
					// fault.
					if err := ctx.Err(); err != nil {
						return die("canceled", err)
					}
					s.opts.Logf("shard: action=worker-canceled worker=%d shard=%d reason=%q", slot, cur, m.Err)
					s.releaseLease(slot, cur)
					cur, curEpoch = -1, 0
					continue
				}
				s.shardFailed(slot, cur, fmt.Errorf("worker %d: %s", slot, m.Err))
				cur, curEpoch = -1, 0
			case MsgReady:
				// A re-handshake mid-life (fleet member reattached):
				// harmless, already logged by the reconnect path.
			default:
				return die("crash", fmt.Errorf("protocol: unexpected %q", m.Type))
			}
		}
	}
}
