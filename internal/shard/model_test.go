package shard

// A model fleet for the supervisor's core. world plays everything outside
// machine.go — the driver, the network, the workers, the exchange
// directory and the three callbacks — in virtual time, and checks the
// core's invariants after every step. A schedule is a byte string: a
// four-byte header (slots, shards, lane, shards resumed) and then two-byte
// ops (what happens, to which slot), so a seed, an enumerated small case, a fuzz
// input and a checked-in corpus row are all the same thing and replay
// the same way. Ops that are not possible in the current state do
// nothing; when the ops run out the world goes quiet — no more faults,
// everything in flight is delivered fairly — and the Run must finish.
//
// The workers follow internal/shard/worker: they beat from the hello on,
// keep computing through a disconnection, queue completion reports while
// not greeted and flush them after the ready, answer a superseding
// assign by failing the old lease as canceled, and stamp the output blob
// with the epoch of the assign.

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"time"

	"bitpacker/internal/fherr"
)

const (
	modelInterval = 25 * time.Millisecond
	modelTimeout  = 200 * time.Millisecond
	modelDeadline = 300 * time.Millisecond // ShardDeadline
	modelBuild    = 2                      // work units a cold worker spends before ready
	modelWork     = 2                      // work units per shard
)

type modelCfg struct {
	slots, shards int
	fleet         bool // standing members (state survives a supervisor hang-up) instead of spawned children
	noDegrade     bool
	respawn       RespawnPolicy
	shardAttempts int
	done          []bool
}

// decodeHeader reads slots (1-3), shards (1-6), the lane and how many
// shards a previous run left done (0-2) from the first four bytes;
// printable digits and s/f/S/F mean what they say.
func decodeHeader(b []byte) (modelCfg, []byte) {
	var h [4]byte
	copy(h[:], b)
	cfg := modelCfg{
		slots:         1 + int(h[0]+2)%3, // '1' -> 1
		shards:        1 + int(h[1]+5)%6, // '1' -> 1
		respawn:       RespawnPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond, BreakerThreshold: 2},
		shardAttempts: 2,
	}
	lane := int(h[2]) % 4
	switch h[2] {
	case 's':
		lane = 0
	case 'f':
		lane = 1
	case 'S':
		lane = 2
	case 'F':
		lane = 3
	}
	cfg.fleet, cfg.noDegrade = lane&1 == 1, lane&2 == 2
	cfg.done = make([]bool, cfg.shards)
	for i := 0; i < int(h[3])%3 && i < cfg.shards; i++ {
		cfg.done[i] = true
	}
	if len(b) < len(h) {
		return cfg, nil
	}
	return cfg, b[len(h):]
}

// Ops. Benign ones move the world forward; the rest are the injectors of
// DESIGN.md's failure matrix.
const benignOps = "wdtfve"
const faultOps = "chxpqDSBCFRKmlHLZnAk"

func decodeOp(b byte) byte {
	all := benignOps + faultOps
	if strings.IndexByte(all, b) >= 0 {
		return b
	}
	return all[int(b)%len(all)]
}

type mworker struct {
	// What the driver would hold for the slot.
	timer   *mtimer // the pending start or dial
	linkUp  bool    // a session the core has been told about
	closing bool    // ... whose far end is gone: closed follows the wire
	wire    []Msg   // worker -> supervisor, in flight
	exiting bool    // child-exited not yet delivered

	// The worker itself.
	proc         bool // spawned lane: the process exists
	built        bool // context built (survives reconnects, not restarts)
	build        int  // work units until it is
	up, greeted  bool // its view of the session
	shard, epoch int  // in-flight compute; epoch 0 is idle
	left         int
	queued       []Msg
	lastDone     *Msg
	hung, slow   bool
	mute, refuse time.Time
	finished     int // shards completed in this life

	// One-shot chaos.
	staleBlob, corrupt, failNext, rejectNext bool
}

type mtimer struct {
	due   time.Time
	start bool
}

type mblob struct {
	present, corrupt bool
	epoch            int
}

type world struct {
	cfg   modelCfg
	m     *machine
	now   time.Time
	ws    []*mworker
	calls []event // callback verdicts not yet delivered
	blobs []mblob

	noBinary, healErr, localErr bool

	lastEpoch  []int
	accepted   []int
	afterCancl *cancelSnap
	finished   bool
	err        error
	steps      int
	trace      []string
	fail       string
}

type cancelSnap struct {
	stats  Stats
	budget [][2]int
}

var errModelLocal = fherr.Wrap(fherr.ErrEngineFault, "model: local execution failed")

func newWorld(cfg modelCfg) *world {
	opts := Options{
		Dir: "/model", Workers: cfg.slots,
		HeartbeatInterval: modelInterval, HeartbeatTimeout: modelTimeout, ShardDeadline: modelDeadline,
		Respawn: cfg.respawn, ShardAttempts: cfg.shardAttempts, DisableDegraded: cfg.noDegrade,
	}
	if cfg.fleet {
		for i := 0; i < cfg.slots; i++ {
			opts.Addrs = append(opts.Addrs, fmt.Sprintf("member-%d", i))
		}
	} else {
		opts.WorkerCommand = []string{"model-worker"}
	}
	w := &world{cfg: cfg, now: time.Unix(1_000_000, 0),
		blobs: make([]mblob, cfg.shards), lastEpoch: make([]int, cfg.shards), accepted: make([]int, cfg.shards)}
	m, first := newMachine(opts.withDefaults(), cfg.shards, cfg.done, w.now)
	w.m = m
	for range m.slots {
		w.ws = append(w.ws, &mworker{})
	}
	w.perform(first)
	w.invariants()
	return w
}

func (w *world) failf(format string, args ...any) {
	if w.fail == "" {
		w.fail = fmt.Sprintf(format, args...)
	}
}

func (w *world) note(format string, args ...any) {
	w.trace = append(w.trace, fmt.Sprintf("%6dms ", w.now.Sub(time.Unix(1_000_000, 0)).Milliseconds())+fmt.Sprintf(format, args...))
	if len(w.trace) > 400 {
		w.trace = w.trace[200:]
	}
}

// feed is the one way into the core: step, perform, check.
func (w *world) feed(ev event) {
	if w.finished || w.fail != "" {
		return
	}
	ev.now = w.now
	w.steps++
	before := w.snapshot(ev)
	w.note("event %s", describe(ev))
	acts := w.m.step(ev)
	w.perform(acts)
	w.invariants()
	w.oracle(ev, before, acts)
}

// perform plays the driver: every action lands in the model, none of
// them feeds the core directly.
func (w *world) perform(acts []action) {
	for _, a := range acts {
		switch a.kind {
		case actStart, actDial:
			wk := w.ws[a.slot]
			if wk.linkUp {
				w.failf("%s for slot %d while its session is up", kindName(a), a.slot)
			}
			wk.timer = &mtimer{due: w.now.Add(a.after), start: a.kind == actStart}
			if w.afterCancl != nil {
				w.failf("%s for slot %d after cancellation", kindName(a), a.slot)
			}
		case actSend:
			wk := w.ws[a.slot]
			if !wk.linkUp {
				w.failf("send %s to slot %d without a session", a.msg.Type, a.slot)
			}
			if a.msg.Type == MsgAssign {
				w.dispatched(a.msg.Shard, a.msg.Epoch)
			}
			if wk.up && !wk.hung {
				wk.receive(a.msg)
			}
		case actDrop:
			wk := w.ws[a.slot]
			wk.timer, wk.linkUp, wk.closing, wk.wire = nil, false, false, nil
			wk.up, wk.greeted = false, false
			if !w.cfg.fleet {
				// The grace of a drained child's stop is the driver's to
				// wait out; nothing comes back from it either way.
				wk.restart(false)
			}
		case actVerify:
			if a.epoch != w.lastEpoch[a.shard] {
				w.failf("verify of shard %d under epoch %d, dispatched %d", a.shard, a.epoch, w.lastEpoch[a.shard])
			}
			w.calls = append(w.calls, event{kind: evVerified, shard: a.shard, epoch: a.epoch})
		case actHeal:
			w.calls = append(w.calls, event{kind: evHealed, shard: a.shard})
		case actExecLocal:
			w.dispatched(a.shard, a.epoch)
			w.calls = append(w.calls, event{kind: evLocalDone, shard: a.shard, epoch: a.epoch})
		case actLog:
			w.note("  %s", a.text)
		case actFinish:
			w.finished, w.err = true, a.err
		}
		if a.kind != actLog {
			w.note("  -> %s", kindName(a))
		}
	}
}

// dispatched records a lease: every one gets a fresh epoch, and a
// finished shard is never handed out again.
func (w *world) dispatched(shard, epoch int) {
	if epoch != w.lastEpoch[shard]+1 {
		w.failf("shard %d dispatched under epoch %d after %d", shard, epoch, w.lastEpoch[shard])
	}
	if w.accepted[shard] > 0 || w.preDone(shard) {
		w.failf("shard %d dispatched again after it was completed", shard)
	}
	w.lastEpoch[shard] = epoch
}

func (w *world) preDone(shard int) bool { return shard < len(w.cfg.done) && w.cfg.done[shard] }

// --- the worker -----------------------------------------------------------

// restart replaces the worker behind the slot — a new process, a
// restarted member, or (proc false) nothing at all — keeping what belongs
// to the driver and the chaos still armed.
func (wk *mworker) restart(proc bool) {
	*wk = mworker{timer: wk.timer, linkUp: wk.linkUp, closing: wk.closing, wire: wk.wire, proc: proc, refuse: wk.refuse,
		staleBlob: wk.staleBlob, corrupt: wk.corrupt, failNext: wk.failNext, rejectNext: wk.rejectNext}
}

func (wk *mworker) alive(fleet bool) bool { return (fleet || wk.proc) && !wk.hung }

// send is fleetSlot.send: completion reports wait for a greeted session,
// beats are dropped without one, canceled fails are never queued.
func (wk *mworker) send(m Msg) {
	completion := m.Type == MsgDone || m.Type == MsgFail
	if wk.up && (wk.greeted || !completion) {
		wk.wire = append(wk.wire, m)
		return
	}
	if completion && m.Class != ClassCanceled {
		wk.queued = append(wk.queued, m)
	}
}

func (wk *mworker) receive(m Msg) {
	switch m.Type {
	case MsgAssign:
		if wk.epoch == m.Epoch && wk.shard == m.Shard {
			return
		}
		if wk.epoch > 0 {
			wk.send(Msg{Type: MsgFail, Shard: wk.shard, Epoch: wk.epoch, Class: ClassCanceled, Err: "superseded"})
		}
		wk.shard, wk.epoch, wk.left = m.Shard, m.Epoch, modelWork
	case MsgDrain:
		wk.shard, wk.epoch, wk.queued = 0, 0, nil
		wk.drop()
	}
}

// drop is the far end closing the session: what was written is still
// read, then the stream ends.
func (wk *mworker) drop() {
	if wk.linkUp && !wk.closing {
		wk.closing = true
	}
	wk.up, wk.greeted = false, false
}

// greet ends the worker's side of a handshake: ready with the in-flight
// lease, then the queued reports — or a reject.
func (wk *mworker) greet() {
	if wk.rejectNext {
		wk.rejectNext = false
		wk.wire = append(wk.wire, Msg{Type: MsgReject, Err: "model: fingerprint mismatch"})
		wk.drop()
		return
	}
	wk.wire = append(wk.wire, Msg{Type: MsgReady, Shard: wk.shard, Epoch: wk.epoch})
	wk.greeted = true
	wk.wire = append(wk.wire, wk.queued...)
	wk.queued = nil
}

// --- ops ------------------------------------------------------------------

// op applies one schedule step. Ops that cannot happen now do nothing.
func (w *world) op(code, arg byte) {
	if w.finished || w.fail != "" {
		return
	}
	n := int(arg) // a printable digit means itself
	if arg >= '0' && arg <= '9' {
		n = int(arg - '0')
	}
	slot := n % max(len(w.ws), 1)
	var wk *mworker
	if len(w.ws) > 0 {
		wk = w.ws[slot]
	}
	switch code {
	case 't':
		w.advance(time.Duration(1+n%10) * 5 * time.Millisecond)
		return
	case 'v':
		w.callback(n)
		return
	case 'K':
		if w.afterCancl == nil {
			snap := &cancelSnap{stats: w.m.stats}
			for i := range w.m.slots {
				snap.budget = append(snap.budget, [2]int{w.m.slots[i].attempt, w.m.slots[i].rounds})
			}
			w.afterCancl = snap
			w.feed(event{kind: evCancel, err: errors.New("context canceled")})
		}
		return
	case 'H':
		w.healErr = true
		return
	case 'L':
		w.localErr = true
		return
	case 'n':
		w.noBinary = true
		return
	}
	if wk == nil {
		return
	}
	switch code {
	case 'w':
		w.work(wk)
	case 'd':
		switch {
		case !wk.linkUp:
		case len(wk.wire) > 0:
			m := wk.wire[0]
			wk.wire = wk.wire[1:]
			w.feed(event{kind: evMsg, slot: slot, msg: m})
		case wk.closing:
			wk.linkUp, wk.closing = false, false
			w.feed(event{kind: evClosed, slot: slot, err: io.EOF})
		}
	case 'e':
		if wk.exiting {
			wk.exiting = false
			w.feed(event{kind: evChildExited, slot: slot, err: errors.New("process exited: exit status 13")})
		}
	case 'f':
		w.fire(slot, wk)
	case 'c':
		// A standing member restarts and a child dies: either way every
		// bit of slot state is lost and the session ends.
		if w.cfg.fleet || wk.proc {
			wk.drop()
			wk.restart(w.cfg.fleet)
			wk.exiting = !w.cfg.fleet
		}
	case 'h':
		if wk.alive(w.cfg.fleet) {
			wk.hung = true
		}
	case 'x':
		wk.drop()
	case 'p', 'q':
		wk.drop()
		d := 3 * modelTimeout / 2
		if code == 'q' {
			d = modelTimeout / 4
		}
		wk.refuse = w.now.Add(d)
	case 'D':
		if wk.lastDone != nil && wk.alive(w.cfg.fleet) {
			wk.send(*wk.lastDone)
		}
	case 'S':
		if wk.alive(w.cfg.fleet) {
			switch {
			case wk.epoch > 0:
				wk.send(Msg{Type: MsgDone, Shard: wk.shard, Epoch: wk.epoch - 1})
			case wk.lastDone != nil:
				wk.send(Msg{Type: MsgDone, Shard: wk.lastDone.Shard, Epoch: wk.lastDone.Epoch - 1})
			}
		}
	case 'Z':
		if wk.alive(w.cfg.fleet) && wk.epoch > 0 {
			wk.send(Msg{Type: MsgDone, Shard: wk.shard, Epoch: wk.epoch + 5})
		}
	case 'A':
		if wk.alive(w.cfg.fleet) {
			wk.send(Msg{Type: MsgAssign, Shard: wk.shard, Epoch: wk.epoch}) // not a worker's message
		}
	case 'k':
		// The worker's own operation context is canceled under it.
		if wk.alive(w.cfg.fleet) && wk.epoch > 0 {
			wk.send(Msg{Type: MsgFail, Shard: wk.shard, Epoch: wk.epoch, Class: ClassCanceled, Err: "model: canceled"})
			wk.shard, wk.epoch = 0, 0
		}
	case 'B':
		wk.staleBlob = true
	case 'C':
		wk.corrupt = true
	case 'F':
		wk.failNext = true
	case 'R':
		wk.rejectNext = true
	case 'm':
		wk.mute = w.now.Add(modelTimeout / 2)
	case 'l':
		wk.slow = true
	}
}

// fire completes the slot's pending start or dial, if its delay is over.
func (w *world) fire(slot int, wk *mworker) {
	t := wk.timer
	if t == nil || w.now.Before(t.due) {
		return
	}
	wk.timer = nil
	if t.start && !w.cfg.fleet {
		if w.noBinary {
			w.feed(event{kind: evDialFailed, slot: slot, terminal: true, err: errors.New("model: no such binary")})
			return
		}
		wk.restart(true)
	}
	if (!w.cfg.fleet && !wk.proc) || w.now.Before(wk.refuse) {
		w.feed(event{kind: evDialFailed, slot: slot, err: fherr.Wrap(fherr.ErrEngineFault, "model: connection refused")})
		return
	}
	// fleetSlot.attach: the new connection supersedes; beats flow at once,
	// completions wait for the ready.
	wk.linkUp, wk.closing, wk.wire = true, false, nil
	wk.up, wk.greeted = true, false
	if !wk.built && wk.build == 0 {
		wk.build = modelBuild
	}
	w.feed(event{kind: evAttached, slot: slot, peer: fmt.Sprintf("model-%d", slot)})
	if wk.built && wk.up && !wk.hung {
		wk.greet()
	}
}

// work gives the worker one unit of CPU: context build, then compute.
func (w *world) work(wk *mworker) {
	if !wk.alive(w.cfg.fleet) {
		return
	}
	switch {
	case wk.build > 0:
		if wk.build--; wk.build == 0 {
			wk.built = true
			if wk.up && !wk.greeted {
				wk.greet()
			}
		}
	case wk.epoch > 0 && !wk.slow:
		wk.left--
		wk.send(Msg{Type: MsgBeat, Shard: wk.shard, Step: modelWork - wk.left})
		if wk.left > 0 {
			return
		}
		report := Msg{Type: MsgDone, Shard: wk.shard, Epoch: wk.epoch}
		if wk.failNext {
			wk.failNext = false
			report = Msg{Type: MsgFail, Shard: wk.shard, Epoch: wk.epoch, Class: ClassFault, Err: "model: injected shard failure"}
		} else {
			b := mblob{present: true, epoch: wk.epoch, corrupt: wk.corrupt}
			if wk.staleBlob {
				b.epoch--
			}
			wk.staleBlob, wk.corrupt = false, false
			w.blobs[wk.shard] = b
			wk.lastDone = &report
			wk.finished++
		}
		wk.shard, wk.epoch = 0, 0
		wk.send(report)
	}
}

// advance moves the clock: healthy workers beat, the core ticks.
func (w *world) advance(d time.Duration) {
	w.now = w.now.Add(d)
	for _, wk := range w.ws {
		if wk.alive(w.cfg.fleet) && !w.now.Before(wk.mute) {
			wk.send(Msg{Type: MsgBeat, Shard: wk.shard})
		}
	}
	w.feed(event{kind: evTick})
}

// callback delivers one of the outstanding verdicts, computed from the
// exchange directory as it is now.
func (w *world) callback(i int) {
	if len(w.calls) == 0 {
		return
	}
	i %= len(w.calls)
	ev := w.calls[i]
	w.calls = append(w.calls[:i], w.calls[i+1:]...)
	switch ev.kind {
	case evVerified:
		switch b := w.blobs[ev.shard]; {
		case !b.present:
			ev.err = errors.New("model: no output")
		case b.corrupt:
			ev.err = errors.New("model: checksum mismatch")
		case b.epoch != ev.epoch:
			ev.err = fmt.Errorf("model: output stamped e%d, want e%d: %w", b.epoch, ev.epoch, ErrStaleEpoch)
		default:
			w.accepted[ev.shard]++
		}
	case evHealed:
		if w.healErr {
			w.healErr, ev.err = false, errors.New("model: input republish failed")
		}
	case evLocalDone:
		if w.localErr {
			w.localErr, ev.err = false, errModelLocal
		} else {
			w.blobs[ev.shard] = mblob{present: true, epoch: ev.epoch}
			w.accepted[ev.shard]++
		}
	}
	w.feed(ev)
}

// settle is the quiet end of every schedule: no new faults, everything
// in flight delivered round-robin, the clock moving. The Run must end.
func (w *world) settle() {
	for round := 0; round < 4000 && !w.finished && w.fail == ""; round++ {
		for i, wk := range w.ws {
			arg := byte('0' + i)
			w.op('f', arg)
			for n := 0; n < 64 && wk.linkUp && (len(wk.wire) > 0 || wk.closing); n++ {
				w.op('d', arg)
			}
			w.op('e', arg)
			w.op('w', arg)
		}
		for len(w.calls) > 0 && !w.finished && w.fail == "" {
			w.callback(0)
		}
		w.op('t', 3) // 20ms
	}
	if !w.finished && w.fail == "" {
		w.failf("the run did not terminate after the world went quiet")
	}
	w.atEnd()
}

// runSchedule plays header+ops, then lets the world settle.
func runSchedule(schedule []byte) *world {
	cfg, ops := decodeHeader(schedule)
	w := newWorld(cfg)
	for i := 0; i+1 < len(ops); i += 2 {
		w.op(decodeOp(ops[i]), ops[i+1])
	}
	w.settle()
	return w
}

// --- invariants -----------------------------------------------------------

// invariants checks the ledger after every step: each shard is in
// exactly one place, the counters agree with the records, nothing was
// completed twice.
func (w *world) invariants() {
	m := w.m
	if w.fail != "" {
		return
	}
	queued := make([]int, len(m.shards))
	for _, s := range m.pending {
		queued[s]++
	}
	held := make([]int, len(m.shards))
	live := 0
	for i := range m.slots {
		sl := &m.slots[i]
		if sl.state != slotRetired {
			live++
		}
		if sl.epoch == 0 {
			if sl.shard != -1 {
				w.failf("slot %d has shard %d without an epoch", i, sl.shard)
			}
			if sl.state == slotLeased || sl.state == slotFlushing {
				w.failf("slot %d is in state %d without a lease", i, sl.state)
			}
			continue
		}
		if sl.state != slotLeased && sl.state != slotRedialing && sl.state != slotFlushing {
			w.failf("slot %d holds a lease in state %d", i, sl.state)
		}
		held[sl.shard]++
		if rec := m.shards[sl.shard]; rec.state != shardLeased || rec.epoch != sl.epoch || rec.owner != i {
			w.failf("slot %d holds shard %d epoch %d but the ledger says state %d epoch %d owner %d", i, sl.shard, sl.epoch, rec.state, rec.epoch, rec.owner)
		}
	}
	if live != m.live {
		w.failf("live = %d, %d slots are not retired", m.live, live)
	}
	done, inflight := 0, 0
	for s, rec := range m.shards {
		wantQ, wantH := 0, 0
		switch rec.state {
		case shardPending:
			wantQ = 1
		case shardLeased:
			wantH = 1
		case shardVerifying, shardHealing, shardLocal:
			inflight++
		case shardDone:
			done++
			if w.accepted[s] != 1 && !w.preDone(s) {
				w.failf("shard %d is done with %d accepted outputs", s, w.accepted[s])
			}
		}
		if queued[s] != wantQ || held[s] != wantH {
			w.failf("shard %d in state %d is queued %d times and leased %d times (lost or duplicated)", s, rec.state, queued[s], held[s])
		}
		if w.accepted[s] > 1 || (w.accepted[s] == 1 && w.preDone(s)) {
			w.failf("shard %d completed twice", s)
		}
		if rec.epoch != w.lastEpoch[s] {
			w.failf("shard %d ledger epoch %d, last dispatched %d", s, rec.epoch, w.lastEpoch[s])
		}
	}
	if done != m.doneCount || inflight != m.inflight {
		w.failf("doneCount %d (records say %d), inflight %d (records say %d)", m.doneCount, done, m.inflight, inflight)
	}
	if c := w.afterCancl; c != nil {
		s := m.stats
		if s.Crashes != c.stats.Crashes || s.Hangs != c.stats.Hangs || s.Partitions != c.stats.Partitions ||
			s.WorkersRetired != c.stats.WorkersRetired || s.Respawns != c.stats.Respawns || s.Redispatches != c.stats.Redispatches {
			w.failf("cancellation was charged as a fault: %+v, at cancel %+v", s, c.stats)
		}
		for i := range m.slots {
			if got := [2]int{m.slots[i].attempt, m.slots[i].rounds}; got[0] > c.budget[i][0] || got[1] > c.budget[i][1] {
				w.failf("cancellation was charged to slot %d's respawn budget: %v, at cancel %v", i, got, c.budget[i])
			}
		}
	}
}

type snap struct {
	sl    slot
	rec   shardRec
	inRec bool
	stats Stats
}

func (w *world) snapshot(ev event) snap {
	s := snap{stats: w.m.stats}
	if ev.kind == evMsg {
		s.sl = w.m.slots[ev.slot]
		if sh := ev.msg.Shard; sh >= 0 && sh < len(w.m.shards) {
			s.rec, s.inRec = w.m.shards[sh], true
		}
	}
	return s
}

// oracle restates, from the records as they were before the step, what a
// done or fail must lead to: the slot's own lease is applied, a duplicate
// or a fenced zombie is counted and dropped and costs the slot nothing,
// anything else is a protocol violation.
func (w *world) oracle(ev event, before snap, acts []action) {
	if ev.kind != evMsg || (ev.msg.Type != MsgDone && ev.msg.Type != MsgFail) || w.fail != "" {
		return
	}
	msg, sl := ev.msg, before.sl
	verifies := 0
	quiet := true
	for _, a := range acts {
		if a.kind == actVerify {
			verifies++
			if a.shard != msg.Shard || a.epoch != msg.Epoch {
				w.failf("done for shard %d epoch %d led to verify of shard %d epoch %d", msg.Shard, msg.Epoch, a.shard, a.epoch)
			}
		}
		if a.kind != actLog {
			quiet = false
		}
	}
	want := before.stats
	switch {
	case sl.state == slotStarting || sl.state == slotDraining || sl.state == slotRetired:
	case (sl.state == slotLeased || sl.state == slotFlushing) && sl.shard == msg.Shard && sl.epoch == msg.Epoch:
		if (msg.Type == MsgDone) != (verifies == 1) {
			w.failf("%s for the slot's own lease (shard %d epoch %d) led to %d verifies", msg.Type, msg.Shard, msg.Epoch, verifies)
		}
		return
	case !before.inRec || msg.Epoch > before.rec.epoch:
		if w.m.stats.Crashes != before.stats.Crashes+1 {
			w.failf("a report from the future (shard %d epoch %d) was not treated as a protocol violation", msg.Shard, msg.Epoch)
		}
		return
	case before.rec.state == shardDone || (before.rec.state == shardVerifying && before.rec.epoch == msg.Epoch):
		want.DuplicateDones++
	case msg.Type == MsgDone:
		want.StaleEpochRejects++
	}
	if verifies != 0 || !quiet || !reflect.DeepEqual(w.m.stats, want) {
		w.failf("stray %s (shard %d epoch %d; slot lease shard %d epoch %d) was not counted and dropped: stats %+v, want %+v, actions %s",
			msg.Type, msg.Shard, msg.Epoch, sl.shard, sl.epoch, w.m.stats, want, kindNames(acts))
	}
}

// atEnd checks the verdict of a finished run.
func (w *world) atEnd() {
	if w.fail != "" {
		return
	}
	switch {
	case w.err == nil:
		for s := range w.m.shards {
			if w.m.shards[s].state != shardDone {
				w.failf("run finished without error but shard %d is in state %d", s, w.m.shards[s].state)
			}
		}
	case errors.Is(w.err, fherr.ErrCanceled):
		if w.afterCancl == nil {
			w.failf("ErrCanceled without a cancellation: %v", w.err)
		}
	case errors.Is(w.err, fherr.ErrFaultUnrecovered), errors.Is(w.err, errModelLocal):
	default:
		w.failf("run ended with an untyped error: %v", w.err)
	}
	if w.afterCancl != nil && w.err == nil && w.m.doneCount != len(w.m.shards) {
		w.failf("canceled run reported success with shards unfinished")
	}
}

// --- printing -------------------------------------------------------------

var eventNames = [...]string{"attached", "dial-failed", "msg", "closed", "child-exited", "verified", "healed", "local-done", "tick", "cancel"}
var actionNames = [...]string{"start", "dial", "send", "drop", "verify", "heal", "exec-local", "log", "finish"}

func describe(ev event) string {
	switch ev.kind {
	case evMsg:
		return fmt.Sprintf("msg slot=%d %s shard=%d epoch=%d step=%d class=%s", ev.slot, ev.msg.Type, ev.msg.Shard, ev.msg.Epoch, ev.msg.Step, ev.msg.Class)
	case evVerified, evHealed, evLocalDone:
		return fmt.Sprintf("%s shard=%d epoch=%d err=%v", eventNames[ev.kind], ev.shard, ev.epoch, ev.err)
	case evTick, evCancel:
		return eventNames[ev.kind]
	}
	return fmt.Sprintf("%s slot=%d err=%v", eventNames[ev.kind], ev.slot, ev.err)
}

func kindName(a action) string {
	switch a.kind {
	case actStart, actDial, actDrop:
		return fmt.Sprintf("%s slot=%d after=%v", actionNames[a.kind], a.slot, a.after)
	case actSend:
		return fmt.Sprintf("send slot=%d %s shard=%d epoch=%d", a.slot, a.msg.Type, a.msg.Shard, a.msg.Epoch)
	case actVerify, actHeal, actExecLocal:
		return fmt.Sprintf("%s shard=%d epoch=%d", actionNames[a.kind], a.shard, a.epoch)
	case actFinish:
		return fmt.Sprintf("finish err=%v", a.err)
	}
	return fmt.Sprintf("%s slot=%d", actionNames[a.kind], a.slot)
}

func kindNames(acts []action) string {
	var names []string
	for _, a := range acts {
		names = append(names, kindName(a))
	}
	return "[" + strings.Join(names, ", ") + "]"
}
