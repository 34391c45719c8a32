package shard

// A model fleet for the supervisor's core. world plays everything outside
// machine.go and member.go — the supervisor's driver, the network, the
// worker processes with their compute, and the collect callback — in
// virtual time, and checks the supervisor core's invariants after every
// step. Each slot's worker is a real Member (member.go) that the world
// feeds as internal/shard/worker's driver does: the worker's rules for
// beats, greeting, queueing, flushing and supersession are the core's,
// not a copy of them here. A schedule is a byte string: a
// four-byte header (slots, shards, lane, shards resumed) and then two-byte
// ops (what happens, to which slot), so a seed, an enumerated small case, a fuzz
// input and a checked-in corpus row are all the same thing and replay
// the same way. Ops that are not possible in the current state do
// nothing; when the ops run out the world goes quiet — no more faults,
// everything in flight is delivered fairly — and the Run must finish.
//
// The ops split the way the faults do in the real world: c, h, l and e
// are the process (a crash, a hang, a stall, the exit the supervisor
// sees); C, F, R and k are compute outcomes fed to the member (a garbled
// output, a failed shard, a refused runtime, the compute's context
// canceled under it); D, S, Z, A, x, p, q and m are faults of the wire
// between the two cores (a done sent twice, a zombie's done one epoch
// older carrying the shard's input, a report from the future, a message
// no worker sends, a cut, a cut with refused redials long or short, and
// beats held back).

import (
	"bytes"
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
	respawn       RespawnPolicy
	shardAttempts int
	done          []bool
}

// decodeHeader reads slots (1-3), shards (1-6), the lane and how many
// shards a previous run left done (0-2) from the first four bytes;
// printable digits mean what they say, and s/S (spawned) and f/F (fleet)
// name the lane.
func decodeHeader(b []byte) (modelCfg, []byte) {
	var h [4]byte
	copy(h[:], b)
	cfg := modelCfg{
		slots:         1 + int(h[0]+2)%3, // '1' -> 1
		shards:        1 + int(h[1]+5)%6, // '1' -> 1
		respawn:       RespawnPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond, BreakerThreshold: 2},
		shardAttempts: 2,
	}
	switch h[2] {
	case 's', 'S':
	case 'f', 'F':
		cfg.fleet = true
	default:
		cfg.fleet = h[2]&1 == 1
	}
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
const faultOps = "chxpqDSCFRKmlZnAk"

func decodeOp(b byte) byte {
	all := benignOps + faultOps
	if strings.IndexByte(all, b) >= 0 {
		return b
	}
	return all[int(b)%len(all)]
}

type mworker struct {
	slot int

	// What the supervisor's driver would hold for the slot.
	timer   *mtimer // the pending start or dial
	linkUp  bool    // a session the supervisor's core has been told about
	closing bool    // ... whose far end is gone: closed follows the wire
	wire    []Msg   // worker -> supervisor, in flight
	exiting bool    // child-exited not yet delivered

	// The wire between the two cores.
	gen     int       // the session on it, as the member's driver names it
	carried *Msg      // the last done it carried from the worker: D sends it again, S one epoch older
	mute    time.Time // m: beats are held back until then
	refuse  time.Time // p, q: dials are refused until then

	// The worker process: its member core, and what the member's driver
	// runs for it.
	core       Member
	proc       bool     // spawned lane: the process exists
	built      bool     // runtime built (survives reconnects, not restarts)
	build      int      // work units until it is
	run        *compute // the compute the member last started, until it answers
	hung, slow bool
	finished   int // shards completed in this life

	// One-shot compute outcomes.
	corrupt, failNext, rejectNext bool
}

// compute is one exec in progress: what ExecShard's goroutine holds.
type compute struct{ shard, epoch, left int }

type mtimer struct {
	due   time.Time
	start bool
}

type world struct {
	cfg   modelCfg
	m     *machine
	now   time.Time
	ws    []*mworker
	calls []event // callback verdicts not yet delivered; a verify's batch rides in msg.Batch

	noBinary bool

	lastEpoch  []int
	accepted   []int
	afterCancl *cancelSnap
	finished   bool
	err        error
	steps      int
	traced     bool
	trace      []string
	fail       string
}

type cancelSnap struct {
	stats  Stats
	budget [][2]int
}

var (
	errModelReject = errors.New("model: fingerprint mismatch")
	errModelFail   = errors.New("model: injected shard failure")
	errModelCancel = errors.New("model: canceled")
)

func newWorld(cfg modelCfg, traced bool) *world {
	opts := Options{
		Dir: "/model", Workers: cfg.slots,
		HeartbeatInterval: modelInterval, HeartbeatTimeout: modelTimeout, ShardDeadline: modelDeadline,
		Respawn: cfg.respawn, ShardAttempts: cfg.shardAttempts,
	}
	if cfg.fleet {
		for i := 0; i < cfg.slots; i++ {
			opts.Addrs = append(opts.Addrs, fmt.Sprintf("member-%d", i))
		}
	} else {
		opts.WorkerCommand = []string{"model-worker"}
	}
	w := &world{cfg: cfg, now: time.Unix(1_000_000, 0), traced: traced,
		lastEpoch: make([]int, cfg.shards), accepted: make([]int, cfg.shards)}
	m, first := newMachine(opts.withDefaults(), cfg.shards, cfg.done, w.now)
	w.m = m
	for i := range m.slots {
		w.ws = append(w.ws, &mworker{slot: i})
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

// note adds a line to the trace. Only a traced world keeps one: the
// search runs untraced, and a failure is replayed traced (a schedule
// replays exactly), so the millions of steps that pass format nothing.
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
	if w.traced {
		w.note("event %s", describe(ev))
	}
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
			if wk.core.gen == wk.gen && wk.gen != 0 && !wk.hung {
				switch a.msg.Type {
				case MsgAssign:
					// The driver adds the shard's input, as Run's does.
					w.member(wk, MemberEvent{Kind: MemberAssign, Gen: wk.gen, Shard: a.msg.Shard, Epoch: a.msg.Epoch, Batch: modelInput(a.msg.Shard)})
				case MsgDrain:
					w.member(wk, MemberEvent{Kind: MemberDrain})
				}
			}
		case actDrop:
			wk := w.ws[a.slot]
			wk.timer, wk.linkUp, wk.closing, wk.wire = nil, false, false, nil
			w.member(wk, MemberEvent{Kind: MemberClosed, Gen: wk.gen})
			if !w.cfg.fleet {
				// The grace of a drained child's stop is the driver's to
				// wait out; nothing comes back from it either way.
				wk.restart(false)
			}
		case actVerify:
			if a.epoch != w.lastEpoch[a.shard] {
				w.failf("verify of shard %d under epoch %d, dispatched %d", a.shard, a.epoch, w.lastEpoch[a.shard])
			}
			w.calls = append(w.calls, event{kind: evVerified, shard: a.shard, epoch: a.epoch, msg: Msg{Batch: a.batch}})
		case actFinish:
			w.finished, w.err = true, a.err
		}
		if w.traced {
			if a.kind == actLog {
				w.note("  %s", a.text)
			} else {
				w.note("  -> %s", kindName(a))
			}
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

// A shard's batches in the model: what its assign carries, and what a
// worker's done carries once the shard is computed.
func modelInput(shard int) []byte  { return []byte(fmt.Sprintf("in %d", shard)) }
func modelOutput(shard int) []byte { return []byte(fmt.Sprintf("out %d", shard)) }

// --- the worker -----------------------------------------------------------

// restart replaces the worker behind the slot — a new process, a
// restarted member, or (proc false) nothing at all — keeping what belongs
// to the driver and the wire and the outcomes still armed.
func (wk *mworker) restart(proc bool) {
	*wk = mworker{slot: wk.slot, timer: wk.timer, linkUp: wk.linkUp, closing: wk.closing, wire: wk.wire, gen: wk.gen, refuse: wk.refuse,
		proc: proc, corrupt: wk.corrupt, failNext: wk.failNext, rejectNext: wk.rejectNext}
}

func (wk *mworker) alive(fleet bool) bool { return (fleet || wk.proc) && !wk.hung }

// member steps the slot's worker core and plays its driver: writes go on
// the wire (beats held back while it is muted), exec starts the compute,
// a cancel has the compute answer at once as canceled, close ends the
// session from the worker's side, release leaves a fresh slot for the
// next hello.
func (w *world) member(wk *mworker, ev MemberEvent) {
	if w.traced {
		w.note("  worker %d: %s", wk.slot, describeMember(ev))
	}
	var answer *MemberEvent
	for _, a := range wk.core.Step(ev) {
		switch a.Kind {
		case MemberWrite:
			if a.Gen != wk.gen || !wk.linkUp || wk.closing {
				w.failf("member wrote %s on session %d, the wire carries %d (up %v, closing %v)", a.Msg.Type, a.Gen, wk.gen, wk.linkUp, wk.closing)
			}
			if a.Msg.Type == MsgBeat && w.now.Before(wk.mute) {
				continue
			}
			if a.Msg.Type == MsgDone {
				done := a.Msg
				wk.carried = &done
			}
			wk.wire = append(wk.wire, a.Msg)
		case MemberExec:
			if !bytes.Equal(a.Batch, modelInput(a.Shard)) {
				w.failf("member computes shard %d on batch %q", a.Shard, a.Batch)
			}
			wk.run = &compute{shard: a.Shard, epoch: a.Epoch, left: modelWork}
		case MemberCancel:
			if r := wk.run; r != nil {
				answer = &MemberEvent{Kind: MemberComputed, Shard: r.shard, Epoch: r.epoch, Err: errModelCancel, Class: ClassCanceled}
				wk.run = nil
			}
		case MemberClose:
			if a.Gen == wk.gen {
				wk.drop()
			}
		case MemberRelease:
			wk.core, wk.run, answer = Member{}, nil, nil
		}
	}
	if answer != nil {
		w.member(wk, *answer)
	}
}

// drop is the far end closing the session: what was written is still
// read, then the stream ends.
func (wk *mworker) drop() {
	if wk.linkUp && !wk.closing {
		wk.closing = true
	}
}

// cut breaks the link: what it was carrying is lost, the supervisor
// reads the end of the stream and the worker's session ends now. (A cut
// after the wire has been read dry is the lossless one.)
func (w *world) cut(wk *mworker) {
	wk.drop()
	wk.wire = nil
	w.member(wk, MemberEvent{Kind: MemberClosed, Gen: wk.gen})
}

// inject puts a message on the wire that the worker did not write.
func (w *world) inject(wk *mworker, m Msg) {
	if wk.linkUp && !wk.closing {
		wk.wire = append(wk.wire, m)
	}
}

// runtime answers the member's build: refused once after R.
func (wk *mworker) runtime() MemberEvent {
	ev := MemberEvent{Kind: MemberBuilt}
	if wk.rejectNext {
		wk.rejectNext, ev.Err = false, errModelReject
	}
	return ev
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
		w.cut(wk)
	case 'p', 'q':
		w.cut(wk)
		d := 3 * modelTimeout / 2
		if code == 'q' {
			d = modelTimeout / 4
		}
		wk.refuse = w.now.Add(d)
	case 'D':
		if wk.carried != nil && wk.alive(w.cfg.fleet) {
			w.inject(wk, *wk.carried)
		}
	case 'S':
		if wk.alive(w.cfg.fleet) {
			switch {
			case wk.core.epoch > 0:
				w.inject(wk, Msg{Type: MsgDone, Shard: wk.core.shard, Epoch: wk.core.epoch - 1, Batch: modelInput(wk.core.shard)})
			case wk.carried != nil:
				w.inject(wk, Msg{Type: MsgDone, Shard: wk.carried.Shard, Epoch: wk.carried.Epoch - 1, Batch: modelInput(wk.carried.Shard)})
			}
		}
	case 'Z':
		if wk.alive(w.cfg.fleet) && wk.core.epoch > 0 {
			w.inject(wk, Msg{Type: MsgDone, Shard: wk.core.shard, Epoch: wk.core.epoch + 5, Batch: modelInput(wk.core.shard)})
		}
	case 'A':
		if wk.alive(w.cfg.fleet) {
			w.inject(wk, Msg{Type: MsgAssign, Shard: wk.core.shard, Epoch: wk.core.epoch}) // not a worker's message
		}
	case 'k':
		// The compute's own context is canceled under it.
		if r := wk.run; wk.alive(w.cfg.fleet) && r != nil {
			wk.run = nil
			w.member(wk, MemberEvent{Kind: MemberComputed, Shard: r.shard, Epoch: r.epoch, Err: errModelCancel, Class: ClassCanceled})
		}
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
	// The member takes the hello, and answers it once its runtime is
	// built: at once for a slot that has it, after the build for one that
	// does not.
	wk.linkUp, wk.closing, wk.wire = true, false, nil
	wk.gen++
	if !wk.built && wk.build == 0 {
		wk.build = modelBuild
	}
	if !wk.hung {
		w.member(wk, MemberEvent{Kind: MemberAttached, Gen: wk.gen})
	}
	w.feed(event{kind: evAttached, slot: slot, peer: fmt.Sprintf("model-%d", slot)})
	if wk.built && !wk.hung && !wk.core.built {
		w.member(wk, wk.runtime())
	}
}

// work gives the worker one unit of CPU: context build, then compute.
func (w *world) work(wk *mworker) {
	if !wk.alive(w.cfg.fleet) {
		return
	}
	switch r := wk.run; {
	case wk.build > 0:
		if wk.build--; wk.build == 0 {
			wk.built = true
			if wk.core.gen != 0 {
				w.member(wk, wk.runtime())
			}
		}
	case r != nil && !wk.slow:
		r.left--
		w.member(wk, MemberEvent{Kind: MemberProgress, Shard: r.shard, Step: modelWork - r.left})
		if r.left > 0 {
			return
		}
		wk.run = nil
		out := MemberEvent{Kind: MemberComputed, Shard: r.shard, Epoch: r.epoch, Batch: modelOutput(r.shard)}
		switch {
		case wk.failNext:
			wk.failNext = false
			out.Batch, out.Err, out.Class = nil, errModelFail, ClassFault
		case wk.corrupt:
			wk.corrupt = false
			out.Batch = append(out.Batch, " garbled"...)
			fallthrough
		default:
			wk.finished++
		}
		w.member(wk, out)
	}
}

// advance moves the clock: live workers' beat periods pass, the
// supervisor ticks.
func (w *world) advance(d time.Duration) {
	w.now = w.now.Add(d)
	for _, wk := range w.ws {
		if wk.alive(w.cfg.fleet) {
			w.member(wk, MemberEvent{Kind: MemberTick})
		}
	}
	w.feed(event{kind: evTick})
}

// callback delivers one of the outstanding verdicts: a verify accepts
// exactly the shard's output batch.
func (w *world) callback(i int) {
	if len(w.calls) == 0 {
		return
	}
	i %= len(w.calls)
	ev := w.calls[i]
	w.calls = append(w.calls[:i], w.calls[i+1:]...)
	if batch := ev.msg.Batch; !bytes.Equal(batch, modelOutput(ev.shard)) {
		ev.err = fmt.Errorf("model: batch %q is not shard %d's output (checksum mismatch)", batch, ev.shard)
	} else {
		w.accepted[ev.shard]++
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
func runSchedule(schedule []byte, traced bool) *world {
	cfg, ops := decodeHeader(schedule)
	w := newWorld(cfg, traced)
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
		case shardVerifying:
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
			if a.shard != msg.Shard || a.epoch != msg.Epoch || !bytes.Equal(a.batch, msg.Batch) {
				w.failf("done for shard %d epoch %d (batch %q) led to verify of shard %d epoch %d (batch %q)", msg.Shard, msg.Epoch, msg.Batch, a.shard, a.epoch, a.batch)
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
	case errors.Is(w.err, ErrFleetLost):
		// The hand-back: the caller runs what is unfinished, so no slot may
		// still be running a shard and no verdict may still be coming.
		if w.m.live != 0 || w.m.inflight != 0 || w.m.doneCount == len(w.m.shards) || !errors.Is(w.err, fherr.ErrFaultUnrecovered) {
			w.failf("fleet handed back with %d live slots, %d verdicts in flight, %d/%d shards done: %v",
				w.m.live, w.m.inflight, w.m.doneCount, len(w.m.shards), w.err)
		}
	case errors.Is(w.err, fherr.ErrFaultUnrecovered):
	default:
		w.failf("run ended with an untyped error: %v", w.err)
	}
	if w.afterCancl != nil && w.err == nil && w.m.doneCount != len(w.m.shards) {
		w.failf("canceled run reported success with shards unfinished")
	}
}

// --- printing -------------------------------------------------------------

var eventNames = [...]string{"attached", "dial-failed", "msg", "closed", "child-exited", "verified", "tick", "cancel"}
var memberEventNames = [...]string{"attached", "built", "assign", "drain", "progress", "computed", "tick", "closed"}

func describeMember(ev MemberEvent) string {
	switch ev.Kind {
	case MemberAttached, MemberClosed:
		return fmt.Sprintf("%s gen=%d", memberEventNames[ev.Kind], ev.Gen)
	case MemberBuilt:
		return fmt.Sprintf("built err=%v", ev.Err)
	case MemberAssign, MemberComputed:
		return fmt.Sprintf("%s shard=%d epoch=%d err=%v", memberEventNames[ev.Kind], ev.Shard, ev.Epoch, ev.Err)
	case MemberProgress:
		return fmt.Sprintf("progress shard=%d step=%d", ev.Shard, ev.Step)
	}
	return memberEventNames[ev.Kind]
}

var actionNames = [...]string{"start", "dial", "send", "drop", "verify", "log", "finish"}

func describe(ev event) string {
	switch ev.kind {
	case evMsg:
		return fmt.Sprintf("msg slot=%d %s shard=%d epoch=%d step=%d class=%s", ev.slot, ev.msg.Type, ev.msg.Shard, ev.msg.Epoch, ev.msg.Step, ev.msg.Class)
	case evVerified:
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
	case actVerify:
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
