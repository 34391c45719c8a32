package shard

import "time"

// The worker's core. One Member value is one slot of a fleet member —
// what a supervisor's slot dials — and advances only through
// Step(event) -> actions, like the supervisor's machine: it starts no
// goroutine, takes no lock, does no I/O and reads no clock. The driver
// (internal/shard/worker) owns the sockets, the ticker and the compute,
// and the model fleet of model_test.go steps this same value for every
// worker it plays, so the supervisor's schedule search runs against the
// worker that ships. DESIGN.md "The worker is one state machine" has the
// state x event table.
//
// The contract with whoever feeds it: a session is named by a generation
// the driver picks, fresh per accepted hello; every action about a
// session names it, and an event about a session the core has let go of
// is ignored. Compute is started by exec and answered by exactly one
// computed, whether it finished, failed or was canceled.

// Beat periods a hello may ask for: the supervisor validates its
// interval against them and a member refuses a hello outside them.
const (
	MinBeat = time.Millisecond
	MaxBeat = time.Hour
)

// MemberEventKind says what happened to a member slot.
type MemberEventKind uint8

const (
	MemberAttached MemberEventKind = iota // a hello passed the member's checks; session Gen replaces any earlier one
	MemberBuilt                           // the job's runtime is built (Err: it cannot be)
	MemberAssign                          // session Gen carried an assign of Shard under Epoch with the input Batch
	MemberDrain                           // the supervisor (or the member's own close) ends the slot
	MemberProgress                        // the compute reached Step of Shard
	MemberComputed                        // the compute of Shard under Epoch returned Batch, or Err of Class
	MemberTick                            // one beat period passed
	MemberClosed                          // session Gen ended: its stream, or a write on it, failed
)

// MemberEvent is one thing that happened, with what the kind needs.
type MemberEvent struct {
	Kind         MemberEventKind
	Gen          int
	Shard, Epoch int
	Step         int
	Batch        []byte
	Err          error
	Class        string // MemberComputed with Err: ClassCanceled or ClassFault
}

// MemberActionKind says what the driver is to do.
type MemberActionKind uint8

const (
	MemberWrite   MemberActionKind = iota // write Msg on session Gen
	MemberExec                            // compute Shard under Epoch on Batch
	MemberCancel                          // cancel the running compute; its computed still follows
	MemberClose                           // close session Gen
	MemberRelease                         // the slot is over: forget it and its hold on the job's runtime
)

// MemberAction is one thing to do.
type MemberAction struct {
	Kind         MemberActionKind
	Gen          int
	Msg          Msg
	Shard, Epoch int
	Batch        []byte
}

// Member is one fleet slot's protocol state. The zero value is a slot
// no hello has reached yet.
type Member struct {
	gen          int   // the attached session; 0 = none
	greeted      bool  // ready written on gen: completions may follow it
	built        bool  // the job's runtime is built
	shard, epoch int   // the lease being computed; epoch 0 = idle
	queued       []Msg // completions held back until a session is greeted
	unread       []Msg // completions written on gen that no later assign shows were read
	released     bool
	out          []MemberAction
}

// Step advances the slot by one event. The returned slice is reused by
// the next Step.
func (m *Member) Step(ev MemberEvent) []MemberAction {
	m.out = m.out[:0]
	if m.released {
		return nil
	}
	switch ev.Kind {
	case MemberAttached:
		// Beats flow on the new session at once; completions wait for the
		// ready, which waits for the runtime.
		if m.gen != 0 {
			m.detach()
		}
		m.gen = ev.Gen
		m.greet()
	case MemberBuilt:
		if ev.Err != nil {
			if m.gen != 0 {
				m.emit(MemberAction{Kind: MemberWrite, Gen: m.gen, Msg: Msg{Type: MsgReject, Err: ev.Err.Error()}})
			}
			m.release()
			break
		}
		m.built = true
		m.greet()
	case MemberAssign:
		if ev.Gen == m.gen {
			// The supervisor assigns only after it has taken the report
			// before: what was written ahead of this has been read.
			m.unread = nil
		}
		if ev.Shard == m.shard && ev.Epoch == m.epoch {
			break // the lease already running, sent again
		}
		if m.epoch > 0 {
			// A lease the supervisor moved on from while we were apart: its
			// canceled fail is noise nobody acts on.
			m.emit(MemberAction{Kind: MemberCancel})
		}
		m.shard, m.epoch = ev.Shard, ev.Epoch
		m.emit(MemberAction{Kind: MemberExec, Shard: ev.Shard, Epoch: ev.Epoch, Batch: ev.Batch})
	case MemberDrain:
		m.release()
	case MemberProgress:
		m.beat(ev.Shard, ev.Step)
	case MemberComputed:
		if ev.Shard == m.shard && ev.Epoch == m.epoch {
			m.shard, m.epoch = 0, 0
		}
		report := Msg{Type: MsgDone, Shard: ev.Shard, Epoch: ev.Epoch, Batch: ev.Batch}
		if ev.Err != nil {
			report = Msg{Type: MsgFail, Shard: ev.Shard, Epoch: ev.Epoch, Class: ev.Class, Err: ev.Err.Error()}
		}
		m.send(report)
	case MemberTick:
		// A periodic beat says "alive", never "progressed": step 0, so a
		// wedged compute cannot hold off the supervisor's ShardDeadline.
		m.beat(m.shard, 0)
	case MemberClosed:
		if ev.Gen == m.gen && m.gen != 0 {
			m.detach()
		}
	}
	return m.out
}

// detach lets the session go. A cut link loses what it was carrying, and
// nothing says how much: the reports written since the last assign go
// out again after the next ready. One that had arrived is a duplicate
// the supervisor counts and drops; one that had not is the report it is
// waiting for.
func (m *Member) detach() {
	m.queued = append(m.unread, m.queued...)
	m.unread = nil
	m.emit(MemberAction{Kind: MemberClose, Gen: m.gen})
	m.gen, m.greeted = 0, false
}

func (m *Member) emit(a MemberAction) { m.out = append(m.out, a) }

func (m *Member) write(msg Msg) {
	if completion(msg) {
		m.unread = append(m.unread, msg)
	}
	m.emit(MemberAction{Kind: MemberWrite, Gen: m.gen, Msg: msg})
}

// completion reports whether msg is a report worth keeping for a later
// session: a done, or a fail nobody canceled.
func completion(msg Msg) bool {
	return msg.Type == MsgDone || (msg.Type == MsgFail && msg.Class != ClassCanceled)
}

// greet answers the attached session once the runtime is built: ready
// with the lease in flight (epoch 0 = idle), then the held completions.
func (m *Member) greet() {
	if m.gen == 0 || m.greeted || !m.built {
		return
	}
	m.write(Msg{Type: MsgReady, Shard: m.shard, Epoch: m.epoch})
	m.greeted = true
	for _, q := range m.queued {
		m.write(q)
	}
	m.queued = nil
}

// beat is liveness: written whenever a session is attached, greeted or not.
func (m *Member) beat(shard, step int) {
	if m.gen != 0 {
		m.write(Msg{Type: MsgBeat, Shard: shard, Step: step})
	}
}

// send writes a report on a greeted session, or holds it back — unless
// it is a canceled fail, which is never worth replaying.
func (m *Member) send(report Msg) {
	switch {
	case m.gen != 0 && m.greeted:
		m.write(report)
	case completion(report):
		m.queued = append(m.queued, report)
	}
}

// release ends the slot: compute canceled, held reports dropped (the
// supervisor that drained us has what it needs), session closed.
func (m *Member) release() {
	if m.epoch > 0 {
		m.emit(MemberAction{Kind: MemberCancel})
	}
	if m.gen != 0 {
		m.emit(MemberAction{Kind: MemberClose, Gen: m.gen})
	}
	*m = Member{released: true, out: m.out}
	m.emit(MemberAction{Kind: MemberRelease})
}
