package worker

import (
	"context"
	"net"
	"time"

	"bitpacker/internal/shard"
)

// fleetSlot is the driver of one worker slot of a fleet member: one loop
// that feeds the slot's core (shard.Member) what happened and performs
// what it answers. The core decides — beats, the ready, which
// completions wait for a session, supersession — and the loop does: it
// writes on the slot's sessions, closes them, starts and cancels the
// compute. Whoever reaches the slot from outside (a connection's hello
// and reads, the runtime build, the compute, Fleet.Close) posts to the
// inbox, so the loop's state needs no lock.
type fleetSlot struct {
	fleet *Fleet
	key   string
	job   *jobEntry

	inbox chan func()
	quit  chan struct{} // closed when the loop is over: posts stop waiting

	// Owned by the loop.
	core     shard.Member
	conns    map[int]net.Conn   // the sessions the core holds open, by generation
	cancel   context.CancelFunc // the last compute's
	released bool
}

func newSlot(f *Fleet, key string, job *jobEntry) *fleetSlot {
	return &fleetSlot{fleet: f, key: key, job: job, inbox: make(chan func()), quit: make(chan struct{}), conns: map[int]net.Conn{}}
}

// post runs fn on the slot's loop, unless the slot is over.
func (s *fleetSlot) post(fn func()) bool {
	select {
	case s.inbox <- fn:
		return true
	case <-s.quit:
		return false
	}
}

// postEvent feeds ev to the core on the slot's loop.
func (s *fleetSlot) postEvent(ev shard.MemberEvent) bool {
	return s.post(func() { s.feed(ev) })
}

// run is the slot's loop, with a ticker at the beat period the hello
// that created the slot asked for, until the core releases the slot.
func (s *fleetSlot) run(beat time.Duration) {
	defer s.fleet.wg.Done()
	t := time.NewTicker(beat)
	defer t.Stop()
	for !s.released {
		select {
		case fn := <-s.inbox:
			fn()
		case <-t.C:
			s.feed(shard.MemberEvent{Kind: shard.MemberTick})
		}
	}
	close(s.quit)
}

// feed steps the core and performs its answer. A write that fails ends
// its session: the rest of the answer is not written on it, and the core
// hears of it before anything else happens.
func (s *fleetSlot) feed(ev shard.MemberEvent) {
	lost := 0
	for _, a := range s.core.Step(ev) {
		switch a.Kind {
		case shard.MemberWrite:
			if a.Gen != lost && shard.WriteMessage(s.conns[a.Gen], a.Msg) != nil {
				lost = a.Gen
			}
		case shard.MemberExec:
			ctx, cancel := context.WithCancel(context.Background())
			s.cancel = cancel
			s.fleet.wg.Add(1) // the loop holds the group open, so this cannot race Close's Wait
			go func() {
				defer s.fleet.wg.Done()
				s.job.rt.runShard(ctx, cancel, a.Shard, a.Epoch, a.Batch, s)
			}()
		case shard.MemberCancel:
			s.cancel()
		case shard.MemberClose:
			s.conns[a.Gen].Close()
			delete(s.conns, a.Gen)
		case shard.MemberRelease:
			s.released = true
			s.fleet.release(s)
		}
	}
	if lost != 0 {
		s.feed(shard.MemberEvent{Kind: shard.MemberClosed, Gen: lost})
	}
}
