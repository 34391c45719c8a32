package worker

import (
	"context"
	"encoding/json"
	"net"
	"sync"
	"time"

	"bitpacker/internal/shard"
)

// fleetSlot is one worker slot of a fleet member: at most one supervisor
// connection, at most one in-flight shard, and a queue of completion
// reports produced while disconnected.
type fleetSlot struct {
	fleet *Fleet
	key   string
	job   *jobEntry
	b     *beater

	mu      sync.Mutex
	conn    net.Conn
	enc     *json.Encoder
	greeted bool        // ready sent on conn: until then only beats may precede it
	queued  []shard.Msg // done / non-canceled fail awaiting a greeted connection
	inShard int
	inEpoch int // 0 = idle
	cancel  context.CancelFunc
}

// send writes a protocol message to the live connection, or queues
// completion reports (and drops beats) while disconnected or not yet
// greeted. A write failure demotes the connection to disconnected on the
// spot so the report is queued, not lost.
func (s *fleetSlot) send(m shard.Msg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	completion := m.Type == shard.MsgDone || m.Type == shard.MsgFail
	if s.enc != nil && (s.greeted || !completion) {
		if err := s.enc.Encode(m); err == nil {
			return
		}
		s.disconnect()
	}
	if completion && m.Class != shard.ClassCanceled {
		// Canceled fails are supersession noise: no supervisor acts on
		// them, so they are not worth replaying into a future session.
		s.queued = append(s.queued, m)
	}
}

// disconnect closes and forgets the connection. Callers hold s.mu.
func (s *fleetSlot) disconnect() {
	if s.conn != nil {
		s.conn.Close()
	}
	s.conn, s.enc, s.greeted = nil, nil, false
}

// attach adopts a new supervisor connection, superseding any previous
// one. Beats flow on it at once; completions wait for ready.
func (s *fleetSlot) attach(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disconnect()
	s.conn, s.enc = conn, json.NewEncoder(conn)
}

// ready greets the attached supervisor once the job's runtime is built:
// report the in-flight lease (epoch 0 = idle), then flush queued
// completions. Holding the lock across the writes keeps a completion
// from overtaking the ready.
func (s *fleetSlot) ready() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.enc == nil {
		return
	}
	ready := shard.Msg{Type: shard.MsgReady}
	if s.inEpoch > 0 {
		ready.Shard, ready.Epoch = s.inShard, s.inEpoch
	}
	if err := s.enc.Encode(ready); err != nil {
		s.disconnect()
		return
	}
	s.greeted = true
	for i, q := range s.queued {
		if err := s.enc.Encode(q); err != nil {
			s.queued = s.queued[i:] // unsent reports stay queued
			s.disconnect()
			return
		}
	}
	s.queued = nil
}

// detach clears the connection if conn is still the current one (a
// newer attach may already have superseded it).
func (s *fleetSlot) detach(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == conn {
		s.disconnect()
	}
}

// assign starts computing a shard under its lease epoch, superseding (by
// cancellation) whatever stale lease was still in flight. A duplicate
// assign for the exact lease already running is ignored.
func (s *fleetSlot) assign(id, epoch int) {
	s.mu.Lock()
	if s.inEpoch == epoch && s.inShard == id {
		s.mu.Unlock()
		return
	}
	if s.cancel != nil {
		s.cancel()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.inShard, s.inEpoch = id, epoch
	s.mu.Unlock()
	go func() {
		defer cancel()
		s.job.rt.runShard(ctx, id, epoch, s)
		s.mu.Lock()
		if s.inShard == id && s.inEpoch == epoch {
			s.inShard, s.inEpoch = 0, 0
			s.cancel = nil
		}
		s.mu.Unlock()
	}()
}

// shutdown ends the slot, on drain or with the fleet: in-flight compute
// canceled, queued reports dropped (the supervisor that drained us has
// everything it needs), connection closed, beater halted.
func (s *fleetSlot) shutdown() {
	s.mu.Lock()
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
	}
	s.inShard, s.inEpoch = 0, 0
	s.queued = nil
	s.disconnect()
	s.mu.Unlock()
	s.b.halt()
}

// dropConn enacts the conn-drop chaos fault: close the supervisor
// connection while compute continues.
func (s *fleetSlot) dropConn() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disconnect()
}

// partition enacts the partition chaos fault: drop the connection and
// refuse re-handshakes fleet-wide for d.
func (s *fleetSlot) partition(d time.Duration) {
	s.fleet.refuse(d)
	s.dropConn()
}
