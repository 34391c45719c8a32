package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"time"

	"bitpacker/internal/fherr"
	"bitpacker/internal/frame"
)

// session is one authenticated supervisor->member connection. Its
// stream ending says nothing about the worker behind it: a fleet member
// keeps computing through a disconnection, so the supervisor redials and
// re-adopts leases whose epoch still matches. Only a slot that owns its
// member's process (child) learns more.
type session struct {
	conn    net.Conn
	timeout time.Duration // how long one send may take: a peer that reads nothing is as good as silent
}

// dial connects the slot to a member's address and sends the hello
// handshake. Failures are retryable engine faults: a refused or
// timed-out dial during a partition should be backed off and retried,
// not treated as a missing binary. ctx cuts a dial short when the Run is
// over.
func dial(ctx context.Context, opts Options, fingerprint uint64, slot int, addr string) (*session, error) {
	dialer := net.Dialer{Timeout: dialTimeoutFactor * opts.HeartbeatTimeout}
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fherr.Wrap(fherr.ErrEngineFault, "shard: dial worker %d: %v", slot, err)
	}
	sess := &session{conn: conn, timeout: opts.HeartbeatTimeout}
	if err := sess.send(Msg{
		Type:        MsgHello,
		Dir:         opts.Dir,
		Fingerprint: fingerprint,
		Worker:      slot,
		BeatMs:      int(opts.HeartbeatInterval.Milliseconds()),
	}); err != nil {
		conn.Close()
		return nil, fherr.Wrap(fherr.ErrEngineFault, "shard: dial worker %d: hello to %s: %v", slot, addr, err)
	}
	return sess, nil
}

func (s *session) send(m Msg) error {
	s.conn.SetWriteDeadline(time.Now().Add(s.timeout))
	return WriteMessage(s.conn, m)
}

// closeSend half-closes the supervisor->worker direction so a drained
// worker can finish its exit path.
func (s *session) closeSend() {
	if tc, ok := s.conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
}

// close drops the connection, which also ends read. It kills nothing: a
// fenced member that keeps computing is harmless — its stale-epoch done,
// batch and all, is dropped by the core.
func (s *session) close() { s.conn.Close() }

// read pumps protocol frames through the hardened decoder into deliver
// until the stream ends, and returns why it did. A frame that fails its
// checksum, DecodeWorkerMessage or the job's batch limit ends it too: a
// peer that emits garbage is indistinguishable from a corrupt one.
func (s *session) read(lim Limit, deliver func(Msg)) error {
	br := bufio.NewReaderSize(s.conn, 64<<10)
	for {
		m, err := ReadMessage(br, lim)
		if err != nil {
			return err
		}
		deliver(m)
	}
}

// WriteMessage sends one protocol message as one Meta frame, and an
// assign's or a done's batch as the Body frame after it. The batch is
// not copied: message, batch header and batch go out as one vectored
// write, a single writev on a socket, so concurrent writers of whole
// messages on one connection cannot interleave.
func WriteMessage(w io.Writer, m Msg) error {
	payload, _ := json.Marshal(m) // a Msg holds only strings and ints; Batch is not marshalled
	out := net.Buffers{frame.Append(nil, frame.Meta, payload)}
	if carriesBatch(m.Type) {
		head := frame.Header(frame.Body, m.Batch)
		out = append(out, head[:], m.Batch)
	}
	_, err := out.WriteTo(w)
	return err
}

// ReadMessage reads one hardened protocol message, with its batch under
// lim — the same frame bounds and field validation on both ends of the
// socket: a network-exposed listener must never trust its peer's framing.
func ReadMessage(r io.Reader, lim Limit) (Msg, error) {
	payload, err := frame.Expect(r, frame.Meta, MaxMsgBytes)
	if err != nil {
		return Msg{}, err
	}
	m, err := DecodeWorkerMessage(payload)
	if err == nil && carriesBatch(m.Type) {
		m.Batch, err = lim.ReadBatch(r, m.Shard)
	}
	return m, err
}
