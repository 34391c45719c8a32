package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"

	"bitpacker/internal/fherr"
	"bitpacker/internal/frame"
)

// session is one authenticated supervisor->member connection. Its
// stream ending says nothing about the worker behind it: a fleet member
// keeps computing through a disconnection, so the supervisor redials and
// re-adopts leases whose epoch still matches. Only a slot that owns its
// member's process (child) learns more.
type session struct {
	conn net.Conn
}

// dial connects the slot to a member's address and sends the hello
// handshake. Failures are retryable engine faults: a refused or
// timed-out dial during a partition should be backed off and retried,
// not treated as a missing binary. ctx cuts a dial short when the Run is
// over.
func dial(ctx context.Context, opts Options, slot int, addr string) (*session, error) {
	dialer := net.Dialer{Timeout: dialTimeoutFactor * opts.HeartbeatTimeout}
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fherr.Wrap(fherr.ErrEngineFault, "shard: dial worker %d: %v", slot, err)
	}
	sess := &session{conn: conn}
	if err := sess.send(Msg{
		Type:        MsgHello,
		Dir:         opts.Dir,
		Fingerprint: opts.Fingerprint,
		Worker:      slot,
		BeatMs:      int(opts.HeartbeatInterval.Milliseconds()),
	}); err != nil {
		conn.Close()
		return nil, fherr.Wrap(fherr.ErrEngineFault, "shard: dial worker %d: hello to %s: %v", slot, addr, err)
	}
	return sess, nil
}

func (s *session) send(m Msg) error { return WriteMessage(s.conn, m) }

// closeSend half-closes the supervisor->worker direction so a drained
// worker can finish its exit path.
func (s *session) closeSend() {
	if tc, ok := s.conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
}

// close drops the connection, which also ends read. It kills nothing: a
// fenced member that keeps computing is harmless — its stale-epoch output
// is rejected.
func (s *session) close() { s.conn.Close() }

// read pumps protocol frames through the hardened decoder into deliver
// until the stream ends, and returns why it did. A frame that fails its
// checksum or DecodeWorkerMessage ends it too: a peer that emits garbage
// is indistinguishable from a corrupt one.
func (s *session) read(deliver func(Msg)) error {
	br := bufio.NewReaderSize(s.conn, 64<<10)
	for {
		m, err := ReadMessage(br)
		if err != nil {
			return err
		}
		deliver(m)
	}
}

// WriteMessage sends one protocol message as one Meta frame.
func WriteMessage(w io.Writer, m Msg) error {
	payload, _ := json.Marshal(m) // a Msg holds only strings and ints
	return frame.Write(w, frame.Meta, payload)
}

// ReadMessage reads one hardened protocol message — the same frame bound
// and field validation on both ends of the socket: a network-exposed
// listener must never trust its peer's framing.
func ReadMessage(r io.Reader) (Msg, error) {
	payload, err := frame.Expect(r, frame.Meta, MaxMsgBytes)
	if err != nil {
		return Msg{}, err
	}
	return DecodeWorkerMessage(payload)
}
