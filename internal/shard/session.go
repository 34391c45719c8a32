package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"

	"bitpacker/internal/fherr"
)

// session is one authenticated supervisor->member connection. Its
// stream ending says nothing about the worker behind it: a fleet member
// keeps computing through a disconnection, so the supervisor redials and
// re-adopts leases whose epoch still matches. Only a slot that owns its
// member's process (child) learns more.
type session struct {
	conn net.Conn
	enc  *json.Encoder
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
	sess := &session{conn: conn, enc: json.NewEncoder(conn)}
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

func (s *session) send(m Msg) error { return s.enc.Encode(m) }

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

// read pumps length-capped protocol lines through the hardened decoder
// into deliver until the stream ends, and returns why it did. A line that
// fails DecodeWorkerMessage ends it too: a peer that emits garbage is
// indistinguishable from a corrupt one, and the supervisor's death
// handling takes over.
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

// ReadMessage reads one hardened protocol message from a line stream —
// the same length cap and field validation on both ends of the socket: a
// network-exposed listener must never trust its peer's framing.
func ReadMessage(br *bufio.Reader) (Msg, error) {
	for {
		line, err := readCappedLine(br)
		if err != nil {
			return Msg{}, err
		}
		if len(line) == 0 {
			continue
		}
		return DecodeWorkerMessage(line)
	}
}

// readCappedLine reads one newline-terminated line, failing once it
// exceeds MaxLineBytes instead of buffering without bound.
func readCappedLine(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		chunk, err := br.ReadSlice('\n')
		line = append(line, chunk...)
		if len(line) > MaxLineBytes {
			return nil, fmt.Errorf("shard: protocol line exceeds %d bytes", MaxLineBytes)
		}
		switch err {
		case nil:
			return line[:len(line)-1], nil
		case bufio.ErrBufferFull:
			continue
		default:
			if len(line) > 0 && err == io.EOF {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
}
