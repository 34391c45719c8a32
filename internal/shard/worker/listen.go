package worker

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"bitpacker/internal/shard"
)

// Fleet serves shard workers to dialing supervisors over TCP (`bpworker
// -listen addr`, or the loopback member a spawned worker is). Each
// accepted connection starts with a hello handshake naming the job
// exchange directory, the job fingerprint, and the worker slot; the fleet
// verifies the fingerprint against the job file on disk (rejecting a
// supervisor that tries to adopt it for a different job), then serves the
// ordinary assign/beat/done/fail protocol on the socket.
//
// Each slot is one core (shard.Member: its rules are in member.go) under
// one loop (fleetSlot). A fleet member outlives its connection: a dropped
// socket does not cancel in-flight compute, completions reached while
// disconnected are held and flushed after the ready that answers the
// supervisor's reconnect, and a new assign supersedes a stale one. A
// drain ends the slot: it is released, and the job's context with its
// last slot, so a standing member holds nothing for jobs that are over.
type Fleet struct {
	ln   net.Listener
	logf func(format string, args ...any)
	// only, when set, is the one exchange directory this member serves: a
	// spawned worker answers for the job it was forked for and refuses a
	// hello for any other, whoever finds its loopback port.
	only string

	mu     sync.Mutex
	jobs   map[string]*jobEntry  // "dir|fp" -> runtime, built once, held while a slot refers to it
	slots  map[string]*fleetSlot // "dir|fp|worker" -> slot
	gen    int                   // the last session generation handed out
	closed bool

	wg sync.WaitGroup // connection handlers, slot loops and their computes
}

// jobEntry is one job's runtime, shared by the member's slots for that
// job and built by whichever gets there first.
type jobEntry struct {
	key  string
	refs int // slots holding the entry; guarded by Fleet.mu
	once sync.Once
	rt   *runtime
	err  error
}

// Listen binds a fleet listener on addr ("host:port"; ":0" picks a
// port). Call Serve to accept supervisors; Addr reports the bound
// address. logf may be nil.
func Listen(addr string, logf func(format string, args ...any)) (*Fleet, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("worker: listen %s: %w", addr, err)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Fleet{
		ln:    ln,
		logf:  logf,
		jobs:  map[string]*jobEntry{},
		slots: map[string]*fleetSlot{},
	}, nil
}

// Addr is the bound listen address.
func (f *Fleet) Addr() string { return f.ln.Addr().String() }

// Serve accepts supervisor connections until Close. It returns nil after
// Close, else the accept error.
func (f *Fleet) Serve() error {
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			f.mu.Lock()
			closed := f.closed
			f.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.handle(conn)
		}()
	}
}

// Close stops accepting, ends every slot as a drain would — compute
// canceled, sessions closed — and waits for the connection handlers, the
// slots' loops and their computes to finish.
func (f *Fleet) Close() error {
	f.mu.Lock()
	f.closed = true
	slots := make([]*fleetSlot, 0, len(f.slots))
	for _, sl := range f.slots {
		slots = append(slots, sl)
	}
	f.mu.Unlock()
	err := f.ln.Close()
	for _, sl := range slots {
		sl.postEvent(shard.MemberEvent{Kind: shard.MemberDrain})
	}
	f.wg.Wait()
	return err
}

// slot returns the slot for the hello's (dir, fingerprint, worker),
// creating it — its loop already beating at the hello's period — on
// first use, and a fresh generation for the hello's session. It returns
// nil once the fleet is closed.
func (f *Fleet) slot(hello shard.Msg) (*fleetSlot, int) {
	jobKey := fmt.Sprintf("%s|%d", hello.Dir, hello.Fingerprint)
	key := fmt.Sprintf("%s|%d", jobKey, hello.Worker)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, 0
	}
	sl := f.slots[key]
	if sl == nil {
		e := f.jobs[jobKey]
		if e == nil {
			e = &jobEntry{key: jobKey}
			f.jobs[jobKey] = e
		}
		e.refs++
		sl = newSlot(f, key, e)
		f.slots[key] = sl
		f.wg.Add(1)
		go sl.run(time.Duration(hello.BeatMs) * time.Millisecond)
	}
	f.gen++
	return sl, f.gen
}

// release forgets a slot its core has released (drained, rejected, or
// the fleet closed), and the job's runtime with its last slot.
func (f *Fleet) release(sl *fleetSlot) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.slots, sl.key)
	if sl.job.refs--; sl.job.refs == 0 {
		delete(f.jobs, sl.job.key)
	}
}

// handle runs one supervisor connection: hardened hello handshake, beat
// period, directory and fingerprint checks, then the session is the
// slot's — attached, answered once the runtime is built — and this
// goroutine reads assign/drain off it until it ends. The connection
// ending never cancels compute: only a drain or a superseding assign
// does.
func (f *Fleet) handle(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	hello, err := shard.ReadMessage(br, shard.Limit{}) // no batch before the job is known
	if err != nil || hello.Type != shard.MsgHello {
		f.logf("worker: fleet: bad handshake from %s: %v", conn.RemoteAddr(), err)
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	var jf shard.JobFile
	if ms := hello.BeatMs; ms < int(shard.MinBeat/time.Millisecond) || ms > int(shard.MaxBeat/time.Millisecond) {
		// Compared in milliseconds: as a Duration a hostile period overflows.
		err = fmt.Errorf("worker: beat period of %d ms outside [%v, %v]", hello.BeatMs, shard.MinBeat, shard.MaxBeat)
	} else if f.only != "" && hello.Dir != f.only {
		err = fmt.Errorf("worker: spawned for %s, not %s", f.only, hello.Dir)
	} else if jf, err = shard.ReadJobFile(hello.Dir); err == nil && jf.Fingerprint != hello.Fingerprint {
		err = fmt.Errorf("worker: job fingerprint %d on disk, supervisor claims %d", jf.Fingerprint, hello.Fingerprint)
	}
	if err != nil {
		f.logf("worker: fleet: reject %s: %v", conn.RemoteAddr(), err)
		shard.WriteMessage(conn, shard.Msg{Type: shard.MsgReject, Err: err.Error()})
		conn.Close()
		return
	}
	// Beats before the build: the slot's loop is ticking and the session
	// is attached before the build starts, so a cold member whose keygen
	// outlasts the heartbeat timeout cannot look like a hang.
	sl, gen := f.slot(hello)
	if sl == nil || !sl.post(func() {
		sl.conns[gen] = conn
		sl.feed(shard.MemberEvent{Kind: shard.MemberAttached, Gen: gen})
	}) {
		conn.Close()
		return
	}
	sl.job.once.Do(func() { sl.job.rt, sl.job.err = newRuntime(hello.Dir, jf) })
	err = sl.job.err
	if !sl.postEvent(shard.MemberEvent{Kind: shard.MemberBuilt, Err: err}) {
		return
	}
	if err != nil {
		f.logf("worker: fleet: reject %s: %v", conn.RemoteAddr(), err)
		return
	}
	f.logf("worker: fleet: supervisor %s attached (dir=%s worker=%d)", conn.RemoteAddr(), hello.Dir, hello.Worker)
	for {
		m, err := shard.ReadMessage(br, sl.job.rt.lim)
		if err != nil {
			sl.postEvent(shard.MemberEvent{Kind: shard.MemberClosed, Gen: gen})
			return
		}
		switch m.Type {
		case shard.MsgAssign:
			sl.postEvent(shard.MemberEvent{Kind: shard.MemberAssign, Gen: gen, Shard: m.Shard, Epoch: m.Epoch, Batch: m.Batch})
		case shard.MsgDrain:
			sl.postEvent(shard.MemberEvent{Kind: shard.MemberDrain})
		}
	}
}
