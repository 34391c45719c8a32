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
// A fleet member outlives its connection: a dropped socket does not
// cancel in-flight compute. Completions reached while disconnected are
// queued on the slot and flushed — after a ready message reporting the
// slot's in-flight lease (epoch 0 = idle) — when the supervisor
// reconnects. Stale assignments (a lease the supervisor re-dispatched
// while partitioned) are simply superseded: a new assign cancels the old
// compute, and any late report from it carries the old epoch, which the
// supervisor's fence drops. A drain ends the slot: it is released, and
// the job's context with its last slot, so a standing member holds
// nothing for jobs that are over.
type Fleet struct {
	ln   net.Listener
	logf func(format string, args ...any)
	// only, when set, is the one exchange directory this member serves: a
	// spawned worker answers for the job it was forked for and refuses a
	// hello for any other, whoever finds its loopback port.
	only string

	mu          sync.Mutex
	jobs        map[string]*jobEntry  // "dir|fp" -> runtime, built once, held while a slot refers to it
	slots       map[string]*fleetSlot // "dir|fp|worker" -> slot state
	refuseUntil time.Time             // chaos partition: refuse handshakes until then
	closed      bool

	wg sync.WaitGroup
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

// Close stops accepting, drops every live connection, cancels in-flight
// compute, and waits for connection handlers to finish.
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
		sl.shutdown()
	}
	f.wg.Wait()
	return err
}

// refuse makes the fleet drop incoming handshakes for d (the chaos
// partition injector).
func (f *Fleet) refuse(d time.Duration) {
	f.mu.Lock()
	until := time.Now().Add(d)
	if until.After(f.refuseUntil) {
		f.refuseUntil = until
	}
	f.mu.Unlock()
}

func (f *Fleet) refusing() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return time.Now().Before(f.refuseUntil)
}

// slot returns the slot state for the hello's (dir, fingerprint,
// worker), creating it — beater already ticking — on first use.
func (f *Fleet) slot(hello shard.Msg) *fleetSlot {
	jobKey := fmt.Sprintf("%s|%d", hello.Dir, hello.Fingerprint)
	key := fmt.Sprintf("%s|%d", jobKey, hello.Worker)
	f.mu.Lock()
	defer f.mu.Unlock()
	sl := f.slots[key]
	if sl == nil {
		e := f.jobs[jobKey]
		if e == nil {
			e = &jobEntry{key: jobKey}
			f.jobs[jobKey] = e
		}
		e.refs++
		sl = &fleetSlot{fleet: f, key: key, job: e}
		beatMs := hello.BeatMs
		if beatMs <= 0 {
			beatMs = 250
		}
		sl.b = newBeater(sl, time.Duration(beatMs)*time.Millisecond)
		f.slots[key] = sl
	}
	return sl
}

// release ends a slot (drained, or rejected after attaching): compute
// canceled, beater halted, connection closed, entry deleted, and the
// job's runtime dropped with its last slot.
func (f *Fleet) release(sl *fleetSlot) {
	sl.shutdown()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.slots[sl.key] != sl {
		return
	}
	delete(f.slots, sl.key)
	if sl.job.refs--; sl.job.refs == 0 {
		delete(f.jobs, sl.job.key)
	}
}

// handle runs one supervisor connection: hardened hello handshake,
// fingerprint check, slot attach, context build, then the assign/drain
// read loop. The connection ending never cancels compute — only a drain
// or a superseding assign does.
func (f *Fleet) handle(conn net.Conn) {
	if f.refusing() {
		conn.Close()
		return
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	hello, err := shard.ReadMessage(br)
	if err != nil || hello.Type != shard.MsgHello {
		f.logf("worker: fleet: bad handshake from %s: %v", conn.RemoteAddr(), err)
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	var jf shard.JobFile
	if f.only != "" && hello.Dir != f.only {
		err = fmt.Errorf("worker: spawned for %s, not %s", f.only, hello.Dir)
	} else if jf, err = shard.ReadJobFile(hello.Dir); err == nil && jf.Fingerprint != hello.Fingerprint {
		err = fmt.Errorf("worker: job fingerprint %d on disk, supervisor claims %d", jf.Fingerprint, hello.Fingerprint)
	}
	if err != nil {
		f.logf("worker: fleet: reject %s: %v", conn.RemoteAddr(), err)
		fmt.Fprintf(conn, `{"t":%q,"err":%q}`+"\n", shard.MsgReject, err.Error())
		conn.Close()
		return
	}
	// Beats before the build: the slot's beater is ticking and attach hands
	// it the connection, so a cold member whose keygen outlasts the
	// heartbeat timeout cannot look like a hang.
	sl := f.slot(hello)
	sl.attach(conn)
	sl.job.once.Do(func() { sl.job.rt, sl.job.err = newRuntime(hello.Dir, jf) })
	if err := sl.job.err; err != nil {
		f.logf("worker: fleet: reject %s: %v", conn.RemoteAddr(), err)
		sl.send(shard.Msg{Type: shard.MsgReject, Err: err.Error()})
		f.release(sl)
		return
	}
	sl.ready()
	f.logf("worker: fleet: supervisor %s attached (dir=%s worker=%d)", conn.RemoteAddr(), hello.Dir, hello.Worker)
	for {
		m, err := shard.ReadMessage(br)
		if err != nil {
			sl.detach(conn)
			return
		}
		switch m.Type {
		case shard.MsgAssign:
			sl.assign(m.Shard, m.Epoch)
		case shard.MsgDrain:
			f.release(sl)
			return
		}
	}
}
