package shard_test

// A framing relay for the TCP tests' link faults. It sits between the
// supervisor and in-process fleet members (the supervisor's Addrs point
// at it), reads every message in both directions with ReadMessage under
// the job's own batch bound and passes it on with WriteMessage, and at a
// chosen (shard, step) beat it does to the link what a network does:
// cuts it, cuts it and refuses new connections for a while, holds beats
// back for a while, delivers the next done twice, or delivers ahead of
// it a zombie's done one epoch older whose batch is the shard's input.
// The member behind it is the member that ships, unmodified: a fault of
// the link is the link's, not the worker's.

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"bitpacker"
	"bitpacker/internal/shard"
)

type linkFaultKind int

const (
	linkCut       linkFaultKind = iota + 1 // close both ends of the session
	linkPartition                          // close it, and refuse new connections for span
	linkHold                               // hold the member's beats back for span
	linkDupDone                            // deliver the shard's next done twice
	linkStaleDone                          // deliver ahead of it a copy one epoch older carrying the shard's input
)

// linkFault fires once per relay, at the first beat for shard at step
// (periodic beats say step 0).
type linkFault struct {
	kind        linkFaultKind
	shard, step int
	span        time.Duration
}

type relay struct {
	fault linkFault
	lim   func(dir string) shard.Limit

	mu     sync.Mutex
	fired  bool
	armed  bool           // a done fault waits for the shard's next done
	inputs map[int][]byte // each shard's input, from its assign
	conns  []net.Conn
}

// relayLink is the relay in front of one member.
type relayLink struct {
	r      *relay
	member string
	refuse time.Time // under r.mu
	hold   time.Time
}

// relayedOpts is fleetOpts with the relay in front of every member: a
// fault fires on whichever member's link carries its beat first.
func relayedOpts(t *testing.T, n int, ctx *bitpacker.Context, fault linkFault) bitpacker.ShardOptions {
	t.Helper()
	opts := fleetOpts(t, n)
	r := &relay{fault: fault, inputs: map[int][]byte{}, lim: func(dir string) shard.Limit {
		jf, _ := shard.ReadJobFile(dir) // a member refuses what the relay cannot read
		return shard.Limit{Counts: jf.Shards, CiphertextBytes: ctx.MaxCiphertextBytes()}
	}}
	var wg sync.WaitGroup
	var lns []net.Listener
	for i, member := range opts.Addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		opts.Addrs[i] = ln.Addr().String()
		link := &relayLink{r: r, member: member}
		wg.Add(1)
		go func() {
			defer wg.Done()
			link.serve(ln, &wg)
		}()
		lns = append(lns, ln)
	}
	t.Cleanup(func() {
		for _, ln := range lns {
			ln.Close()
		}
		r.mu.Lock()
		for _, c := range r.conns {
			c.Close()
		}
		r.mu.Unlock()
		wg.Wait()
	})
	return opts
}

func (l *relayLink) serve(ln net.Listener, wg *sync.WaitGroup) {
	for {
		sup, err := ln.Accept()
		if err != nil {
			return
		}
		l.r.mu.Lock()
		refused := time.Now().Before(l.refuse)
		l.r.mu.Unlock()
		if refused {
			sup.Close()
			continue
		}
		mem, err := net.Dial("tcp", l.member)
		if err != nil {
			sup.Close()
			continue
		}
		l.r.mu.Lock()
		l.r.conns = append(l.r.conns, sup, mem)
		l.r.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.session(sup, mem)
		}()
	}
}

// session relays one supervisor connection: the hello names the job,
// whose file gives the batch bound both directions are read under.
func (l *relayLink) session(sup, mem net.Conn) {
	defer sup.Close()
	defer mem.Close()
	supR := bufio.NewReader(sup)
	hello, err := shard.ReadMessage(supR, shard.Limit{})
	if err != nil || shard.WriteMessage(mem, hello) != nil {
		return
	}
	lim := l.r.lim(hello.Dir)
	go func() {
		for {
			m, err := shard.ReadMessage(supR, lim)
			if err != nil {
				// The supervisor is done sending (a drain's half-close, or
				// its end of the session): so is the relay.
				mem.(*net.TCPConn).CloseWrite()
				return
			}
			if m.Type == shard.MsgAssign {
				l.r.mu.Lock()
				l.r.inputs[m.Shard] = m.Batch
				l.r.mu.Unlock()
			}
			if shard.WriteMessage(mem, m) != nil {
				return
			}
		}
	}()
	memR := bufio.NewReader(mem)
	for {
		m, err := shard.ReadMessage(memR, lim)
		if err != nil {
			return
		}
		out, cut := l.pass(m)
		if cut {
			return
		}
		for _, o := range out {
			if shard.WriteMessage(sup, o) != nil {
				return
			}
		}
	}
}

// pass decides what a member's message becomes on the link, and whether
// the link is cut here.
func (l *relayLink) pass(m shard.Msg) (out []shard.Msg, cut bool) {
	r, f := l.r, l.r.fault
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	switch {
	case m.Type == shard.MsgBeat && !r.fired && m.Shard == f.shard && m.Step == f.step:
		r.fired = true
		switch f.kind {
		case linkCut:
			return nil, true
		case linkPartition:
			l.refuse = now.Add(f.span)
			return nil, true
		case linkHold:
			l.hold = now.Add(f.span)
		case linkDupDone, linkStaleDone:
			r.armed = true
		}
	case m.Type == shard.MsgDone && r.armed && m.Shard == f.shard:
		r.armed = false
		if f.kind == linkDupDone {
			return []shard.Msg{m, m}, false
		}
		zombie := m
		zombie.Epoch, zombie.Batch = m.Epoch-1, r.inputs[m.Shard]
		return []shard.Msg{zombie, m}, false
	}
	if m.Type == shard.MsgBeat && now.Before(l.hold) {
		return nil, false
	}
	return []shard.Msg{m}, false
}
