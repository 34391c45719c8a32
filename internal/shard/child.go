package shard

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// child is a loopback fleet member the supervisor spawned for one slot:
// WorkerCommand started with EnvDir in its environment binds
// 127.0.0.1:0, prints the address on stdout, serves only that exchange
// directory, and exits when its stdin closes — so it cannot outlive the
// supervisor, even one that was killed. The supervisor talks to it over
// the same dialed session as to any member; owning the process adds what
// a socket cannot say: the exit status (a crash is known at once, no
// heartbeat or redial budget is spent on a dead pid), a pid to SIGKILL
// when it hangs, and the stderr tail for the crash log line.
type child struct {
	cmd    *exec.Cmd
	stdin  io.Closer
	stderr boundedBuf
	addr   chan string   // the announced address; closed empty if stdout ends first
	done   chan struct{} // closed once the process is reaped
	err    error         // exit status, valid after done
	reaped bool          // the driver's loop has seen done
}

// startChild spawns the slot's worker process. An error is a terminal
// environment problem (missing binary, not executable): deliberately NOT
// an engine fault, so the slot retires unretried, straight into degraded
// mode.
func startChild(opts Options, slot int) (*child, error) {
	argv := opts.WorkerCommand
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(append(os.Environ(), opts.WorkerEnv...), EnvDir+"="+opts.Dir)
	c := &child{cmd: cmd, addr: make(chan string, 1), done: make(chan struct{})}
	cmd.Stderr = &c.stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("shard: worker %d stdin: %w", slot, err)
	}
	c.stdin = stdin
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("shard: worker %d stdout: %w", slot, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("shard: spawn worker %d (%q): %w", slot, argv[0], err)
	}
	go func() {
		br := bufio.NewReader(stdout)
		if line, err := readCappedLine(br); err == nil {
			c.addr <- strings.TrimSpace(string(line))
		}
		close(c.addr)
		io.Copy(io.Discard, br) // os/exec: never Wait while the stdout pipe is being read
		c.err = cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// stop ends the child: closing stdin is its signal to exit; one that has
// not within grace — none, for a hung or fenced one — is SIGKILLed (which
// does nothing to a process already reaped).
func (c *child) stop(grace time.Duration) {
	c.stdin.Close()
	time.AfterFunc(grace, func() { c.cmd.Process.Kill() })
}

// boundedBuf retains the tail of worker stderr for crash diagnostics.
type boundedBuf struct {
	mu  sync.Mutex
	buf []byte
}

func (b *boundedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	b.buf = append(b.buf, p...)
	if len(b.buf) > 4096 {
		b.buf = b.buf[len(b.buf)-4096:]
	}
	b.mu.Unlock()
	return len(p), nil
}

func (b *boundedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}
