package serve

// Schedule search over the scheduler's core (core.go) in virtual time:
// seeded random schedules, every schedule up to a small length over a
// small alphabet, a fuzz target over the same encoding and a checked-in
// corpus. The harness keeps its own book of the queue and checks every
// action against it. After every step: each accepted request is in at
// most one evaluate that answers it and each rejected one is answered
// once; at most one batch is in flight; a batch has at most MaxBatch
// members, all compatible with its seed, with distinct windows, and
// leaves no compatible request queued while it has room; the seed is the
// oldest queued request, except that a failed packed batch's members go
// next, alone; no batch flushes before its deadline unless full or
// closed or a queued request lies outside it, nor after it; no full batch
// waits; the evaluator is never idle while a queued request lies outside
// the open batch (work conservation); the queue never exceeds QueueDepth
// and a request is rejected only at depth; after close nothing is
// accepted, nothing waits, and finish comes exactly once. At the end of a
// schedule the harness closes the core and drains it, and every request
// must have been answered exactly once. A closed-loop model of the
// serving benchmark's tenants runs the core in virtual time on top.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

var coreEpoch = time.Unix(1_000_000, 0) // virtual time zero

const (
	coreSearchSeeds = 12000
	coreCorpusDir   = "testdata/fuzz/FuzzSchedulerCore"
	coreFlush       = 4 * time.Millisecond
)

// A schedule is two config bytes (MaxBatch, QueueDepth: 1 + b%8) then
// (op, arg) pairs: 'a' arrive with shape arg (window arg%8, op (arg/8)%2,
// level (arg/16)%2, scale (arg/32)%2), 't' advance the clock arg%10 ms
// (delivering every armed deadline on the way at its exact time), 'd' the
// batch in flight succeeds, 'f' it fails, 'c' close. A done with nothing
// in flight is skipped; any other op byte is ignored.

type coreWorld struct {
	c               *core
	maxBatch, depth int
	now             time.Time
	timers          []time.Time // armed deadlines not yet delivered

	queue    []*evalRequest // the harness's book: accepted, not yet evaluated, oldest first
	owed     []*evalRequest // a failed packed batch's members, each owed a solo evaluate
	inFlight *action
	waiting  bool      // queue[0] seeds an open batch
	openedAt time.Time // when it became the seed

	answered                     map[*evalRequest]int
	reqs                         []*evalRequest
	accepted, busy, failedPacked int64
	closed                       bool
	finishes                     int

	fail  string
	trace []string
	steps int
}

func newCoreWorld(maxBatch, depth int) *coreWorld {
	return &coreWorld{
		c:        newCore(maxBatch, depth, coreFlush),
		maxBatch: maxBatch,
		depth:    depth,
		now:      coreEpoch,
		answered: map[*evalRequest]int{},
	}
}

func (w *coreWorld) failf(format string, args ...any) {
	if w.fail == "" {
		w.fail = fmt.Sprintf(format, args...)
	}
}

func shapeOf(r *evalRequest) string {
	return fmt.Sprintf("%s/L%d/S%g/w%d", r.op, r.level, r.scale, r.tenant.window)
}

// fits is the harness's own compatibility rule, kept apart from core.go's
// so that a mutation there cannot hide here: r may join a batch seeded by
// head whose members hold windows.
func fits(head, r *evalRequest, windows map[int]bool) bool {
	return r.op == head.op && r.level == head.level && r.scale == head.scale && !windows[r.tenant.window]
}

// deliver feeds one event at the current time and checks what comes back.
func (w *coreWorld) deliver(ev event) {
	ev.now = w.now
	w.steps++
	acts := w.c.step(ev)
	var line strings.Builder
	fmt.Fprintf(&line, "%8v %s ->", w.now.Sub(coreEpoch), [...]string{"arrive", "tick", "done", "close"}[ev.kind])
	if ev.kind == evArrive {
		fmt.Fprintf(&line, " [%s]", shapeOf(ev.req))
	}
	if ev.kind == evDone && ev.failed {
		line.WriteString(" (failed)")
	}
	if ev.kind == evArrive && !slices.ContainsFunc(acts, func(a action) bool { return a.kind == actReject }) {
		if w.closed {
			w.failf("a request was accepted after close")
		}
		w.accepted++
		w.queue = append(w.queue, ev.req)
	}
	for _, a := range acts {
		switch a.kind {
		case actReject:
			fmt.Fprintf(&line, " reject(%v)", a.err)
			w.reject(ev, a)
		case actEvaluate:
			fmt.Fprintf(&line, " evaluate%v", a.batchShapes())
			w.evaluate(a)
		case actArm:
			fmt.Fprintf(&line, " arm(+%v)", a.deadline.Sub(w.now))
			if !a.deadline.After(w.now) {
				w.failf("armed a deadline that is not in the future")
			}
			w.timers = append(w.timers, a.deadline)
		case actFinish:
			line.WriteString(" finish")
			w.finishes++
			if w.finishes > 1 {
				w.failf("finish emitted twice")
			}
			if !w.closed || len(w.queue) > 0 || len(w.owed) > 0 || w.inFlight != nil {
				w.failf("finish with work left (closed %v, queued %d, owed %d, in flight %v)", w.closed, len(w.queue), len(w.owed), w.inFlight != nil)
			}
		}
	}
	w.trace = append(w.trace, line.String())
	w.checkRest()
}

func (a action) batchShapes() []string {
	out := make([]string, len(a.batch))
	for i, r := range a.batch {
		out[i] = shapeOf(r)
	}
	return out
}

func (w *coreWorld) reject(ev event, a action) {
	switch {
	case ev.kind != evArrive || a.req != ev.req:
		w.failf("rejected a request that was not arriving")
	case w.closed:
		if a.err != ErrShutdown {
			w.failf("rejection after close is %v, want ErrShutdown", a.err)
		}
	case len(w.queue) < w.depth:
		w.failf("rejected at depth %d of %d", len(w.queue), w.depth)
	case a.err != ErrBusy:
		w.failf("rejection at depth is %v, want ErrBusy", a.err)
	default:
		w.busy++
	}
	w.answered[a.req]++
}

func (w *coreWorld) evaluate(a action) {
	b := a.batch
	if w.inFlight != nil {
		w.failf("a second batch released while one is in flight")
	}
	w.inFlight = &a
	if len(b) == 0 || len(b) > w.maxBatch {
		w.failf("batch of %d with MaxBatch %d", len(b), w.maxBatch)
		return
	}
	if len(w.owed) > 0 {
		if len(b) != 1 || b[0] != w.owed[0] {
			w.failf("after a packed failure the next evaluate must be its next member alone, final")
		}
		w.owed = w.owed[1:]
		return
	}
	queue := w.queue
	if len(queue) == 0 || b[0] != queue[0] {
		w.failf("seed %s is not the oldest queued request", shapeOf(b[0]))
	}
	head, windows := b[0], map[int]bool{}
	for _, r := range b {
		if !slices.Contains(queue, r) {
			w.failf("batch member %s was not queued", shapeOf(r))
		}
		if !fits(head, r, windows) {
			w.failf("batch member %s does not fit seed %s", shapeOf(r), shapeOf(head))
		}
		windows[r.tenant.window] = true
	}
	rest := slices.DeleteFunc(slices.Clone(queue), func(r *evalRequest) bool { return slices.Contains(b, r) })
	if len(b) < w.maxBatch {
		for _, r := range rest {
			if fits(head, r, windows) {
				w.failf("batch of %d left compatible %s queued", len(b), shapeOf(r))
			}
		}
	}
	deadline := w.now.Add(coreFlush)
	if w.waiting {
		deadline = w.openedAt.Add(coreFlush)
	}
	switch {
	case w.now.After(deadline):
		w.failf("batch flushed %v after its deadline", w.now.Sub(deadline))
	case w.now.Before(deadline) && len(b) < w.maxBatch && !w.closed && len(rest) == 0:
		w.failf("batch of %d flushed %v before its deadline with nothing queued outside it", len(b), deadline.Sub(w.now))
	}
	w.queue, w.waiting = rest, false
}

// done finishes the batch in flight.
func (w *coreWorld) done(failed bool) {
	a := w.inFlight
	if a == nil {
		return
	}
	w.inFlight = nil
	if failed && len(a.batch) > 1 {
		w.failedPacked++
		w.owed = slices.Clone(a.batch)
	} else {
		for _, r := range a.batch {
			w.answered[r]++
		}
	}
	w.deliver(event{kind: evDone, failed: failed})
}

// checkRest holds between steps.
func (w *coreWorld) checkRest() {
	if len(w.queue) > w.depth {
		w.failf("queue holds %d, depth %d", len(w.queue), w.depth)
	}
	idle := w.inFlight == nil && len(w.owed) == 0
	if w.closed && idle && (len(w.queue) > 0 || w.finishes != 1) {
		w.failf("closed and idle with %d queued and %d finishes", len(w.queue), w.finishes)
	}
	if !idle || len(w.queue) == 0 {
		return
	}
	if !w.waiting {
		w.waiting, w.openedAt = true, w.now
	}
	deadline := w.openedAt.Add(coreFlush)
	if !w.now.Before(deadline) {
		w.failf("a batch is still waiting %v after its deadline", w.now.Sub(deadline))
	}
	if !slices.Contains(w.timers, deadline) {
		w.failf("a batch waits with no deadline armed")
	}
	n := riders(w.queue)
	if n >= w.maxBatch {
		w.failf("a full batch of %d waits", n)
	}
	if n < len(w.queue) {
		w.failf("the evaluator idles while %d queued requests lie outside the open batch", len(w.queue)-n)
	}
}

// riders counts the queued requests that fit the batch the oldest one
// seeds, MaxBatch aside; the rest lie outside it.
func riders(queue []*evalRequest) int {
	head, windows, n := queue[0], map[int]bool{}, 0
	for _, r := range queue {
		if fits(head, r, windows) {
			windows[r.tenant.window] = true
			n++
		}
	}
	return n
}

// advance moves the clock by d, delivering every armed deadline on the
// way at its exact time, then a tick at the end.
func (w *coreWorld) advance(d time.Duration) {
	end := w.now.Add(d)
	for w.fail == "" {
		slices.SortFunc(w.timers, time.Time.Compare)
		if len(w.timers) == 0 || w.timers[0].After(end) {
			break
		}
		w.now, w.timers = w.timers[0], w.timers[1:]
		w.deliver(event{kind: evTick})
	}
	w.now = end
	w.deliver(event{kind: evTick})
}

func (w *coreWorld) op(code, arg byte) {
	if w.fail != "" {
		return
	}
	switch code {
	case 'a':
		r := &evalRequest{
			tenant: &tenant{window: int(arg % 8)},
			op:     [...]string{OpSquare, OpNegate}[arg/8%2],
			level:  int(arg / 16 % 2),
			scale:  float64(40 + arg/32%2),
		}
		w.reqs = append(w.reqs, r)
		w.deliver(event{kind: evArrive, req: r})
	case 't':
		w.advance(time.Duration(arg%10) * time.Millisecond)
	case 'd', 'f':
		w.done(code == 'f')
	case 'c':
		w.closed = true
		w.deliver(event{kind: evClose})
	}
}

// runCoreSchedule runs a schedule, then closes and drains the core and
// checks that every request was answered exactly once and that the
// counters agree with the harness's book.
func runCoreSchedule(sched []byte) *coreWorld {
	if len(sched) < 2 {
		sched = append(sched, 0, 0)[:2]
	}
	w := newCoreWorld(1+int(sched[0]%8), 1+int(sched[1]%8))
	for i := 2; i+1 < len(sched) && w.fail == ""; i += 2 {
		w.op(sched[i], sched[i+1])
	}
	w.op('c', 0)
	for n := 0; w.fail == "" && w.finishes == 0; n++ {
		if n > 1000 {
			w.failf("closed core never finished")
			break
		}
		if w.inFlight != nil {
			w.done(false)
		} else {
			w.advance(coreFlush)
		}
	}
	if w.fail != "" {
		return w
	}
	for _, r := range w.reqs {
		if w.answered[r] != 1 {
			w.failf("request %s answered %d times", shapeOf(r), w.answered[r])
		}
	}
	s := w.c.stats
	if s.Submitted != w.accepted || s.Rejected != w.busy || s.Fallbacks != w.failedPacked || s.PackedReqs+s.SoloEvals != w.accepted {
		w.failf("stats %+v disagree with the book: accepted %d, busy %d, failed packed %d", s, w.accepted, w.busy, w.failedPacked)
	}
	return w
}

// seededCoreSchedule expands a seed into a schedule: a random config and
// eight tenants, one per window, most of them of one shape; then mostly
// arrivals (mostly tenants in turn, as closed loops send), ticks and successful
// dones, with a failure now and then and a rare close.
func seededCoreSchedule(seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 0xc0e))
	sched := []byte{byte(rng.IntN(8)), byte(rng.IntN(8))}
	var shapes [8]byte
	for i := range shapes {
		shapes[i] = byte(i)
		if rng.IntN(6) == 0 {
			shapes[i] += byte(8 * (1 + rng.IntN(7)))
		}
	}
	const ops = "aaaaaaaaaaatttttddddddf"
	next := 0
	for n := 10 + rng.IntN(150); n > 0; n-- {
		code, arg := ops[rng.IntN(len(ops))], byte(rng.IntN(10))
		switch {
		case rng.IntN(200) == 0:
			code = 'c'
		case code == 'a' && rng.IntN(4) > 0:
			arg, next = shapes[next%8], next+1
		case code == 'a':
			arg = shapes[rng.IntN(8)]
		}
		sched = append(sched, code, arg)
	}
	return sched
}

// failOnCore reports an invariant violation with the command that replays
// it; a searched schedule is first filed in the corpus under fileAs.
func failOnCore(t testing.TB, w *coreWorld, sched []byte, fileAs string) {
	t.Helper()
	if w.fail == "" {
		return
	}
	run := t.Name()
	if fileAs != "" {
		run = "FuzzSchedulerCore/" + fileAs
		file := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", sched)
		if err := os.WriteFile(filepath.Join(coreCorpusDir, fileAs), []byte(file), 0o644); err != nil {
			t.Logf("could not file the schedule %q: %v", sched, err)
		}
	}
	tail := w.trace
	if len(tail) > 40 {
		tail = tail[len(tail)-40:]
	}
	t.Fatalf("invariant violated: %s\nreplay: go test ./internal/serve -run '^%s$'\nlast steps:\n%s", w.fail, run, strings.Join(tail, "\n"))
}

func TestSchedulerCoreSeededSearch(t *testing.T) {
	seeds := uint64(coreSearchSeeds)
	if testing.Short() {
		seeds /= 6
	}
	start, steps := time.Now(), 0
	var reached SchedStats
	for seed := uint64(1); seed <= seeds; seed++ {
		sched := seededCoreSchedule(seed)
		w := runCoreSchedule(sched)
		failOnCore(t, w, sched, fmt.Sprintf("search-seed-%d", seed))
		steps += w.steps
		s := w.c.stats
		reached.Rejected += s.Rejected
		reached.PackedBatches += s.PackedBatches
		reached.SoloEvals += s.SoloEvals
		reached.Fallbacks += s.Fallbacks
		reached.MaxBatch = max(reached.MaxBatch, s.MaxBatch)
	}
	t.Logf("%d schedules, %d steps in %v; reached %+v", seeds, steps, time.Since(start).Round(time.Millisecond), reached)
	if reached.Rejected == 0 || reached.PackedBatches == 0 || reached.SoloEvals == 0 || reached.Fallbacks == 0 || reached.MaxBatch != 8 {
		t.Errorf("the search did not reach every outcome: %+v", reached)
	}
}

// TestSchedulerCoreExhaustive runs every schedule up to a small length
// over an alphabet that covers two compatible windows, a colliding
// window, an incompatible op, a tick inside and one past the flush
// interval, a success, a failure and close.
func TestSchedulerCoreExhaustive(t *testing.T) {
	alphabet := []string{"a\x00", "a\x01", "a\x08", "t\x02", "t\x05", "d\x00", "f\x00", "c\x00"}
	configs := []struct {
		maxBatch, depth byte
		length          int
	}{{0, 0, 5}, {1, 1, 5}, {1, 2, 5}, {2, 2, 5}}
	runs := 0
	for _, cfg := range configs {
		length := cfg.length
		if testing.Short() {
			length--
		}
		idx := make([]int, length)
		for {
			sched := []byte{cfg.maxBatch, cfg.depth}
			for _, i := range idx {
				sched = append(sched, alphabet[i]...)
			}
			failOnCore(t, runCoreSchedule(sched), sched, "exhaustive-"+strconv.Itoa(runs))
			runs++
			p := len(idx) - 1
			for ; p >= 0; p-- {
				if idx[p]++; idx[p] < len(alphabet) {
					break
				}
				idx[p] = 0
			}
			if p < 0 {
				break
			}
		}
	}
	t.Logf("%d schedules", runs)
}

// FuzzSchedulerCore: input bytes are a schedule. Every corpus file,
// checked in or filed by a failure, replays as the subtest of its name.
func FuzzSchedulerCore(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seededCoreSchedule(seed))
	}
	f.Fuzz(func(t *testing.T, sched []byte) {
		if len(sched) > 4096 {
			return
		}
		failOnCore(t, runCoreSchedule(sched), nil, "")
	})
}

// TestSchedulerCoreCorpus runs the checked-in corpus as scenarios, each
// with the counters it must show.
func TestSchedulerCoreCorpus(t *testing.T) {
	want := map[string]SchedStats{
		"pack-full":        {Submitted: 3, PackedBatches: 1, PackedReqs: 3, MaxBatch: 3},
		"pack-deadline":    {Submitted: 2, PackedBatches: 1, PackedReqs: 2, MaxBatch: 2},
		"window-collision": {Submitted: 2, SoloEvals: 2},
		"depth-reject":     {Submitted: 2, Rejected: 1, PackedBatches: 1, PackedReqs: 2, MaxBatch: 2},
		"fallback":         {Submitted: 3, PackedBatches: 0, SoloEvals: 3, Fallbacks: 1},
		"close-flushes":    {Submitted: 1, SoloEvals: 1},
		// A queued outsider flushes the open batch at once, and a seed
		// alone with others queued behind it goes without waiting.
		"flush-for-outsider": {Submitted: 4, PackedBatches: 1, PackedReqs: 2, SoloEvals: 2, MaxBatch: 2},
		"solo-no-wait":       {Submitted: 3, SoloEvals: 3},
	}
	entries, err := os.ReadDir(coreCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Run(e.Name(), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(coreCorpusDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
			if len(lines) != 2 || string(lines[0]) != "go test fuzz v1" {
				t.Fatal("not a one-argument fuzz corpus file")
			}
			arg := strings.TrimSuffix(strings.TrimPrefix(string(lines[1]), "[]byte("), ")")
			s, err := strconv.Unquote(arg)
			if err != nil {
				t.Fatal(err)
			}
			w := runCoreSchedule([]byte(s))
			failOnCore(t, w, nil, "")
			if exp, ok := want[e.Name()]; ok && w.c.stats != exp {
				t.Errorf("stats %+v, want %+v\n%s", w.c.stats, exp, strings.Join(w.trace, "\n"))
			}
		})
	}
}

// TestSchedulerCoreClosedLoop runs the core under the serving benchmark's
// shape (serve_mix) in virtual time: six tenants that pack (one op,
// level and scale, windows 0-5) and two that pack with no one, each
// sending its next request a fixed turnaround after its reply. A batch
// costs a fixed shared part plus a part per member. The evaluator must
// never be idle while a request waits outside the open batch, and the
// virtual mean latency and mean batch size are pinned: a policy change
// moves them on purpose or not at all.
func TestSchedulerCoreClosedLoop(t *testing.T) {
	const (
		tenants    = 8
		flush      = 3 * time.Millisecond
		shared     = 4 * time.Millisecond // the op on the packed ciphertext
		perMember  = time.Millisecond     // one member's pack add and extraction
		turnaround = time.Millisecond     // a tenant's check of its reply and its next request
		replies    = 4000
		wantMean   = "18.986 ms"
		wantBatch  = "2.667"
	)
	shapes := [tenants]string{OpQuartic, OpQuartic, OpQuartic, OpQuartic, OpQuartic, OpQuartic, OpScale, OpSquare}
	c := newCore(tenants, 4*tenants, flush)
	var (
		now      = coreEpoch
		sendAt   [tenants]time.Time // a tenant's next request; zero while it waits for a reply
		sentAt   = map[*evalRequest]time.Time{}
		queued   []*evalRequest // the model's own book, oldest first
		timers   []time.Time
		inFlight []*evalRequest
		doneAt   time.Time
		cost     time.Duration

		busy, latency                time.Duration
		answered, batches, idleSteps int
	)
	for i := range sendAt {
		sendAt[i] = coreEpoch
	}
	apply := func(acts []action) {
		for _, a := range acts {
			switch a.kind {
			case actReject:
				t.Fatalf("at %v: request rejected (%v)", now.Sub(coreEpoch), a.err)
			case actArm:
				timers = append(timers, a.deadline)
			case actEvaluate:
				cost = shared + time.Duration(len(a.batch))*perMember
				inFlight, doneAt = a.batch, now.Add(cost)
				queued = slices.DeleteFunc(queued, func(r *evalRequest) bool { return slices.Contains(a.batch, r) })
			}
		}
		if inFlight == nil && len(queued) > 0 && riders(queued) < len(queued) {
			idleSteps++
		}
	}
	for answered < replies {
		// The next event in virtual time; at a tie a reply comes first,
		// then arrivals in tenant order, then a deadline.
		next, arrival := time.Time{}, -1
		if inFlight != nil {
			next = doneAt
		}
		for i := range sendAt {
			if !sendAt[i].IsZero() && (next.IsZero() || sendAt[i].Before(next)) {
				next, arrival = sendAt[i], i
			}
		}
		slices.SortFunc(timers, time.Time.Compare)
		if len(timers) > 0 && (next.IsZero() || timers[0].Before(next)) {
			next, arrival = timers[0], -1
		}
		now = next
		switch {
		case inFlight != nil && !doneAt.After(now):
			for _, r := range inFlight {
				latency += now.Sub(sentAt[r])
				answered++
				sendAt[r.tenant.window] = now.Add(turnaround)
			}
			inFlight, busy, batches = nil, busy+cost, batches+1
			apply(c.step(event{kind: evDone, now: now}))
		case arrival >= 0:
			r := &evalRequest{tenant: &tenant{window: arrival}, op: shapes[arrival], level: 1, scale: 40}
			sentAt[r], sendAt[arrival] = now, time.Time{}
			queued = append(queued, r)
			apply(c.step(event{kind: evArrive, req: r, now: now}))
		default:
			timers = timers[1:]
			apply(c.step(event{kind: evTick, now: now}))
		}
	}
	mean := fmt.Sprintf("%.3f ms", float64(latency)/float64(answered)/float64(time.Millisecond))
	batch := fmt.Sprintf("%.3f", float64(answered)/float64(batches))
	t.Logf("%d replies in %v of virtual time: mean latency %s, mean batch %s, evaluator busy %.1f %%",
		answered, now.Sub(coreEpoch), mean, batch, 100*float64(busy)/float64(now.Sub(coreEpoch)))
	if idleSteps > 0 {
		t.Errorf("after %d steps the evaluator was idle while a request waited outside the open batch", idleSteps)
	}
	if mean != wantMean || batch != wantBatch {
		t.Errorf("mean latency %s and mean batch %s, pinned at %s and %s", mean, batch, wantMean, wantBatch)
	}
}
