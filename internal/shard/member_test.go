package shard

// The worker core's state x event table (DESIGN.md "The worker is one
// state machine"), one case per cell: the state is reached through the
// events that lead to it, the cell's event is stepped, and the actions
// and the state after are compared with the table's. A cell the table
// marks "–" cannot arrive (an assign or a compute with no session ever
// greeted, a build error after a build) and has no case. The schedule
// search (machine_test.go) steps the same core under the supervisor's;
// this table is where each rule is stated once.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

func TestMemberTable(t *testing.T) {
	var (
		att     = func(gen int) MemberEvent { return MemberEvent{Kind: MemberAttached, Gen: gen} }
		built   = MemberEvent{Kind: MemberBuilt}
		refused = MemberEvent{Kind: MemberBuilt, Err: errors.New("job program: unknown op")}
		assign  = func(gen, shard, epoch int) MemberEvent {
			return MemberEvent{Kind: MemberAssign, Gen: gen, Shard: shard, Epoch: epoch, Batch: []byte("in")}
		}
		drain    = MemberEvent{Kind: MemberDrain}
		progress = func(shard, step int) MemberEvent { return MemberEvent{Kind: MemberProgress, Shard: shard, Step: step} }
		done     = func(shard, epoch int) MemberEvent {
			return MemberEvent{Kind: MemberComputed, Shard: shard, Epoch: epoch, Batch: []byte("out")}
		}
		failed = func(shard, epoch int, class string) MemberEvent {
			return MemberEvent{Kind: MemberComputed, Shard: shard, Epoch: epoch, Err: errors.New("boom"), Class: class}
		}
		tick   = MemberEvent{Kind: MemberTick}
		closed = func(gen int) MemberEvent { return MemberEvent{Kind: MemberClosed, Gen: gen} }

		attached = []MemberEvent{att(1)}
		greeted  = []MemberEvent{att(1), built}
		leased   = []MemberEvent{att(1), built, assign(1, 2, 1)}
		detached = []MemberEvent{att(1), built, assign(1, 2, 1), closed(1)}
	)
	cases := []struct {
		cell   string
		setup  []MemberEvent
		ev     MemberEvent
		want   []string
		status string // after the step: session, greeted, built, lease, held, unread
	}{
		// fresh: no session has come, no runtime.
		{"fresh/attached", nil, att(1), nil, "g1 - - idle 0 0"},
		{"fresh/built", nil, built, nil, "g0 - built idle 0 0"},
		{"fresh/built-err", nil, refused, []string{"release"}, "released"},
		{"fresh/drain", nil, drain, []string{"release"}, "released"},
		{"fresh/tick", nil, tick, nil, "g0 - - idle 0 0"},
		{"fresh/closed", nil, closed(7), nil, "g0 - - idle 0 0"},

		// attached: a session, the runtime still building. Beats flow,
		// the ready waits.
		{"attached/attached", attached, att(2), []string{"close g1"}, "g2 - - idle 0 0"},
		{"attached/built", attached, built, []string{"g1 ready 0/0"}, "g1 greeted built idle 0 0"},
		{"attached/built-err", attached, refused, []string{"g1 reject", "close g1", "release"}, "released"},
		{"attached/drain", attached, drain, []string{"close g1", "release"}, "released"},
		{"attached/tick", attached, tick, []string{"g1 beat 0@0"}, "g1 - - idle 0 0"},
		{"attached/closed", attached, closed(1), []string{"close g1"}, "g0 - - idle 0 0"},

		// greeted: ready written; reports go out as they come.
		{"greeted/attached", leased, att(2), []string{"close g1", "g2 ready 2/1"}, "g2 greeted built 2/1 0 0"},
		{"greeted/attached-unread", append(leased, done(2, 1)), att(2),
			[]string{"close g1", "g2 ready 0/0", "g2 done 2/1"}, "g2 greeted built idle 0 1"},
		{"greeted/built", greeted, built, nil, "g1 greeted built idle 0 0"},
		{"greeted/assign", greeted, assign(1, 2, 1), []string{"exec 2/1"}, "g1 greeted built 2/1 0 0"},
		{"greeted/assign-same-lease", leased, assign(1, 2, 1), nil, "g1 greeted built 2/1 0 0"},
		{"greeted/assign-superseding", leased, assign(1, 3, 2), []string{"cancel", "exec 3/2"}, "g1 greeted built 3/2 0 0"},
		{"greeted/drain", leased, drain, []string{"cancel", "close g1", "release"}, "released"},
		{"greeted/progress", leased, progress(2, 1), []string{"g1 beat 2@1"}, "g1 greeted built 2/1 0 0"},
		{"greeted/tick", leased, tick, []string{"g1 beat 2@0"}, "g1 greeted built 2/1 0 0"},
		{"greeted/computed-done", leased, done(2, 1), []string{"g1 done 2/1"}, "g1 greeted built idle 0 1"},
		{"greeted/computed-fail", leased, failed(2, 1, ClassFault), []string{"g1 fail 2/1 fault"}, "g1 greeted built idle 0 1"},
		{"greeted/computed-superseded", append(leased, assign(1, 3, 2)), failed(2, 1, ClassCanceled),
			[]string{"g1 fail 2/1 canceled"}, "g1 greeted built 3/2 0 0"},
		{"greeted/closed", append(leased, done(2, 1)), closed(1), []string{"close g1"}, "g0 - built idle 1 0"},
		{"greeted/closed-after-assign", append(leased, done(2, 1), assign(1, 3, 2)), closed(1),
			[]string{"close g1"}, "g0 - built 3/2 0 0"},

		// detached: the runtime is built, the session gone; compute goes
		// on and its reports are held for the next ready.
		{"detached/attached", detached, att(2), []string{"g2 ready 2/1"}, "g2 greeted built 2/1 0 0"},
		{"detached/attached-held", append(detached, done(2, 1)), att(2),
			[]string{"g2 ready 0/0", "g2 done 2/1"}, "g2 greeted built idle 0 1"},
		{"detached/built", detached, built, nil, "g0 - built 2/1 0 0"},
		{"detached/drain", detached, drain, []string{"cancel", "release"}, "released"},
		{"detached/tick", detached, tick, nil, "g0 - built 2/1 0 0"},
		{"detached/progress", detached, progress(2, 2), nil, "g0 - built 2/1 0 0"},
		{"detached/computed-done", detached, done(2, 1), nil, "g0 - built idle 1 0"},
		{"detached/computed-canceled", detached, failed(2, 1, ClassCanceled), nil, "g0 - built idle 0 0"},
		{"detached/closed", detached, closed(1), nil, "g0 - built 2/1 0 0"},

		// released: nothing moves it.
		{"released/attached", []MemberEvent{drain}, att(1), nil, "released"},
		{"released/computed", append(leased, drain), done(2, 1), nil, "released"},
	}
	for _, tc := range cases {
		var m Member
		for _, ev := range tc.setup {
			m.Step(ev)
		}
		got := describeActions(m.Step(tc.ev))
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: actions %q, want %q", tc.cell, got, tc.want)
		}
		if s := m.status(); s != tc.status {
			t.Errorf("%s: state %q after, want %q", tc.cell, s, tc.status)
		}
	}
}

func describeActions(acts []MemberAction) []string {
	var out []string
	for _, a := range acts {
		var s string
		switch a.Kind {
		case MemberWrite:
			m := a.Msg
			switch m.Type {
			case MsgBeat:
				s = fmt.Sprintf("g%d beat %d@%d", a.Gen, m.Shard, m.Step)
			case MsgReject:
				s = fmt.Sprintf("g%d reject", a.Gen)
			default:
				s = fmt.Sprintf("g%d %s %d/%d", a.Gen, m.Type, m.Shard, m.Epoch)
				if m.Class != "" {
					s += " " + m.Class
				}
			}
		case MemberExec:
			s = fmt.Sprintf("exec %d/%d", a.Shard, a.Epoch)
		case MemberCancel:
			s = "cancel"
		case MemberClose:
			s = fmt.Sprintf("close g%d", a.Gen)
		case MemberRelease:
			s = "release"
		}
		out = append(out, s)
	}
	return out
}

// status is the core's state in the table's terms.
func (m *Member) status() string {
	if m.released {
		return "released"
	}
	greeted, built, lease := "-", "-", "idle"
	if m.greeted {
		greeted = "greeted"
	}
	if m.built {
		built = "built"
	}
	if m.epoch > 0 {
		lease = fmt.Sprintf("%d/%d", m.shard, m.epoch)
	}
	return fmt.Sprintf("g%d %s %s %s %d %d", m.gen, greeted, built, lease, len(m.queued), len(m.unread))
}
