package main

import (
	"math/bits"
	"time"
)

// The reference is a fixed computation that belongs to the benchmark and
// calls nothing of the library: radix-2 butterfly passes with a Shoup
// multiplication modulo a 61-bit prime over a few rows of 8192 words —
// the instruction mix and footprint of the transforms every workload
// spends most of its time in. It is timed before and after every slice of
// a run and every set-up, on the processor the work runs on (run.sh pins
// the benchmark to one).
//
// Why: on the shared host this was sized on, something outside the
// virtual machine (in all likelihood another tenant's thread on the
// sibling hyperthread: a dependent multiply chain keeps its speed, dense
// butterflies lose up to half of theirs) slows the work for seconds to
// tens of minutes at a time. The reference slows with it, so each timing
// is scaled to what it would have read with the reference at its
// quiet-host time refQuietMs. The workloads are less sensitive than pure
// butterflies: when the reference takes twice as long, an inference or a
// served request takes about 1.7 times as long and a sharded job, which
// also spawns, waits and syncs files, 1.4 times. Each workload therefore
// names the share of a quiet reference time that it behaves as if it
// spent on work that does not slow down (workload.insensitive: least
// squares of latency on the reference over thirty runs in quiet and busy
// spells gave 0.47, 0.27, 0.37 and 1.25).
const (
	refQ       = 0x1fffffffffe00001 // prime, 61 bits
	refN       = 8192
	refRows    = 8
	refPasses  = 28
	refQuietMs = 37.0
)

// quietScale is the factor that takes a time measured while the
// reference read refMs to the time a quiet host would have shown, for
// work with the given insensitive share.
func quietScale(refMs, insensitive float64) float64 {
	c := insensitive * refQuietMs
	return (refQuietMs + c) / (refMs + c)
}

type reference struct {
	rows   [][]uint64
	w, wSh []uint64 // twiddles and their Shoup companions floor(w·2^64/q)
}

func newReference() *reference {
	r := &reference{w: make([]uint64, refN), wSh: make([]uint64, refN)}
	x := uint64(88172645463325252) // xorshift64: the same rows on every run
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % refQ
	}
	for i := 0; i < refRows; i++ {
		row := make([]uint64, refN)
		for j := range row {
			row[j] = next()
		}
		r.rows = append(r.rows, row)
	}
	for j := range r.w {
		r.w[j] = next()
		r.wSh[j], _ = bits.Div64(r.w[j], 0, refQ)
	}
	return r
}

// ms runs the reference once and returns how long it took.
func (r *reference) ms() float64 {
	t0 := time.Now()
	for pass := 0; pass < refPasses; pass++ {
		for _, a := range r.rows {
			for half, m := refN/2, 1; half >= 1; half, m = half/2, m*2 {
				for k := 0; k < m; k++ {
					w, wSh := r.w[m+k], r.wSh[m+k]
					for i := 2 * k * half; i < (2*k+1)*half; i++ {
						u, v := a[i], a[i+half]
						hi, _ := bits.Mul64(v, wSh)
						v = v*w - hi*refQ
						if v >= refQ {
							v -= refQ
						}
						s := u + v
						if s >= refQ {
							s -= refQ
						}
						d := u + refQ - v
						if d >= refQ {
							d -= refQ
						}
						a[i], a[i+half] = s, d
					}
				}
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
