package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the distance between the first and third quartile as a share
// of the median, by the rule the driver applies to a set of runs.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// exclusive method), which is what the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		pos := float64(k*(n+1)) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(3)
}

// tailPercentile picks the highest of p80/p90/p95/p99 that still has at
// least ten of n samples beyond it, or 0 when even p80 does not.
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90, 80} {
		if n*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// usage is a process-accounting snapshot: CPU consumed and peak resident
// memory, summed over this process, its reaped children, and the live
// child processes named (standing fleet members are not reaped until
// close, so getrusage alone would miss them).
type usage struct {
	cpu    time.Duration
	peakKB int64
}

func takeUsage(livePIDs []int) (usage, error) {
	var self, kids syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &self); err != nil {
		return usage{}, fmt.Errorf("getrusage: %w", err)
	}
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids); err != nil {
		return usage{}, fmt.Errorf("getrusage children: %w", err)
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	u := usage{cpu: tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)}
	child := int64(kids.Maxrss)
	for _, pid := range livePIDs {
		cpu, hwm, err := procUsage(pid)
		if err != nil {
			return usage{}, err
		}
		u.cpu += cpu
		if hwm > child {
			child = hwm
		}
	}
	// Largest process tree member on top of the generator itself: the
	// workers of one job run side by side with it, each about this big.
	u.peakKB = int64(self.Maxrss) + child
	return u, nil
}

// procUsage reads a live process's CPU time and peak RSS from /proc.
func procUsage(pid int) (cpu time.Duration, hwmKB int64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100/s on Linux).
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	cpu = time.Duration(ut+st) * (time.Second / 100)
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			hwmKB, _ = strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return cpu, hwmKB, nil
}
