//go:build race

package ckks

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a quarter of all Puts on purpose, so allocation counts
// of pooled code mean nothing.
const raceEnabled = true
