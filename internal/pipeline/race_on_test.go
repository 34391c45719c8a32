//go:build race

package pipeline

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation allocates, so allocation counts under it mean nothing.
const raceEnabled = true
