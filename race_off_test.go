//go:build !race

package bitpacker

const raceEnabled = false
