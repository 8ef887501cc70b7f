//go:build race

package core

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of Puts, so allocation counts of the pooled
// batch entry points mean nothing there.
const raceEnabled = true
