//go:build race

package service

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of Puts, so allocation counts of the pooled send
// and receive paths mean nothing there.
const raceEnabled = true
