//go:build race

package snapshot

// raceEnabled reports a -race build, where allocation counts mean nothing.
const raceEnabled = true
