//go:build race

package scenario

// raceEnabled reports a -race build, where allocation counts mean nothing.
const raceEnabled = true
