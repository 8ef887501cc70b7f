//go:build race

package cmac

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of Puts, so allocation counts of the pooled
// crypto/aes path mean nothing there.
const raceEnabled = true
