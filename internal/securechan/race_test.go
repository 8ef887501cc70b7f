//go:build race

package securechan

// raceEnabled reports a -race build, where crypto/ecdh runs instrumented
// and the kernel differentials take a smaller sample.
const raceEnabled = true
