//go:build !amd64

package securechan

// The ladder kernels are amd64 assembly; every other architecture takes
// crypto/ecdh.

func ladder(*ladderState)  { panic("securechan: no X25519 kernel on this architecture") }
func feMul(*fe, *fe, *fe)  { panic("securechan: no X25519 kernel on this architecture") }
func feSqrN(*fe, *fe, int) { panic("securechan: no X25519 kernel on this architecture") }
func ladder4(*laneState)   { panic("securechan: no X25519 kernel on this architecture") }

func hasMulxAdx() bool { return false }
func hasIFMA() bool    { return false }
