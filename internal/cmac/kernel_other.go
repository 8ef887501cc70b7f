//go:build !amd64

package cmac

// The lane kernels are amd64 assembly; every other architecture takes
// the crypto/aes path.

func cmacLanes(*[BurstLanes]*laneKey, *[BurstLanes]*byte, int, *tailShape, *[BurstLanes][BlockSize]byte, int) {
	panic("cmac: no AES lane kernel on this architecture")
}

func hasAESNI() bool { return false }
