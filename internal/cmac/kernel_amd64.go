package cmac

// cmac8, cmac4, cmac2 and cmac1 compute the CMACs of the first 8, 4, 2
// or 1 lanes: lane i runs the message at msg[i] under *lk[i], its head
// leading bytes (a multiple of BlockSize) block by block and then the
// final block shape describes, and writes the CMAC to mac[i]. The rest
// of mac is left alone. Every lane a kernel covers must have valid
// pointers, and a message at least a block long.
//
//go:noescape
func cmac8(lk *[BurstLanes]*laneKey, msg *[BurstLanes]*byte, head int, shape *tailShape, mac *[BurstLanes][BlockSize]byte)

//go:noescape
func cmac4(lk *[BurstLanes]*laneKey, msg *[BurstLanes]*byte, head int, shape *tailShape, mac *[BurstLanes][BlockSize]byte)

//go:noescape
func cmac2(lk *[BurstLanes]*laneKey, msg *[BurstLanes]*byte, head int, shape *tailShape, mac *[BurstLanes][BlockSize]byte)

//go:noescape
func cmac1(lk *[BurstLanes]*laneKey, msg *[BurstLanes]*byte, head int, shape *tailShape, mac *[BurstLanes][BlockSize]byte)

// cmacLanes runs the lane kernel of the given width: 8, 4, 2 or 1
// (laneWidth).
func cmacLanes(lk *[BurstLanes]*laneKey, msg *[BurstLanes]*byte, head int, shape *tailShape, mac *[BurstLanes][BlockSize]byte, width int) {
	switch width {
	case 8:
		cmac8(lk, msg, head, shape, mac)
	case 4:
		cmac4(lk, msg, head, shape, mac)
	case 2:
		cmac2(lk, msg, head, shape, mac)
	default:
		cmac1(lk, msg, head, shape, mac)
	}
}

// cpuidECX returns ECX of CPUID leaf leaf, subleaf 0.
func cpuidECX(leaf uint32) uint32

// hasAESNI reports whether the CPU has the instructions the lane
// kernels use beyond SSE2: AES-NI (CPUID.01H:ECX bit 25) and SSSE3's
// PSHUFB (bit 9), which every AES-NI CPU also has.
func hasAESNI() bool {
	const ssse3, aes = 1 << 9, 1 << 25
	return cpuidECX(1)&(ssse3|aes) == ssse3|aes
}
