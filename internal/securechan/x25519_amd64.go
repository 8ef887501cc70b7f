package securechan

// ladder runs the Montgomery ladder over st (see x25519_amd64.s).
//
//go:noescape
func ladder(st *ladderState)

// feMul sets z = x·y.
//
//go:noescape
func feMul(z, x, y *fe)

// feSqrN sets z = x^(2^n), n ≥ 1.
//
//go:noescape
func feSqrN(z, x *fe, n int)

// ladder4 runs the 4-lane Montgomery ladder over st (see
// x25519_lanes_amd64.s).
//
//go:noescape
func ladder4(st *laneState)

// cpuid returns EBX and ECX of CPUID leaf leaf, subleaf 0.
func cpuid(leaf uint32) (ebx, ecx uint32)

// xgetbv0 returns the low half of XCR0, the state components the
// operating system saves and restores.
func xgetbv0() uint32

// hasMulxAdx reports whether the CPU has the instructions the one-lane
// kernel uses beyond the base ISA: BMI2's MULX (CPUID.(EAX=07H,ECX=0):EBX
// bit 8) and ADX's ADCX/ADOX (bit 19). Leaf 7 exists on every CPU that
// has either.
func hasMulxAdx() bool {
	const bmi2, adx = 1 << 8, 1 << 19
	ebx, _ := cpuid(7)
	return ebx&(bmi2|adx) == bmi2|adx
}

// hasIFMA reports whether the 4-lane kernel can run: the CPU has
// AVX512F (leaf 7 EBX bit 16), AVX512IFMA (bit 21) and AVX512VL (bit
// 31), and the operating system has enabled XGETBV (leaf 1 ECX bit 27,
// OSXSAVE) and saves the SSE, AVX, opmask and both upper ZMM states
// (XCR0 bits 1, 2, 5, 6 and 7).
func hasIFMA() bool {
	const avx512f, ifma, vl = 1 << 16, 1 << 21, 1 << 31
	const osxsave = 1 << 27
	const xcr0 = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if ebx, _ := cpuid(7); ebx&(avx512f|ifma|vl) != avx512f|ifma|vl {
		return false
	}
	if _, ecx := cpuid(1); ecx&osxsave == 0 {
		return false
	}
	return xgetbv0()&xcr0 == xcr0
}
