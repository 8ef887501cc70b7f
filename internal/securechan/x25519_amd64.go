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

// cpuidEBX returns EBX of CPUID leaf leaf, subleaf 0.
func cpuidEBX(leaf uint32) uint32

// hasMulxAdx reports whether the CPU has the instructions the kernel
// uses beyond the base ISA: BMI2's MULX (CPUID.(EAX=07H,ECX=0):EBX
// bit 8) and ADX's ADCX/ADOX (bit 19). Leaf 7 exists on every CPU that
// has either.
func hasMulxAdx() bool {
	const bmi2, adx = 1 << 8, 1 << 19
	return cpuidEBX(7)&(bmi2|adx) == bmi2|adx
}
