package securechan

import (
	"crypto/subtle"
	"encoding/binary"
)

// The 4-lane X25519 kernel (x25519_lanes_amd64.s) runs up to four
// independent scalar multiplications in one Montgomery ladder, one per
// 64-bit lane of 256-bit vectors, with AVX-512 IFMA's 52-bit
// multiply-adds. A handshake side's multiplications do not depend on
// each other, so Respond runs its four and Finish its three as the lanes
// of one call (x25519Batch).

// fe4 is four elements of GF(2^255-19), one per lane, as five 52-bit
// limbs each, limb-major: fe4[i][l] is limb i of lane l's element, so a
// limb of all four lanes is one vector. The kernel keeps limbs 0-3 below
// 2^52 and limb 4 below 2^48 between operations (IFMA reads only the low
// 52 bits of each limb), so an element is below 2^256 and stands for its
// residue.
type fe4 [5][4]uint64

// laneState is the 4-lane ladder's working memory, addressed at fixed
// offsets from one pointer (the field names reach the assembly through
// go_asm.h). x3 and z3 lie 320 bytes after x2 and z2, which the
// conditional swap relies on.
type laneState struct {
	x1, x2, z2, x3, z3            fe4
	a, b, c, d, da, cb, aa, bb, t fe4          // t = AA + a24·E (E itself stays in registers)
	k                             [4][4]uint64 // k[w][l]: 64-bit word w of lane l's clamped scalar
	swap                          [4]uint64    // per lane, all ones where (x2, z2) and (x3, z3) are exchanged
	pos                           int64        // bit the ladder is at, 254 down to 0
}

const mask52 = 1<<52 - 1

// laneMult sets out[l] to the X25519 function of scalar[l] and point[l]
// (RFC 7748 §5) for the four lanes l on the 4-lane kernel.
func laneMult(out *[4][32]byte, scalar, point *[4][32]byte) {
	var st laneState
	for l := range 4 {
		k := scalar[l]
		k[0] &= 248
		k[31] &= 127
		k[31] |= 64
		for w := range 4 {
			st.k[w][l] = binary.LittleEndian.Uint64(k[8*w:])
		}
		// As in scalarMult, the u-coordinate's top bit is ignored and
		// the rest may be at or above p.
		setLane(&st.x1, l, &point[l])
		st.x2[0][l] = 1
		st.z3[0][l] = 1
	}
	st.x3 = st.x1
	st.pos = 254
	ladder4(&st)
	var x, z [4]fe
	for l := range 4 {
		x[l] = laneFe(&st.x2, l)
		z[l] = laneFe(&st.z2, l)
	}
	invertLanes(&z)
	for l := range 4 {
		feMul(&x[l], &x[l], &z[l])
		encode(&out[l], &x[l])
	}
}

// invertLanes sets each z[l] to 1/z[l] (0 for 0) with one inversion on
// the one-lane kernel (Montgomery's trick: invert the product, then
// peel the lanes off it), which measured faster than a 4-lane Fermat
// chain. A lane whose z is 0 mod p would zero the product and every
// inverse with it, so it takes 1 instead and its inverse is masked back
// to 0; the masks come from a constant-time comparison.
func invertLanes(z *[4]fe) {
	var zero [4]uint64
	for l := range z {
		var b, nul [32]byte
		encode(&b, &z[l])
		zero[l] = -uint64(subtle.ConstantTimeCompare(b[:], nul[:]))
		z[l] = fe{z[l][0]&^zero[l] | 1&zero[l], z[l][1] &^ zero[l], z[l][2] &^ zero[l], z[l][3] &^ zero[l]}
	}
	var p01, p012, p0123, inv, t fe
	feMul(&p01, &z[0], &z[1])
	feMul(&p012, &p01, &z[2])
	feMul(&p0123, &p012, &z[3])
	invert(&inv, &p0123)     // 1/(z0·z1·z2·z3)
	feMul(&t, &inv, &p012)   // 1/z3
	feMul(&inv, &inv, &z[3]) // 1/(z0·z1·z2)
	z[3] = t
	feMul(&t, &inv, &p01)    // 1/z2
	feMul(&inv, &inv, &z[2]) // 1/(z0·z1)
	z[2] = t
	feMul(&t, &inv, &z[0])    // 1/z1
	feMul(&z[0], &inv, &z[1]) // 1/z0
	z[1] = t
	for l := range z {
		for j := range z[l] {
			z[l][j] &^= zero[l]
		}
	}
}

// setLane sets lane l of x to the little-endian u-coordinate u with its
// bit 255 cleared.
func setLane(x *fe4, l int, u *[32]byte) {
	u0 := binary.LittleEndian.Uint64(u[0:])
	u1 := binary.LittleEndian.Uint64(u[8:])
	u2 := binary.LittleEndian.Uint64(u[16:])
	u3 := binary.LittleEndian.Uint64(u[24:]) & (1<<63 - 1)
	x[0][l] = u0 & mask52
	x[1][l] = (u0>>52 | u1<<12) & mask52
	x[2][l] = (u1>>40 | u2<<24) & mask52
	x[3][l] = (u2>>28 | u3<<36) & mask52
	x[4][l] = u3 >> 16
}

// laneFe returns lane l of x as four 64-bit limbs; x's limbs must be
// below 2^52 and its limb 4 below 2^48, as the kernel leaves them.
func laneFe(x *fe4, l int) fe {
	return fe{
		x[0][l] | x[1][l]<<52,
		x[1][l]>>12 | x[2][l]<<40,
		x[2][l]>>24 | x[3][l]<<28,
		x[3][l]>>36 | x[4][l]<<16,
	}
}
