package securechan

import (
	"crypto/ecdh"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// X25519 (RFC 7748). The handshake's scalar multiplications run
// Montgomery-ladder kernels in amd64 assembly: a one-lane kernel
// (x25519_amd64.s) where the CPU has BMI2's MULX and ADX's dual carry
// chains, and a 4-lane one (x25519_lanes_amd64.s) where it also has
// AVX-512 IFMA, which runs a handshake side's independent
// multiplications together (x25519Batch). Everywhere else they run on
// crypto/ecdh. All paths give the same bytes for every input; tests hold
// the kernels to crypto/ecdh.

// fallback, when set at link time, narrows the package's choice: "1"
// takes crypto/ecdh even where a kernel could run, and "scalar" keeps
// the one-lane kernel but turns the 4-lane one off. make test-fallback
// runs the securechan and core tests once with each
// (-ldflags=-X=discs/internal/securechan.fallback=1, =scalar).
var fallback string

var (
	// useKernel selects the one-lane assembly ladder: the architecture
	// and the CPU decide it.
	useKernel = hasMulxAdx() && (fallback == "" || fallback == "scalar")
	// useLanes selects the 4-lane ladder for batches.
	useLanes = useKernel && hasIFMA() && fallback == ""
)

// fe is an element of GF(2^255-19) as four little-endian 64-bit limbs.
// The kernel keeps it loosely reduced: any value below 2^256 stands for
// its residue.
type fe [4]uint64

// ladderState is the kernel's working memory, addressed at fixed
// offsets from one pointer (the field names reach the assembly through
// go_asm.h). x3 and z3 lie 64 bytes after x2 and z2, which the
// conditional swap relies on.
type ladderState struct {
	x1, x2, z2, x3, z3            fe
	a, b, c, d, aa, bb, da, cb, e fe
	k                             [32]byte // clamped scalar
	pos                           int64    // bit the ladder is at, 254 down to 0
	swap                          uint64   // previous bit: (x2, z2) and (x3, z3) are exchanged
	base                          uint64   // nonzero: x1 is the base point 9
}

// keyPair is an X25519 private scalar and its public key. On the
// fallback path it also holds crypto/ecdh's form of the private key, so
// that an agreement there costs one multiplication, as on the kernel.
type keyPair struct {
	priv, pub [32]byte
	std       *ecdh.PrivateKey
}

// basePoint is the u-coordinate 9 of the curve's base point.
var basePoint = [32]byte{9}

var (
	// errPubLen refuses a public key that is not 32 bytes.
	errPubLen = fmt.Errorf("securechan: X25519 public key is not 32 bytes: %w", errBadFrame)
	// errLowOrder refuses, as crypto/ecdh does, a shared secret that is
	// all zeros: the peer sent a point of small order.
	errLowOrder = fmt.Errorf("securechan: X25519 peer key of low order: %w", errAuth)
)

// x25519Base sets k.pub to k.priv times the base point. Only crypto/ecdh
// can fail, and only where the process runs in FIPS 140-only mode.
func x25519Base(k *keyPair) error {
	if !useKernel {
		std, err := ecdh.X25519().NewPrivateKey(k.priv[:])
		if err != nil {
			return err
		}
		k.std = std
		copy(k.pub[:], std.PublicKey().Bytes())
		return nil
	}
	scalarMult(&k.pub, &k.priv, &basePoint, true)
	return nil
}

// x25519 sets shared to k.priv times the point whose u-coordinate is
// peer, and fails, as crypto/ecdh does, where the result is all zeros.
func x25519(shared *[32]byte, k *keyPair, peer *[32]byte) error {
	if !useKernel {
		pub, err := ecdh.X25519().NewPublicKey(peer[:])
		if err != nil {
			return err
		}
		s, err := k.std.ECDH(pub)
		if err != nil {
			return errLowOrder
		}
		copy(shared[:], s)
		return nil
	}
	return kernelX25519(shared, &k.priv, peer)
}

// kernelX25519 is x25519 on the kernel.
func kernelX25519(shared, scalar, peer *[32]byte) error {
	scalarMult(shared, scalar, peer, false)
	return checkShared(shared)
}

// checkShared refuses an all-zero shared secret.
func checkShared(shared *[32]byte) error {
	var zero [32]byte
	if subtle.ConstantTimeCompare(shared[:], zero[:]) == 1 {
		return errLowOrder
	}
	return nil
}

// mul is one multiplication of a batch: k.priv times the point whose
// u-coordinate is peer, or, where peer is nil, k's public key.
type mul struct {
	k    *keyPair
	peer *[32]byte
}

// x25519Batch runs up to four independent multiplications. A lane with a
// peer leaves its shared secret in out[i]; a lane without one sets
// k.pub, as x25519Base does. The error is the one that running the lanes
// in order through x25519Base and x25519 would have returned first. On
// the 4-lane kernel it is one ladder call; without IFMA the lanes run
// one by one.
func x25519Batch(out *[4][32]byte, ms []mul) error {
	if !useLanes {
		for i, m := range ms {
			var err error
			if m.peer == nil {
				err = x25519Base(m.k)
			} else {
				err = x25519(&out[i], m.k, m.peer)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	var scalar, point [4][32]byte
	for i, m := range ms {
		scalar[i] = m.k.priv
		point[i] = basePoint
		if m.peer != nil {
			point[i] = *m.peer
		}
	}
	laneMult(out, &scalar, &point)
	var err error
	for i, m := range ms {
		if m.peer == nil {
			m.k.pub = out[i]
		} else if e := checkShared(&out[i]); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// scalarMult sets dst to the X25519 function of scalar and point (RFC
// 7748 §5) on the kernel; base says point is the base point 9.
func scalarMult(dst, scalar, point *[32]byte, base bool) {
	var st ladderState
	st.k = *scalar
	st.k[0] &= 248
	st.k[31] &= 127
	st.k[31] |= 64
	// The u-coordinate's top bit is ignored; what is left may be at or
	// above p, which the loosely reduced arithmetic takes as it is.
	for i := range st.x1 {
		st.x1[i] = binary.LittleEndian.Uint64(point[8*i:])
	}
	st.x1[3] &= 1<<63 - 1
	st.x2[0] = 1
	st.x3 = st.x1
	st.z3[0] = 1
	st.pos = 254
	if base {
		st.base = 1
	}
	ladder(&st)
	var inv fe
	invert(&inv, &st.z2)
	feMul(&st.x2, &st.x2, &inv)
	encode(dst, &st.x2)
}

// invert sets z to x^(p-2) = 1/x (0 for 0): 254 squarings and 11
// multiplications, the exponent 2^255-21 built up as 2^k-1 runs.
func invert(z, x *fe) {
	var z2, z9, z11, z2_5_0, z2_10_0, z2_20_0, z2_50_0, z2_100_0, t fe
	feSqrN(&z2, x, 1)              // 2
	feSqrN(&t, &z2, 2)             // 8
	feMul(&z9, &t, x)              // 9
	feMul(&z11, &z9, &z2)          // 11
	feSqrN(&t, &z11, 1)            // 22
	feMul(&z2_5_0, &t, &z9)        // 2^5-1
	feSqrN(&t, &z2_5_0, 5)         // 2^10-2^5
	feMul(&z2_10_0, &t, &z2_5_0)   // 2^10-1
	feSqrN(&t, &z2_10_0, 10)       // 2^20-2^10
	feMul(&z2_20_0, &t, &z2_10_0)  // 2^20-1
	feSqrN(&t, &z2_20_0, 20)       // 2^40-2^20
	feMul(&t, &t, &z2_20_0)        // 2^40-1
	feSqrN(&t, &t, 10)             // 2^50-2^10
	feMul(&z2_50_0, &t, &z2_10_0)  // 2^50-1
	feSqrN(&t, &z2_50_0, 50)       // 2^100-2^50
	feMul(&z2_100_0, &t, &z2_50_0) // 2^100-1
	feSqrN(&t, &z2_100_0, 100)     // 2^200-2^100
	feMul(&t, &t, &z2_100_0)       // 2^200-1
	feSqrN(&t, &t, 50)             // 2^250-2^50
	feMul(&t, &t, &z2_50_0)        // 2^250-1
	feSqrN(&t, &t, 5)              // 2^255-2^5
	feMul(z, &t, &z11)             // 2^255-21
}

// encode writes the canonical little-endian bytes of x (below p) to dst.
// Both folds and the final subtraction of p are by mask.
func encode(dst *[32]byte, x *fe) {
	v := *x
	// Twice fold bit 255 back in as 19: the first leaves v below
	// 2^255+19, the second below 2^255.
	for range 2 {
		top := v[3] >> 63
		v[3] &= 1<<63 - 1
		var c uint64
		v[0], c = bits.Add64(v[0], 19*top, 0)
		v[1], c = bits.Add64(v[1], 0, c)
		v[2], c = bits.Add64(v[2], 0, c)
		v[3], _ = bits.Add64(v[3], 0, c)
	}
	// v >= p exactly when v+19 reaches 2^255; then v-p is v+19-2^255.
	var t fe
	var c uint64
	t[0], c = bits.Add64(v[0], 19, 0)
	t[1], c = bits.Add64(v[1], 0, c)
	t[2], c = bits.Add64(v[2], 0, c)
	t[3], _ = bits.Add64(v[3], 0, c)
	mask := -(t[3] >> 63)
	t[3] &= 1<<63 - 1
	for i := range v {
		v[i] = v[i]&^mask | t[i]&mask
		binary.LittleEndian.PutUint64(dst[8*i:], v[i])
	}
}
