package cmac

import (
	"math/bits"
	"unsafe"
)

// roundKeys is an expanded AES-128 key: the eleven round keys of
// FIPS-197 §5.2, in the byte order AESENC takes them from memory.
type roundKeys [11 * BlockSize]byte

// fallback, when set at link time, makes the package take the
// crypto/aes path even where the lane kernels could run; make check runs
// the cmac and core tests once that way
// (-ldflags=-X=discs/internal/cmac.fallback=1).
var fallback string

// useKernel selects the AES-NI lane kernels for every MAC of at least a
// block, single messages and bursts alike. The architecture and the CPU
// decide it; without the kernels every block goes through crypto/aes.
var useKernel = hasAESNI() && fallback == ""

// sbox is the AES S-box, built from its definition (FIPS-197 §5.1.1):
// the multiplicative inverse in GF(2^8) followed by the affine map. p
// walks the field's nonzero elements by powers of 3 while q walks the
// inverse powers, so q = p⁻¹ at every step.
var sbox = func() (s [256]byte) {
	p, q := byte(1), byte(1)
	for {
		p ^= p<<1 ^ (p>>7)*0x1b
		q ^= q << 1
		q ^= q << 2
		q ^= q << 4
		if q&0x80 != 0 {
			q ^= 0x09
		}
		s[p] = q ^ bits.RotateLeft8(q, 1) ^ bits.RotateLeft8(q, 2) ^
			bits.RotateLeft8(q, 3) ^ bits.RotateLeft8(q, 4) ^ 0x63
		if p == 1 {
			break
		}
	}
	s[0] = 0x63
	return s
}()

// expandKey fills rk with the AES-128 key schedule of key (FIPS-197
// §5.2). Word i of the schedule is rk[4i:4i+4].
func expandKey(rk *roundKeys, key []byte) {
	copy(rk[:KeySize], key)
	rcon := byte(1)
	for i := KeySize; i < len(rk); i += 4 {
		t0, t1, t2, t3 := rk[i-4], rk[i-3], rk[i-2], rk[i-1]
		if i%KeySize == 0 {
			// SubWord(RotWord(w)) xor Rcon.
			t0, t1, t2, t3 = sbox[t1]^rcon, sbox[t2], sbox[t3], sbox[t0]
			rcon = rcon<<1 ^ (rcon>>7)*0x1b
		}
		rk[i] = rk[i-KeySize] ^ t0
		rk[i+1] = rk[i+1-KeySize] ^ t1
		rk[i+2] = rk[i+2-KeySize] ^ t2
		rk[i+3] = rk[i+3-KeySize] ^ t3
	}
}

// laneWidth is the narrowest lane kernel covering m ≤ BurstLanes lanes.
func laneWidth(m int) int {
	switch {
	case m > 4:
		return 8
	case m > 2:
		return 4
	default:
		return m
	}
}

// tailShape tells the lane kernels how to form the final block M_last
// of messages whose final block holds r bytes (RFC 4493 §2.4): read
// the message's last 16 bytes, which start back bytes before the final
// block, move its r bytes to the front with the PSHUFB mask shuf
// (zeroing the rest), xor in the 10* pad, and xor in the subkey at
// offset sub of laneKey, K1 for a complete block and K2 otherwise.
type tailShape struct {
	shuf, pad [BlockSize]byte
	back      int
	sub       int
}

// tailShapes is indexed by r, 1 to 16.
var tailShapes = func() (ts [BlockSize + 1]tailShape) {
	for r := 1; r <= BlockSize; r++ {
		t := &ts[r]
		t.back = BlockSize - r
		for i := range t.shuf {
			t.shuf[i] = 0x80 // PSHUFB writes a zero
			if i < r {
				t.shuf[i] = byte(t.back + i)
			}
		}
		t.sub = int(unsafe.Offsetof(laneKey{}.k1))
		if r < BlockSize {
			t.pad[r] = 0x80
			t.sub = int(unsafe.Offsetof(laneKey{}.k2))
		}
	}
	return ts
}()

// sumBurstKernel is sumBurst on the lane kernels, for messages of at
// least one block. Messages are taken BurstLanes at a time, each group
// in one kernel call that runs all its lanes' CBC-MAC chains together
// whatever their keys. Lanes a kernel covers past the group's m
// messages repeat message m-1 and are not read. The key and message
// pointers live on the stack, where storing them needs no write
// barrier.
func sumBurstKernel(one *CMAC, keys []*CMAC, flat []byte, msgLen int, out []uint32, bs *BurstScratch) {
	var lk [BurstLanes]*laneKey
	var msg [BurstLanes]*byte
	head := (msgLen - 1) / BlockSize * BlockSize // the bytes before the final block
	shape := &tailShapes[msgLen-head]
	n := len(out)
	for base := 0; base < n; base += BurstLanes {
		m := min(n-base, BurstLanes)
		width := laneWidth(m)
		for j := 0; j < width; j++ {
			i := base + min(j, m-1)
			k := one
			if keys != nil {
				k = keys[i]
			}
			lk[j] = &k.laneKey
			msg[j] = &flat[i*msgLen]
		}
		cmacLanes(&lk, &msg, head, shape, &bs.x, width)
		for j := 0; j < m; j++ {
			out[base+j] = mac32(&bs.x[j])
		}
	}
}

// sumKernel is the CMAC of one message of at least a block, on the
// one-lane kernel.
func (c *CMAC) sumKernel(msg []byte) [BlockSize]byte {
	var lk [BurstLanes]*laneKey
	var mp [BurstLanes]*byte
	var mac [BurstLanes][BlockSize]byte
	head := (len(msg) - 1) / BlockSize * BlockSize
	lk[0], mp[0] = &c.laneKey, &msg[0]
	cmacLanes(&lk, &mp, head, &tailShapes[len(msg)-head], &mac, 1)
	return mac[0]
}
