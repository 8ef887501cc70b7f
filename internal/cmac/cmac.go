// Package cmac implements the AES-CMAC message authentication code
// defined in RFC 4493, the MAC generation algorithm used by the DISCS
// data plane (§V-D of the paper).
//
// DISCS stamps a truncated AES-CMAC of selected immutable packet fields
// into each outbound packet: 29 bits for IPv4 (IPID + Fragment Offset)
// and 32 bits for IPv6 (DISCS destination option). This package provides
// the full 128-bit CMAC plus the two truncations.
package cmac

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"sync"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// KeySize is the AES-128 key size used throughout DISCS.
const KeySize = 16

// rb is the constant from RFC 4493 §2.3 used in subkey generation.
const rb = 0x87

// CMAC computes AES-CMAC over msg with precomputed subkeys. Create one
// per key with New and reuse it; the struct is cheap but key expansion
// is not. A CMAC value is safe for concurrent use: Sum does not mutate
// receiver state.
type CMAC struct {
	laneKey
	block cipher.Block
}

// laneKey is what the lane kernels read of a key: its AES-128 round
// keys and the CMAC subkeys. The kernels find the fields by the offsets
// the compiler exports to go_asm.h.
type laneKey struct {
	rk     roundKeys // expanded by expandKey, for the lane kernels
	k1, k2 [BlockSize]byte
}

// New creates a CMAC instance for a 16-byte AES-128 key.
func New(key []byte) (*CMAC, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("cmac: key length %d, want %d", len(key), KeySize)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	c := &CMAC{block: block}
	expandKey(&c.rk, key)
	// Subkey generation (RFC 4493 §2.3): L = AES-128(K, 0^128);
	// K1 = L<<1 (xor Rb if msb(L)); K2 = K1<<1 (xor Rb if msb(K1)).
	var l [BlockSize]byte
	block.Encrypt(l[:], l[:])
	shiftLeft(&c.k1, &l)
	if l[0]&0x80 != 0 {
		c.k1[BlockSize-1] ^= rb
	}
	shiftLeft(&c.k2, &c.k1)
	if c.k1[0]&0x80 != 0 {
		c.k2[BlockSize-1] ^= rb
	}
	return c, nil
}

// shiftLeft sets dst = src << 1 (128-bit big-endian shift).
func shiftLeft(dst, src *[BlockSize]byte) {
	var carry byte
	for i := BlockSize - 1; i >= 0; i-- {
		dst[i] = src[i]<<1 | carry
		carry = src[i] >> 7
	}
}

// scratch holds the chaining buffers of one crypto/aes CMAC. The
// buffers are passed to cipher.Block.Encrypt, an interface call, so
// stack-allocated arrays would escape and cost two heap allocations per
// MAC. A scratch is reusable across keys and messages but must not be
// shared by concurrent computations. The zero value is ready to use.
type scratch struct {
	x, y [BlockSize]byte
}

// scratchPool backs Sum on the crypto/aes path, so it stays
// allocation-free in steady state.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Sum computes the 16-byte AES-CMAC of msg. Where the lane kernels run,
// a message of at least a block goes through the one-lane kernel, as
// every Sum* and Verify* call does; crypto/aes serves the rest.
func (c *CMAC) Sum(msg []byte) [BlockSize]byte {
	if useKernel && len(msg) >= BlockSize {
		return c.sumKernel(msg)
	}
	s := scratchPool.Get().(*scratch)
	m := c.sumAES(msg, s, nil)
	scratchPool.Put(s)
	return m
}

// sumAES is the CMAC of msg through crypto/aes: the fallback engine,
// and the reference the lane kernels are held to. For messages of two
// or more blocks the first chained encryption E_K(M1) depends only on
// the key and the leading 16 message bytes; when bc is non-nil that
// value is looked up (and on miss, filled) in bc. A nil bc computes
// everything directly.
func (c *CMAC) sumAES(msg []byte, s *scratch, bc *BlockCache) [BlockSize]byte {
	nBlocks := (len(msg) + BlockSize - 1) / BlockSize
	last := c.lastBlock(msg[max(nBlocks-1, 0)*BlockSize:])
	if nBlocks >= 2 {
		// First chained block: X1 = E_K(M1), cacheable.
		copy(s.y[:], msg[:BlockSize])
		c.firstBlock(&s.y, &s.x, bc)
		for i := 1; i < nBlocks-1; i++ {
			xorBlock(&s.y, &s.x, msg[i*BlockSize:(i+1)*BlockSize])
			c.block.Encrypt(s.x[:], s.y[:])
		}
	} else {
		s.x = [BlockSize]byte{}
	}
	xorBlock(&s.y, &s.x, last[:])
	c.block.Encrypt(s.x[:], s.y[:])
	return s.x
}

// lastBlock returns the final CMAC block M_last built from the message's
// last rem (RFC 4493 §2.4): a complete 16-byte block is xored with K1,
// a shorter one (the empty message included) is padded with 10* and
// xored with K2.
func (c *CMAC) lastBlock(rem []byte) (last [BlockSize]byte) {
	copy(last[:], rem)
	if len(rem) == BlockSize {
		xorInto(&last, &c.k1)
	} else {
		last[len(rem)] = 0x80
		xorInto(&last, &c.k2)
	}
	return last
}

// xorBlock sets dst = a ^ b using two word-wide operations; the
// byte-wise loop showed up in data-plane profiles. Endianness is
// irrelevant for pure XOR.
func xorBlock(dst, a *[BlockSize]byte, b []byte) {
	x0 := binary.LittleEndian.Uint64(a[0:8]) ^ binary.LittleEndian.Uint64(b[0:8])
	x1 := binary.LittleEndian.Uint64(a[8:16]) ^ binary.LittleEndian.Uint64(b[8:16])
	binary.LittleEndian.PutUint64(dst[0:8], x0)
	binary.LittleEndian.PutUint64(dst[8:16], x1)
}

func xorInto(dst, src *[BlockSize]byte) {
	x0 := binary.LittleEndian.Uint64(dst[0:8]) ^ binary.LittleEndian.Uint64(src[0:8])
	x1 := binary.LittleEndian.Uint64(dst[8:16]) ^ binary.LittleEndian.Uint64(src[8:16])
	binary.LittleEndian.PutUint64(dst[0:8], x0)
	binary.LittleEndian.PutUint64(dst[8:16], x1)
}

// Verify reports whether mac equals the CMAC of msg, in constant time.
// A mac of the wrong length is rejected before any AES work is done;
// the constant-time property only matters for well-formed candidates.
func (c *CMAC) Verify(msg, mac []byte) bool {
	if len(mac) != BlockSize {
		return false
	}
	want := c.Sum(msg)
	return subtle.ConstantTimeCompare(want[:], mac) == 1
}

// The BlockCache is set-associative: blockCacheSets sets of
// blockCacheWays entries, 512 entries and about 20 KiB in all. A set is
// chosen by the plaintext block alone, so the stamp key and the verify
// key of one flow — a peer's Key-S and a victim's Key-V that one
// pipeline serves in turn — sit side by side in the same set instead of
// evicting each other, and a set only overflows when more than four
// flows hash to it.
const (
	blockCacheSets = 64
	blockCacheWays = 8
)

type blockCacheEntry struct {
	key *CMAC
	blk [BlockSize]byte
	enc [BlockSize]byte
}

type blockCacheSet struct {
	ways [blockCacheWays]blockCacheEntry
	next uint8 // the way the next miss replaces, round robin
}

// BlockCache is a set-associative cache of first-block encryptions
// E_K(M1), keyed by (CMAC instance, plaintext block). It exploits the
// structure of DISCS mark messages: the leading 16 bytes carry header
// fields that repeat across the packets of a flow, so in steady state
// the first of the two AES rounds per mark can be skipped. It serves
// the crypto/aes path only (the burst functions where the lane kernels
// do not run); the kernels encrypt a lane's first block for less than a
// lookup costs and do not consult it.
//
// Entries are tagged with the *CMAC pointer, so key rotation
// invalidates naturally: a new key table snapshot carries new CMAC
// instances and their lookups simply miss. A BlockCache must not be
// shared by concurrent computations; give each data-plane worker its
// own (core's burst pipeline, one per worker, does this). The zero value
// is ready to use.
type BlockCache struct {
	sets         [blockCacheSets]blockCacheSet
	hits, misses uint64
}

// Hits returns the number of cache hits since the last Reset.
func (bc *BlockCache) Hits() uint64 { return bc.hits }

// Misses returns the number of cache misses since the last Reset.
func (bc *BlockCache) Misses() uint64 { return bc.misses }

// Reset clears all entries and counters.
func (bc *BlockCache) Reset() { *bc = BlockCache{} }

// blockSet hashes a plaintext block to a cache set.
func blockSet(b *[BlockSize]byte) uint32 {
	h := binary.LittleEndian.Uint64(b[0:8]) ^ binary.LittleEndian.Uint64(b[8:16])*0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return uint32(h>>32) & (blockCacheSets - 1)
}

// firstBlock sets *dst = E_K(*src), consulting bc when non-nil. src and
// dst must be scratch-owned buffers (they are passed to cipher.Block
// methods and would otherwise escape).
func (c *CMAC) firstBlock(src, dst *[BlockSize]byte, bc *BlockCache) {
	if bc == nil {
		c.block.Encrypt(dst[:], src[:])
		return
	}
	set := &bc.sets[blockSet(src)]
	for w := range set.ways {
		if e := &set.ways[w]; e.key == c && e.blk == *src {
			bc.hits++
			*dst = e.enc
			return
		}
	}
	bc.misses++
	c.block.Encrypt(dst[:], src[:])
	set.ways[set.next] = blockCacheEntry{key: c, blk: *src, enc: *dst}
	set.next = (set.next + 1) % blockCacheWays
}

// BurstLanes is the number of independent CMAC chains a burst keeps in
// flight at once: the widest lane kernel runs eight, enough independent
// AESENC streams to cover the instruction's latency on current x86
// cores.
const BurstLanes = 8

// BurstScratch holds the per-lane buffers of the burst functions. It
// must not be shared by concurrent bursts. The zero value is ready to
// use.
type BurstScratch struct {
	x, y [BurstLanes][BlockSize]byte
}

// SumBurst32 computes the 32-bit truncated CMAC of n = len(out)
// equal-length messages packed back-to-back in flat (message i occupies
// flat[i*msgLen:(i+1)*msgLen]), writing the results to out. It is the
// one-key case of SumBurstKeys32. bc, when non-nil, serves first-block
// encryptions on the crypto/aes path (see BlockCache).
//
// Results are bit-identical to calling Sum32 per message.
func (c *CMAC) SumBurst32(flat []byte, msgLen int, out []uint32, bs *BurstScratch, bc *BlockCache) {
	sumBurst(c, nil, flat, msgLen, out, bs, bc)
}

// SumBurst29 is SumBurst32 truncated to the 29-bit IPv4 mark width.
func (c *CMAC) SumBurst29(flat []byte, msgLen int, out []uint32, bs *BurstScratch, bc *BlockCache) {
	c.SumBurst32(flat, msgLen, out, bs, bc)
	truncate29(out)
}

// SumBurstKeys32 is SumBurst32 with a key per message: message i is
// MACed under keys[i]. Messages are taken BurstLanes at a time whatever
// their keys, so a burst that alternates between many keys keeps every
// lane busy. Where the CPU has AES-NI, messages of at least a block go
// through the lane kernels, one call per group of lanes, each lane
// under its own expanded key; otherwise the lanes' blocks go through
// crypto/aes one Encrypt call at a time, interleaved across lanes.
//
// Results are bit-identical to calling keys[i].Sum32 per message.
func SumBurstKeys32(keys []*CMAC, flat []byte, msgLen int, out []uint32, bs *BurstScratch, bc *BlockCache) {
	if len(keys) < len(out) {
		panic("cmac: SumBurstKeys32 has fewer keys than messages")
	}
	sumBurst(nil, keys, flat, msgLen, out, bs, bc)
}

// SumBurstKeys29 is SumBurstKeys32 truncated to the 29-bit IPv4 mark
// width.
func SumBurstKeys29(keys []*CMAC, flat []byte, msgLen int, out []uint32, bs *BurstScratch, bc *BlockCache) {
	SumBurstKeys32(keys, flat, msgLen, out, bs, bc)
	truncate29(out)
}

func truncate29(out []uint32) {
	for i := range out {
		out[i] >>= 3
	}
}

// sumBurst runs the burst functions: message i's key is one when keys
// is nil, else keys[i].
func sumBurst(one *CMAC, keys []*CMAC, flat []byte, msgLen int, out []uint32, bs *BurstScratch, bc *BlockCache) {
	n := len(out)
	if msgLen <= 0 {
		panic("cmac: burst msgLen must be positive")
	}
	if len(flat) < n*msgLen {
		panic("cmac: burst flat shorter than len(out)*msgLen")
	}
	if useKernel && msgLen >= BlockSize {
		sumBurstKernel(one, keys, flat, msgLen, out, bs)
		return
	}
	var lanes [BurstLanes]*CMAC
	for base := 0; base < n; base += BurstLanes {
		m := min(n-base, BurstLanes)
		for j := 0; j < m; j++ {
			if keys == nil {
				lanes[j] = one
			} else {
				lanes[j] = keys[base+j]
			}
		}
		bs.sumLanes(&lanes, flat[base*msgLen:(base+m)*msgLen], msgLen, m, out[base:base+m], bc)
	}
}

// sumLanes computes the 32-bit CMACs of the m ≤ BurstLanes messages of
// length msgLen packed in flat, message j under lanes[j], through
// crypto/aes. Its encryptions are scheduled in three phases — all
// first blocks, then each interior block index across the lanes, then
// all final blocks — so consecutive Encrypt calls never depend on each
// other.
func (bs *BurstScratch) sumLanes(lanes *[BurstLanes]*CMAC, flat []byte, msgLen, m int, out []uint32, bc *BlockCache) {
	nBlocks := (msgLen + BlockSize - 1) / BlockSize
	lastOff := (nBlocks - 1) * BlockSize
	for j := 0; j < m; j++ {
		if nBlocks > 1 {
			// First chained block, X1 = E_K(M1), cacheable.
			copy(bs.y[j][:], flat[j*msgLen:])
			lanes[j].firstBlock(&bs.y[j], &bs.x[j], bc)
		} else {
			bs.x[j] = [BlockSize]byte{}
		}
	}
	for b := 1; b < nBlocks-1; b++ {
		off := b * BlockSize
		for j := 0; j < m; j++ {
			xorBlock(&bs.y[j], &bs.x[j], flat[j*msgLen+off:])
			lanes[j].block.Encrypt(bs.x[j][:], bs.y[j][:])
		}
	}
	for j := 0; j < m; j++ {
		last := lanes[j].lastBlock(flat[j*msgLen+lastOff : (j+1)*msgLen])
		xorBlock(&bs.y[j], &bs.x[j], last[:])
	}
	for j := 0; j < m; j++ {
		lanes[j].block.Encrypt(bs.x[j][:], bs.y[j][:])
		out[j] = mac32(&bs.x[j])
	}
}

// Sum29 computes the 29-bit truncation used for IPv4 stamping: the
// most-significant 29 bits of the CMAC, returned in the low bits of a
// uint32 (range [0, 2^29)).
func (c *CMAC) Sum29(msg []byte) uint32 {
	return c.Sum32(msg) >> 3
}

// Sum32 computes the 32-bit truncation used for IPv6 stamping: the
// most-significant 4 bytes of the CMAC.
func (c *CMAC) Sum32(msg []byte) uint32 {
	m := c.Sum(msg)
	return mac32(&m)
}

// mac32 extracts the 32-bit truncation (big-endian leading 4 bytes).
func mac32(m *[BlockSize]byte) uint32 {
	return uint32(m[0])<<24 | uint32(m[1])<<16 | uint32(m[2])<<8 | uint32(m[3])
}

// Verify29 reports whether mac29 matches the 29-bit truncated CMAC of
// msg. Note: truncated-MAC comparison is not constant time; the mark is
// a per-packet forgery deterrent (§VI-E1), not a long-term secret.
func (c *CMAC) Verify29(msg []byte, mac29 uint32) bool {
	return c.Sum29(msg) == mac29&(1<<29-1)
}

// Verify32 reports whether mac32 matches the 32-bit truncated CMAC.
func (c *CMAC) Verify32(msg []byte, mac32 uint32) bool {
	return c.Sum32(msg) == mac32
}
