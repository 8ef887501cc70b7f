package cmac

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// RFC 4493 §4 test vectors.
var rfcKey, _ = hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")

var rfcMsg, _ = hex.DecodeString(
	"6bc1bee22e409f96e93d7e117393172a" +
		"ae2d8a571e03ac9c9eb76fac45af8e51" +
		"30c81c46a35ce411e5fbc1191a0a52ef" +
		"f69f2445df4f9b17ad2b417be66c3710")

func fromHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("hex %q: %v", s, err)
	}
	return b
}

func TestRFC4493Subkeys(t *testing.T) {
	c, err := New(rfcKey)
	if err != nil {
		t.Fatal(err)
	}
	wantK1 := fromHex(t, "fbeed618357133667c85e08f7236a8de")
	wantK2 := fromHex(t, "f7ddac306ae266ccf90bc11ee46d513b")
	if !bytes.Equal(c.k1[:], wantK1) {
		t.Errorf("K1 = %x, want %x", c.k1, wantK1)
	}
	if !bytes.Equal(c.k2[:], wantK2) {
		t.Errorf("K2 = %x, want %x", c.k2, wantK2)
	}
}

// The RFC 4493 §4 vectors through Sum and Verify on each engine, and
// through the crypto/aes reference.
func TestRFC4493Vectors(t *testing.T) {
	cases := []struct {
		name string
		n    int
		want string
	}{
		{"len0", 0, "bb1d6929e95937287fa37d129b756746"},
		{"len16", 16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{"len40", 40, "dfa66747de9ae63030ca32611497c827"},
		{"len64", 64, "51f0bebf7e3b9d92fc49741779363cfe"},
	}
	c, err := New(rfcKey)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := fromHex(t, tc.want)
			if got := cryptoAESSum(c, rfcMsg[:tc.n]); !bytes.Equal(got[:], want) {
				t.Errorf("crypto/aes = %x, want %x", got, want)
			}
			backends(t, func(t *testing.T) {
				if got := c.Sum(rfcMsg[:tc.n]); !bytes.Equal(got[:], want) {
					t.Errorf("Sum = %x, want %x", got, want)
				}
				if !c.Verify(rfcMsg[:tc.n], want) {
					t.Error("Verify(correct) = false")
				}
			})
		})
	}
}

func TestVerifyRejects(t *testing.T) {
	c, _ := New(rfcKey)
	mac := c.Sum(rfcMsg[:16])
	bad := mac
	bad[5] ^= 1
	if c.Verify(rfcMsg[:16], bad[:]) {
		t.Error("Verify accepted corrupted MAC")
	}
	if c.Verify(rfcMsg[:16], mac[:15]) {
		t.Error("Verify accepted short MAC")
	}
	if c.Verify(rfcMsg[:17], mac[:]) {
		t.Error("Verify accepted wrong message")
	}
}

func TestKeyLength(t *testing.T) {
	for _, n := range []int{0, 15, 17, 24, 32} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("New with %d-byte key should fail (AES-128 only)", n)
		}
	}
	if _, err := New(make([]byte, 16)); err != nil {
		t.Errorf("New with 16-byte key: %v", err)
	}
}

func TestTruncations(t *testing.T) {
	c, _ := New(rfcKey)
	// len16 vector: full MAC = 070a16b4 6b4d4144 f79bdd9d d04a287c
	msg := rfcMsg[:16]
	want32 := uint32(0x070a16b4)
	if got := c.Sum32(msg); got != want32 {
		t.Errorf("Sum32 = %08x, want %08x", got, want32)
	}
	want29 := want32 >> 3
	if got := c.Sum29(msg); got != want29 {
		t.Errorf("Sum29 = %08x, want %08x", got, want29)
	}
	if c.Sum29(msg) >= 1<<29 {
		t.Error("Sum29 out of 29-bit range")
	}
	if !c.Verify29(msg, want29) || !c.Verify32(msg, want32) {
		t.Error("truncated verify of correct MAC failed")
	}
	if c.Verify29(msg, want29^1) || c.Verify32(msg, want32^1) {
		t.Error("truncated verify accepted wrong MAC")
	}
	// Verify29 must ignore bits above bit 28 in the candidate.
	if !c.Verify29(msg, want29|1<<31) {
		t.Error("Verify29 should mask candidate to 29 bits")
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	k2 := append([]byte(nil), rfcKey...)
	k2[0] ^= 0xff
	c1, _ := New(rfcKey)
	c2, _ := New(k2)
	m1 := c1.Sum(rfcMsg[:40])
	m2 := c2.Sum(rfcMsg[:40])
	if m1 == m2 {
		t.Error("different keys produced identical MACs")
	}
}

func TestDeterministic(t *testing.T) {
	c, _ := New(rfcKey)
	a := c.Sum(rfcMsg)
	b := c.Sum(rfcMsg)
	if a != b {
		t.Error("Sum is not deterministic")
	}
}

func TestAllMessageLengths(t *testing.T) {
	// Exercise every padding branch: 0..48 bytes.
	c, _ := New(rfcKey)
	seen := make(map[[16]byte]bool)
	msg := make([]byte, 48)
	for i := range msg {
		msg[i] = byte(i)
	}
	for n := 0; n <= 48; n++ {
		m := c.Sum(msg[:n])
		if seen[m] {
			t.Fatalf("collision at length %d", n)
		}
		seen[m] = true
	}
}

// Property: a single-bit flip anywhere in the message changes the MAC.
func TestPropertyBitFlipChangesMAC(t *testing.T) {
	c, _ := New(rfcKey)
	f := func(msg []byte, pos uint16) bool {
		if len(msg) == 0 {
			return true
		}
		orig := c.Sum(msg)
		i := int(pos) % len(msg)
		msg[i] ^= 1
		flipped := c.Sum(msg)
		msg[i] ^= 1
		return orig != flipped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Verify(msg, Sum(msg)) always holds.
func TestPropertyRoundTrip(t *testing.T) {
	c, _ := New(rfcKey)
	f := func(msg []byte) bool {
		m := c.Sum(msg)
		return c.Verify(msg, m[:]) && c.Verify29(msg, c.Sum29(msg)) && c.Verify32(msg, c.Sum32(msg))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: messages differing only in length (prefix) have different MACs
// (padding domain separation).
func TestPropertyPrefixDistinct(t *testing.T) {
	c, _ := New(rfcKey)
	f := func(msg []byte) bool {
		if len(msg) == 0 {
			return true
		}
		return c.Sum(msg) != c.Sum(msg[:len(msg)-1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Regression: Verify must reject a wrong-length mac up front (it used
// to burn a full CMAC computation before looking at len(mac)).
func TestVerifyWrongLengthMAC(t *testing.T) {
	c, _ := New(rfcKey)
	mac := c.Sum(rfcMsg[:16])
	long := append(mac[:], 0x00)
	for _, cand := range [][]byte{nil, {}, mac[:1], mac[:15], long} {
		if c.Verify(rfcMsg[:16], cand) {
			t.Errorf("Verify accepted %d-byte mac", len(cand))
		}
	}
	if !c.Verify(rfcMsg[:16], mac[:]) {
		t.Error("Verify rejected correct mac")
	}
}

// The cached crypto/aes path must be bit-identical to the uncached one
// for every length and cache state.
func TestSumCachedMatchesSum(t *testing.T) {
	c, _ := New(rfcKey)
	var s scratch
	var bc BlockCache
	msg := make([]byte, 100)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	for n := 0; n <= len(msg); n++ {
		want := cryptoAESSum(c, msg[:n])
		for pass := 0; pass < 2; pass++ { // cold then warm cache
			if got := c.sumAES(msg[:n], &s, &bc); got != want {
				t.Fatalf("len %d pass %d: cached crypto/aes = %x, want %x", n, pass, got, want)
			}
		}
	}
}

// The cache serves the crypto/aes path only, so this drives that path
// directly.
func TestBlockCacheBehavior(t *testing.T) {
	c, _ := New(rfcKey)
	var s scratch
	var bc BlockCache
	msg := make([]byte, 21) // 2 blocks: first block cacheable
	for i := range msg {
		msg[i] = byte(i)
	}
	c.sumAES(msg, &s, &bc)
	if bc.Misses() != 1 || bc.Hits() != 0 {
		t.Fatalf("cold: hits=%d misses=%d, want 0/1", bc.Hits(), bc.Misses())
	}
	// Same leading block, different tail: still a hit.
	msg[20] ^= 0xff
	c.sumAES(msg, &s, &bc)
	if bc.Hits() != 1 {
		t.Fatalf("warm: hits=%d, want 1", bc.Hits())
	}
	// A different CMAC instance over the same key bytes must miss:
	// entries are tagged by instance pointer, which is how key-table
	// snapshot swaps invalidate the cache.
	c2, _ := New(rfcKey)
	c2.sumAES(msg, &s, &bc)
	if bc.Misses() != 2 {
		t.Fatalf("rotated key: misses=%d, want 2", bc.Misses())
	}
	bc.Reset()
	if bc.Hits() != 0 || bc.Misses() != 0 {
		t.Fatal("Reset did not clear counters")
	}
	// Single-block messages never touch the cache.
	c.sumAES(msg[:10], &s, &bc)
	if bc.Hits()+bc.Misses() != 0 {
		t.Fatal("single-block message consulted the cache")
	}
}

// SumBurst must be bit-identical to per-message crypto/aes CMACs across
// message lengths (single-block, exact-multiple, padded) and burst
// sizes (empty, partial lane group, multiple groups), cached or not.
func TestSumBurstMatchesSerial(t *testing.T) {
	backends(t, testSumBurstMatchesSerial)
}

func testSumBurstMatchesSerial(t *testing.T) {
	c, _ := New(rfcKey)
	var bs BurstScratch
	var bc BlockCache
	for _, msgLen := range []int{1, 5, 15, 16, 17, 21, 32, 40, 47, 48, 100} {
		for _, n := range []int{0, 1, 3, 8, 9, 16, 23, 64} {
			flat := make([]byte, n*msgLen)
			for i := range flat {
				flat[i] = byte(i*13 + msgLen)
			}
			// Repeat some leading blocks so the cache path gets hits.
			if n > 4 && msgLen >= 17 {
				copy(flat[2*msgLen:], flat[:16])
				copy(flat[3*msgLen:], flat[:16])
			}
			out := make([]uint32, n)
			for _, cache := range []*BlockCache{nil, &bc} {
				c.SumBurst32(flat, msgLen, out, &bs, cache)
				for i := 0; i < n; i++ {
					mac := cryptoAESSum(c, flat[i*msgLen:(i+1)*msgLen])
					want := mac32(&mac)
					if out[i] != want {
						t.Fatalf("msgLen=%d n=%d cache=%v msg %d: burst %08x, serial %08x",
							msgLen, n, cache != nil, i, out[i], want)
					}
				}
				c.SumBurst29(flat, msgLen, out, &bs, cache)
				for i := 0; i < n; i++ {
					mac := cryptoAESSum(c, flat[i*msgLen:(i+1)*msgLen])
					want := mac32(&mac) >> 3
					if out[i] != want {
						t.Fatalf("msgLen=%d n=%d cache=%v msg %d: burst29 %08x, serial %08x",
							msgLen, n, cache != nil, i, out[i], want)
					}
				}
			}
		}
	}
}

func TestSumBurstPanics(t *testing.T) {
	c, _ := New(rfcKey)
	var bs BurstScratch
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("msgLen=0", func() {
		c.SumBurst32(nil, 0, make([]uint32, 1), &bs, nil)
	})
	mustPanic("short flat", func() {
		c.SumBurst32(make([]byte, 20), 21, make([]uint32, 1), &bs, nil)
	})
}

func BenchmarkSum21B(b *testing.B) {
	// 21 bytes is the IPv4 msg size (§V-E).
	c, _ := New(rfcKey)
	msg := make([]byte, 21)
	b.SetBytes(21)
	for i := 0; i < b.N; i++ {
		c.Sum(msg)
	}
}

func BenchmarkSum40B(b *testing.B) {
	// 40 bytes is the IPv6 msg size (src 16 + dst 16 + 8 payload).
	c, _ := New(rfcKey)
	msg := make([]byte, 40)
	b.SetBytes(40)
	for i := 0; i < b.N; i++ {
		c.Sum(msg)
	}
}

func BenchmarkSum1500B(b *testing.B) {
	c, _ := New(rfcKey)
	msg := make([]byte, 1500)
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		c.Sum(msg)
	}
}

// benchBurst packs n copies of distinct 21-byte v4-shaped messages; if
// sharedPrefix, all share the leading 16 bytes (flow locality → cache
// hits), else every first block differs (hostile shape).
func benchBurst(b *testing.B, n int, sharedPrefix, cached bool) {
	c, _ := New(rfcKey)
	const msgLen = 21
	flat := make([]byte, n*msgLen)
	for i := 0; i < n; i++ {
		m := flat[i*msgLen : (i+1)*msgLen]
		for j := range m {
			m[j] = byte(j)
		}
		if sharedPrefix {
			m[18] = byte(i) // vary only the tail
		} else {
			m[0] = byte(i)
			m[1] = byte(i >> 8)
		}
	}
	var bs BurstScratch
	var bc BlockCache
	cache := &bc
	if !cached {
		cache = nil
	}
	out := make([]uint32, n)
	b.SetBytes(int64(n * msgLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SumBurst29(flat, msgLen, out, &bs, cache)
	}
	b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds()/1e6, "Mmacs/s")
}

func BenchmarkSumBurst64x21B(b *testing.B)       { benchBurst(b, 64, false, false) }
func BenchmarkSumBurst64x21BCached(b *testing.B) { benchBurst(b, 64, true, true) }
func BenchmarkSumBurst64x21BCold(b *testing.B)   { benchBurst(b, 64, false, true) }

func BenchmarkSumSerial64x21B(b *testing.B) {
	c, _ := New(rfcKey)
	const msgLen = 21
	flat := make([]byte, 64*msgLen)
	for i := range flat {
		flat[i] = byte(i)
	}
	b.SetBytes(64 * msgLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			c.Sum29(flat[j*msgLen : (j+1)*msgLen])
		}
	}
	b.ReportMetric(float64(b.N*64)/b.Elapsed().Seconds()/1e6, "Mmacs/s")
}
