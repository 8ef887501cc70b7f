package cmac

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// backends runs f once per burst backend this machine has: the AES-NI
// lane kernel where the CPU offers it, and always the crypto/aes path.
func backends(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := useKernel
	defer func() { useKernel = saved }()
	if hasAESNI() {
		useKernel = true
		t.Run("kernel", f)
	}
	useKernel = false
	t.Run("crypto-aes", f)
}

// cryptoAESSum is the CMAC of msg through crypto/aes: the reference the
// lane kernels are held to, whichever engine Sum runs on.
func cryptoAESSum(c *CMAC, msg []byte) [BlockSize]byte {
	return c.sumAES(msg, new(scratch), nil)
}

func randKey(rng *rand.Rand) []byte {
	k := make([]byte, KeySize)
	rng.Read(k)
	return k
}

// FIPS-197 Appendix A.1: the schedule of the key 2b7e1516… ends in the
// round key d014f9a8 c9ee2589 e13f0cc8 b6630ca6.
func TestExpandKeyFIPS197(t *testing.T) {
	var rk roundKeys
	expandKey(&rk, rfcKey)
	want := fromHex(t, "d014f9a8c9ee2589e13f0cc8b6630ca6")
	if got := rk[10*BlockSize:]; string(got) != string(want) {
		t.Fatalf("round key 10 = %x, want %x", got, want)
	}
	if string(rk[:KeySize]) != string(rfcKey) {
		t.Fatalf("round key 0 = %x, want the key", rk[:KeySize])
	}
}

// The lane kernels compute each lane's full CMAC, as crypto/aes does,
// with a different key in every lane, and leave the lanes past their
// width alone.
func TestLaneKernelsMatchCryptoAES(t *testing.T) {
	if !hasAESNI() {
		t.Skip("no AES-NI on this machine")
	}
	rng := rand.New(rand.NewSource(1))
	var lk [BurstLanes]*laneKey
	var msg [BurstLanes]*byte
	var mac, want [BurstLanes][BlockSize]byte
	for round := 0; round < 200/BurstLanes; round++ {
		width := []int{1, 2, 4, 8}[round%4]
		msgLen := BlockSize + rng.Intn(3*BlockSize+1)
		head := (msgLen - 1) / BlockSize * BlockSize
		for j := range lk {
			c, err := New(randKey(rng))
			if err != nil {
				t.Fatal(err)
			}
			lk[j] = &c.laneKey
			m := make([]byte, msgLen)
			rng.Read(m)
			msg[j] = &m[0]
			rng.Read(mac[j][:])
			want[j] = mac[j]
			if j < width {
				want[j] = cryptoAESSum(c, m)
			}
		}
		cmacLanes(&lk, &msg, head, &tailShapes[msgLen-head], &mac, width)
		if mac != want {
			t.Fatalf("round %d, %d lanes, %d-byte messages: kernel %x, want %x", round, width, msgLen, mac, want)
		}
	}
}

// Every single-message entry point equals crypto/aes for every length
// from the empty message to several blocks, on each engine: the kernel
// takes the messages of at least a block, crypto/aes the shorter ones.
func TestSumMatchesCryptoAES(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c, _ := New(randKey(rng))
	msg := make([]byte, 100)
	rng.Read(msg)
	backends(t, func(t *testing.T) {
		for n := 0; n <= len(msg); n++ {
			m := msg[:n]
			want := cryptoAESSum(c, m)
			w32 := mac32(&want)
			if got := c.Sum(m); got != want {
				t.Fatalf("len %d: Sum %x, crypto/aes %x", n, got, want)
			}
			if c.Sum32(m) != w32 {
				t.Fatalf("len %d: Sum32 disagrees with crypto/aes %08x", n, w32)
			}
			if c.Sum29(m) != w32>>3 {
				t.Fatalf("len %d: Sum29 disagrees with crypto/aes %08x", n, w32>>3)
			}
			if !c.Verify(m, want[:]) || !c.Verify32(m, w32) || !c.Verify29(m, w32>>3) {
				t.Fatalf("len %d: Verify rejects the crypto/aes MAC", n)
			}
		}
	})
}

// The single-message entry points allocate nothing on either engine
// (the crypto/aes one is checked outside -race, which defeats its
// scratch pool).
func TestSumZeroAlloc(t *testing.T) {
	c, _ := New(rfcKey)
	msg := rfcMsg[:21]
	backends(t, func(t *testing.T) {
		if raceEnabled && !useKernel {
			t.Skip("sync.Pool drops Puts under -race")
		}
		if n := testing.AllocsPerRun(100, func() {
			c.Verify29(msg, c.Sum29(msg))
			c.Verify32(msg, c.Sum32(msg))
		}); n != 0 {
			t.Fatalf("%v allocs per Sum29+Verify29+Sum32+Verify32, want 0", n)
		}
	})
}

// SumBurstKeys32/29 equal per-message CMACs through crypto/aes with a
// key per lane, for every burst size that leaves 1 to 8 lanes active in
// its last group and every message length a burst takes (1 to 64
// bytes; a burst of empty messages is refused, TestSumBurstPanics).
func TestSumBurstKeysMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := make([]*CMAC, 5)
	for i := range keys {
		keys[i], _ = New(randKey(rng))
	}
	backends(t, func(t *testing.T) {
		var bs BurstScratch
		var bc BlockCache
		for msgLen := 1; msgLen <= 64; msgLen++ {
			for n := 1; n <= 2*BurstLanes; n++ {
				flat := make([]byte, n*msgLen)
				rng.Read(flat)
				perMsg := make([]*CMAC, n)
				for i := range perMsg {
					perMsg[i] = keys[rng.Intn(len(keys))]
				}
				out := make([]uint32, n)
				want := make([]uint32, n)
				for i, k := range perMsg {
					mac := cryptoAESSum(k, flat[i*msgLen:(i+1)*msgLen])
					want[i] = mac32(&mac)
				}
				SumBurstKeys32(perMsg, flat, msgLen, out, &bs, &bc)
				for i := range out {
					if out[i] != want[i] {
						t.Fatalf("msgLen %d n %d msg %d: burst %08x, crypto/aes %08x", msgLen, n, i, out[i], want[i])
					}
				}
				SumBurstKeys29(perMsg, flat, msgLen, out, &bs, nil)
				for i := range out {
					if out[i] != want[i]>>3 {
						t.Fatalf("msgLen %d n %d msg %d: burst29 %08x, crypto/aes %08x", msgLen, n, i, out[i], want[i]>>3)
					}
				}
			}
		}
	})
}

// The RFC 4493 §4 vectors through the burst functions, each message in
// a burst whose other lanes run under unrelated keys. The empty message
// (example 1) cannot form a burst and is checked through Sum.
func TestSumBurstRFC4493(t *testing.T) {
	rfc, _ := New(rfcKey)
	rng := rand.New(rand.NewSource(3))
	vectors := []struct {
		n   int
		mac string
	}{
		{16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{40, "dfa66747de9ae63030ca32611497c827"},
		{64, "51f0bebf7e3b9d92fc49741779363cfe"},
	}
	if got := rfc.Sum(nil); hex.EncodeToString(got[:]) != "bb1d6929e95937287fa37d129b756746" {
		t.Fatalf("empty message: %x", got)
	}
	backends(t, func(t *testing.T) {
		var bs BurstScratch
		for _, v := range vectors {
			for lane := 0; lane < BurstLanes; lane++ {
				keys := make([]*CMAC, BurstLanes)
				flat := make([]byte, BurstLanes*v.n)
				rng.Read(flat)
				for j := range keys {
					keys[j], _ = New(randKey(rng))
				}
				keys[lane] = rfc
				copy(flat[lane*v.n:], rfcMsg[:v.n])
				out := make([]uint32, BurstLanes)
				SumBurstKeys32(keys, flat, v.n, out, &bs, nil)
				if got := fmt.Sprintf("%08x", out[lane]); got != v.mac[:8] {
					t.Fatalf("len %d in lane %d: %s, want %s", v.n, lane, got, v.mac[:8])
				}
			}
		}
	})
}

// A pipeline that stamps with a peer's Key-S and verifies with a
// victim's Key-V runs two CMAC instances over the same flows in turn.
// Both must stay cached: after one warm-up round, 64 flows under two
// alternating instances hit at least 90 % of the time. (A cache that
// maps a block to one slot whatever the key evicts the other key on
// every burst and never hits.) Only the crypto/aes path consults the
// cache, so the test drives that path directly.
func TestBlockCacheTwoKeysAlternating(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	stamp, _ := New(randKey(rng))
	verify, _ := New(randKey(rng))
	msgs := make([][]byte, 64)
	for i := range msgs {
		msgs[i] = make([]byte, 21)
		rng.Read(msgs[i])
	}
	var s scratch
	var bc BlockCache
	burst := func() {
		for _, k := range []*CMAC{stamp, verify} {
			for _, m := range msgs {
				k.sumAES(m, &s, &bc)
			}
		}
	}
	burst()
	bc.hits, bc.misses = 0, 0
	for round := 0; round < 10; round++ {
		burst()
	}
	rate := float64(bc.Hits()) / float64(bc.Hits()+bc.Misses())
	if rate < 0.9 {
		t.Fatalf("hit rate %.2f (hits %d, misses %d), want ≥ 0.90", rate, bc.Hits(), bc.Misses())
	}
	t.Logf("hit rate %.3f", rate)
}

// BenchmarkSumBurstKeys64x21B MACs 64 IPv4-sized messages under 16
// keys that change from message to message, the router-hostile shape,
// on each backend.
func BenchmarkSumBurstKeys64x21B(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const n, msgLen = 64, 21
	keys := make([]*CMAC, n)
	for i := range keys {
		if i < 16 {
			keys[i], _ = New(randKey(rng))
		} else {
			keys[i] = keys[rng.Intn(16)]
		}
	}
	flat := make([]byte, n*msgLen)
	rng.Read(flat)
	out := make([]uint32, n)
	saved := useKernel
	defer func() { useKernel = saved }()
	for _, kernel := range []bool{true, false} {
		if kernel && !hasAESNI() {
			continue
		}
		name := map[bool]string{true: "kernel", false: "crypto-aes"}[kernel]
		b.Run(name, func(b *testing.B) {
			useKernel = kernel
			var bs BurstScratch
			var bc BlockCache
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SumBurstKeys29(keys, flat, msgLen, out, &bs, &bc)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/mac")
		})
	}
}
