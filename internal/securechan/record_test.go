package securechan

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// TestCTRXORMatchesNewCTR: the record layer's counter loop produces the
// keystream cipher.NewCTR produces from the IV 0^64 || BE64(seq), for
// every length up to 257 bytes (16 blocks and a partial one) and at
// sequences whose block counter carries into the IV's high half.
func TestCTRXORMatchesNewCTR(t *testing.T) {
	block, err := aes.NewCipher(bytes.Repeat([]byte{0x5a}, 16))
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 257)
	for i := range src {
		src[i] = byte(i * 7)
	}
	var sc ctrScratch
	for _, seq := range []uint64{0, 1, math.MaxUint64 - 1, math.MaxUint64} {
		for n := 0; n <= len(src); n++ {
			var iv [16]byte
			binary.BigEndian.PutUint64(iv[8:], seq)
			want := make([]byte, n)
			cipher.NewCTR(block, iv[:]).XORKeyStream(want, src[:n])
			got := make([]byte, n)
			ctrXOR(block, &sc, seq, got, src[:n])
			if !bytes.Equal(got, want) {
				t.Fatalf("seq %d, %d bytes: ctrXOR differs from cipher.NewCTR", seq, n)
			}
		}
	}
}

// TestRecordGolden pins the sealed bytes of records on a deterministic
// session, including one whose keystream crosses the 64-bit counter
// wrap: the wire format is unchanged by how the keystream is computed.
func TestRecordGolden(t *testing.T) {
	client, server := handshake(t)
	var got []string
	for _, n := range []int{0, 1, 17} {
		got = append(got, hex.EncodeToString(client.Seal(bytes.Repeat([]byte{byte(n)}, n))))
	}
	client.sendSeq = math.MaxUint64
	wrap := client.Seal(bytes.Repeat([]byte{0xee}, 40))
	got = append(got, hex.EncodeToString(wrap))
	want := []string{
		"0000000000000000d0d663f5ea49c7d1518418da2e048e40",
		"000000000000000154711991fa2c7d106bfcd0429e35625655",
		"00000000000000020041b50cbf4fbbd691841d5f47915af42b98dd461795177d8e913b638fc878f9ce",
		"ffffffffffffffff6935aa1de224abcffbb28b7799f91ff65bd6055a77472ff45c3a71191e99e3ab0e08a3a79726ce40ef74185375021d54f35ce9f4ddc35e0a",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %s\n want %s", i, got[i], want[i])
		}
	}
	server.recvSeq = math.MaxUint64
	plain, err := server.Open(wrap)
	if err != nil || !bytes.Equal(plain, bytes.Repeat([]byte{0xee}, 40)) {
		t.Fatalf("wrapped record does not open: %v", err)
	}
}

// TestSealOpenAllocs: a record costs exactly the buffer it returns.
func TestSealOpenAllocs(t *testing.T) {
	client, server := handshake(t)
	msg := make([]byte, 100)
	var rec []byte
	if n := testing.AllocsPerRun(100, func() { rec = client.Seal(msg) }); n != 1 {
		t.Errorf("Seal: %v allocs, want 1", n)
	}
	recs := make([][]byte, 0, 101)
	for i := 0; i < 101; i++ {
		recs = append(recs, client.Seal(msg))
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		if _, err := server.Open(recs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 1 {
		t.Errorf("Open: %v allocs, want 1", n)
	}
	_ = rec
}
