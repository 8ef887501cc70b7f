package packet

import (
	"bytes"
	"fmt"
	"testing"
)

// appendMsgMismatch reports how AppendMsg(dst) departs from dst followed
// by want, or "" when it does not. dst's spare capacity is filled with
// stale bytes first: the appended message must not keep any of them.
func appendMsgMismatch(appendMsg func([]byte) []byte, dst, want []byte) string {
	stale := dst[len(dst):cap(dst)]
	for i := range stale {
		stale[i] = 0xff
	}
	prefix := append([]byte(nil), dst...)
	got := appendMsg(dst)
	switch {
	case !bytes.Equal(got[:len(prefix)], prefix):
		return "prefix overwritten"
	case !bytes.Equal(got[len(prefix):], want):
		return fmt.Sprintf("appended %x, want %x", got[len(prefix):], want)
	}
	return ""
}

// AppendMsg ≡ Msg: with header options, with payloads shorter than the
// 8 message bytes, onto nil, onto a non-empty dst, and into spare
// capacity that holds stale bytes.
func TestAppendMsgMatchesMsg(t *testing.T) {
	dsts := func() [][]byte {
		return [][]byte{nil, {}, []byte("prefix"), make([]byte, 3, 64)}
	}
	for plen := 0; plen <= 9; plen++ {
		for _, opts := range [][]byte{nil, {7, 4, 0, 0}, {1, 1, 1, 1, 1, 1, 1, 0}} {
			p := samplePacket(t)
			p.Options, p.Payload = opts, bytes.Repeat([]byte{0xab}, plen)
			m := p.Msg()
			if m[0] != 4<<4|uint8(5+len(opts)/4) {
				t.Fatalf("options %x: msg[0] = %02x", opts, m[0])
			}
			for _, dst := range dsts() {
				if bad := appendMsgMismatch(p.AppendMsg, dst, m[:]); bad != "" {
					t.Fatalf("v4 payload %d options %x dst %q: %s", plen, opts, dst, bad)
				}
			}
		}
		q := sampleV6(t)
		q.Payload = bytes.Repeat([]byte{0xcd}, plen)
		q.StampV6(0x01020304) // a destination option in the chain
		m := q.Msg()
		for _, dst := range dsts() {
			if bad := appendMsgMismatch(q.AppendMsg, dst, m[:]); bad != "" {
				t.Fatalf("v6 payload %d dst %q: %s", plen, dst, bad)
			}
		}
	}
}
