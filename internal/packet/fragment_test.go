package packet

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

func bigPacket(t testing.TB, n int) *IPv4 {
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i)
	}
	return &IPv4{
		TTL: 64, Protocol: ProtoUDP, ID: 0x4242,
		Src: netip.MustParseAddr("10.1.0.1"), Dst: netip.MustParseAddr("10.2.0.1"),
		Payload: payload,
	}
}

func TestFragmentReassembleRoundTrip(t *testing.T) {
	p := bigPacket(t, 3000)
	frags, err := fragmentIPv4(p, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 3 {
		t.Fatalf("got %d fragments", len(frags))
	}
	for _, f := range frags {
		if f.TotalLen() > 1500 {
			t.Fatalf("fragment exceeds MTU: %d", f.TotalLen())
		}
		if f.ID != p.ID {
			t.Fatal("fragment ID changed")
		}
	}
	got, err := reassembleIPv4(frags)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Fatal("payload mismatch after reassembly")
	}
	if got.Flags&FlagMF != 0 || got.FragOff != 0 {
		t.Fatal("reassembled packet still looks fragmented")
	}
}

func TestFragmentOutOfOrderReassembly(t *testing.T) {
	p := bigPacket(t, 2000)
	frags, err := fragmentIPv4(p, 576)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse order.
	rev := make([]*IPv4, len(frags))
	for i, f := range frags {
		rev[len(frags)-1-i] = f
	}
	got, err := reassembleIPv4(rev)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Fatal("out-of-order reassembly failed")
	}
}

func TestFragmentSmallPacketPassthrough(t *testing.T) {
	p := bigPacket(t, 100)
	frags, err := fragmentIPv4(p, 1500)
	if err != nil || len(frags) != 1 {
		t.Fatalf("frags = %d, %v", len(frags), err)
	}
	if frags[0] == p {
		t.Fatal("passthrough must clone")
	}
}

func TestFragmentDFRejected(t *testing.T) {
	p := bigPacket(t, 3000)
	p.Flags |= FlagDF
	if _, err := fragmentIPv4(p, 1500); err == nil {
		t.Fatal("DF packet fragmented")
	}
}

func TestFragmentTinyMTURejected(t *testing.T) {
	p := bigPacket(t, 3000)
	if _, err := fragmentIPv4(p, 24); err == nil {
		t.Fatal("MTU smaller than header accepted")
	}
}

func TestRefragmentRejected(t *testing.T) {
	p := bigPacket(t, 3000)
	frags, _ := fragmentIPv4(p, 1500)
	if _, err := fragmentIPv4(frags[0], 576); err == nil {
		t.Fatal("re-fragmentation should be refused")
	}
}

func TestReassembleErrors(t *testing.T) {
	if _, err := reassembleIPv4(nil); err == nil {
		t.Fatal("empty fragment list accepted")
	}
	p := bigPacket(t, 2000)
	frags, _ := fragmentIPv4(p, 576)
	// Missing middle fragment.
	if _, err := reassembleIPv4([]*IPv4{frags[0], frags[2]}); err == nil {
		t.Fatal("gap not detected")
	}
	// Missing final fragment.
	if _, err := reassembleIPv4(frags[:len(frags)-1]); err == nil {
		t.Fatal("missing tail not detected")
	}
	// Mixed datagrams.
	other := bigPacket(t, 2000)
	other.ID++
	oFrags, _ := fragmentIPv4(other, 576)
	if _, err := reassembleIPv4([]*IPv4{frags[0], oFrags[1]}); err == nil {
		t.Fatal("mixed datagrams not detected")
	}
}

// TestStampingBreaksReassembly demonstrates the §V-E collateral: a
// DISCS stamp rewrites IPID and Fragment Offset, so a stamped fragment
// can no longer be matched or reassembled — the paper accepts this for
// the ~0.06% of traffic that is fragmented, and only for protected
// prefixes.
func TestStampingBreaksReassembly(t *testing.T) {
	p := bigPacket(t, 2000)
	frags, err := fragmentIPv4(p, 576)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: reassembly works.
	if _, err := reassembleIPv4(frags); err != nil {
		t.Fatal(err)
	}
	// Stamp one fragment the way CDP would (rewrite the mark fields).
	frags[1].SetMark(0x0abcdef1)
	if _, err := reassembleIPv4(frags); err == nil {
		t.Fatal("reassembly should fail after the mark rewrote ID/FragOff")
	}
}

// Property: fragment→reassemble is the identity for random payloads
// and MTUs.
func TestPropertyFragmentRoundTrip(t *testing.T) {
	f := func(payload []byte, mtuSel uint8) bool {
		if len(payload) == 0 {
			return true
		}
		if len(payload) > 4000 {
			payload = payload[:4000]
		}
		mtu := 68 + int(mtuSel)*8 // 68..2108
		p := &IPv4{
			TTL: 64, Protocol: ProtoUDP, ID: 7,
			Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
			Payload: append([]byte(nil), payload...),
		}
		frags, err := fragmentIPv4(p, mtu)
		if err != nil {
			return false
		}
		got, err := reassembleIPv4(frags)
		if err != nil {
			return false
		}
		return bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
