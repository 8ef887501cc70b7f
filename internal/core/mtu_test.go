package core

import (
	"net/netip"
	"testing"
	"time"

	"discs/internal/lpm"
	"discs/internal/packet"
	"discs/internal/topology"
)

// mtuRouter builds a stamping border router with a constrained
// external-link MTU.
func mtuRouter(t *testing.T, mtu int) *BorderRouter {
	t.Helper()
	pfx := lpm.New[topology.ASN]()
	pfx.Insert(netip.MustParsePrefix("2001:db8:1::/48"), 1)
	pfx.Insert(netip.MustParsePrefix("2001:db8:3::/48"), 3)
	tab := NewTables(1, pfx)
	tab.In[TableOutDst].Install(netip.MustParsePrefix("2001:db8:3::/48"),
		OpCDPStamp, t0, time.Hour, 0)
	tab.Keys.SetStampKey(3, make([]byte, 16))
	r := testRouter(tab, 1)
	r.externalMTU = mtu
	r.routerAddr = netip.MustParseAddr("2001:db8:1::1")
	return r
}

func v6Sized(payload int) *packet.IPv6 {
	return &packet.IPv6{
		HopLimit: 64, Proto: packet.ProtoUDP,
		Src:     netip.MustParseAddr("2001:db8:1::10"),
		Dst:     netip.MustParseAddr("2001:db8:3::10"),
		Payload: make([]byte, payload),
	}
}

// TestMTUPacketTooBig verifies §V-F: when stamping would exceed the
// external MTU, the packet is refused and an ICMPv6 "packet too big"
// announcing MTU−8 goes back to the source.
func TestMTUPacketTooBig(t *testing.T) {
	r := mtuRouter(t, 1500)
	var tooBig *packet.IPv6
	r.onPacketTooBig = func(p *packet.IPv6) { tooBig = p }
	now := t0.Add(time.Minute)

	// 1456-byte payload → 1496 on the wire; +8 stamp = 1504 > 1500.
	p := v6Sized(1456)
	if p.WireLen() != 1496 {
		t.Fatalf("setup: wire len = %d", p.WireLen())
	}
	if v := r.ProcessOutbound(V6{p}, now); v != VerdictDrop {
		t.Fatalf("verdict = %v, want drop", v)
	}
	if r.Stats().OutTooBig != 1 || r.Stats().OutStamped != 0 {
		t.Fatalf("stats = %+v", r.Stats())
	}
	if tooBig == nil {
		t.Fatal("no ICMPv6 generated")
	}
	if tooBig.Dst != p.Src {
		t.Fatalf("ICMP dst = %v", tooBig.Dst)
	}
	if tooBig.Payload[0] != packet.ICMPv6PacketTooBigType {
		t.Fatalf("ICMP type = %d", tooBig.Payload[0])
	}
	mtu := uint32(tooBig.Payload[4])<<24 | uint32(tooBig.Payload[5])<<16 |
		uint32(tooBig.Payload[6])<<8 | uint32(tooBig.Payload[7])
	if mtu != 1492 {
		t.Fatalf("announced MTU = %d, want 1500-8", mtu)
	}
}

// TestMTUSmallPacketStamps: packets that still fit after stamping flow
// normally.
func TestMTUSmallPacketStamps(t *testing.T) {
	r := mtuRouter(t, 1500)
	now := t0.Add(time.Minute)
	p := v6Sized(1400) // 1440 wire + 8 = 1448 ≤ 1500
	if v := r.ProcessOutbound(V6{p}, now); v != VerdictPassStamped {
		t.Fatalf("verdict = %v", v)
	}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 1500 {
		t.Fatalf("stamped packet %d bytes exceeds MTU", len(b))
	}
}

// TestMTUExactFit: a packet that lands exactly on the MTU after
// stamping is forwarded.
func TestMTUExactFit(t *testing.T) {
	r := mtuRouter(t, 1500)
	now := t0.Add(time.Minute)
	p := v6Sized(1452) // 1492 wire + 8 = 1500 exactly
	if v := r.ProcessOutbound(V6{p}, now); v != VerdictPassStamped {
		t.Fatalf("verdict = %v", v)
	}
}

// TestMTUDisabledByDefault: MTU 0 disables the check entirely.
func TestMTUDisabledByDefault(t *testing.T) {
	r := mtuRouter(t, 0)
	now := t0.Add(time.Minute)
	p := v6Sized(9000)
	if v := r.ProcessOutbound(V6{p}, now); v != VerdictPassStamped {
		t.Fatalf("verdict = %v", v)
	}
}

// TestMTUIgnoresIPv4: IPv4 stamping reuses existing header fields and
// never grows the packet, so the MTU check must not fire.
func TestMTUIgnoresIPv4(t *testing.T) {
	pfx := lpm.New[topology.ASN]()
	pfx.Insert(netip.MustParsePrefix("10.1.0.0/16"), 1)
	pfx.Insert(netip.MustParsePrefix("10.3.0.0/16"), 3)
	tab := NewTables(1, pfx)
	tab.In[TableOutDst].Install(netip.MustParsePrefix("10.3.0.0/16"),
		OpCDPStamp, t0, time.Hour, 0)
	tab.Keys.SetStampKey(3, make([]byte, 16))
	r := testRouter(tab, 1)
	r.externalMTU = 100 // absurdly small
	now := t0.Add(time.Minute)

	p := &packet.IPv4{
		TTL: 64, Protocol: packet.ProtoUDP,
		Src: netip.MustParseAddr("10.1.0.10"), Dst: netip.MustParseAddr("10.3.0.1"),
		Payload: make([]byte, 1400),
	}
	before := p.TotalLen()
	if v := r.ProcessOutbound(V4{p}, now); v != VerdictPassStamped {
		t.Fatalf("verdict = %v", v)
	}
	if p.TotalLen() != before {
		t.Fatal("IPv4 stamping changed the packet size")
	}
}

// TestMTUScrubTooBigEmbedded: the returning packet-too-big message
// embeds the unstamped original, so there is no mark to scrub — but a
// TTL-exceeded for an already-stamped packet must still be scrubbed
// (cross-check with the v6 scrubber).
func TestMTUWireLenMatchesMarshal(t *testing.T) {
	p := v6Sized(777)
	p.StampV6(42)
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if p.WireLen() != len(b) {
		t.Fatalf("WireLen %d != marshal %d", p.WireLen(), len(b))
	}
}
