package packet

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

func v6(t testing.TB, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil || !a.Is6() {
		t.Fatalf("bad v6 addr %q: %v", s, err)
	}
	return a
}

func sampleV6(t testing.TB) *IPv6 {
	return &IPv6{
		TrafficClass: 0x20,
		FlowLabel:    0xabcde,
		HopLimit:     64,
		Proto:        ProtoUDP,
		Src:          v6(t, "2001:db8:1::10"),
		Dst:          v6(t, "2001:db8:2::20"),
		Payload:      []byte("ipv6 payload for discs"),
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	p := sampleV6(t)
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 40+len(p.Payload) {
		t.Fatalf("marshal len = %d", len(b))
	}
	q, err := ParseIPv6(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.TrafficClass != p.TrafficClass || q.FlowLabel != p.FlowLabel ||
		q.HopLimit != p.HopLimit || q.Proto != p.Proto ||
		q.Src != p.Src || q.Dst != p.Dst || !bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("round trip mismatch: %+v", q)
	}
}

func TestIPv6ParseErrors(t *testing.T) {
	if _, err := ParseIPv6(make([]byte, 20)); err == nil {
		t.Error("short should fail")
	}
	b := make([]byte, 40)
	b[0] = 4 << 4
	if _, err := ParseIPv6(b); err == nil {
		t.Error("wrong version should fail")
	}
	b[0] = 6 << 4
	b[4], b[5] = 0, 200 // payload length > buffer
	if _, err := ParseIPv6(b); err == nil {
		t.Error("bad payload length should fail")
	}
}

func TestIPv6MarshalRejectsV4(t *testing.T) {
	p := sampleV6(t)
	p.Src = netip.MustParseAddr("1.2.3.4")
	if _, err := p.Marshal(); err == nil {
		t.Error("v4 src should fail")
	}
}

func TestStampNewHeader(t *testing.T) {
	p := sampleV6(t)
	if err := p.StampV6(0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if len(p.Ext) != 1 || p.Ext[0].Kind != extDestOpts {
		t.Fatalf("ext chain = %+v", p.Ext)
	}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Stamping adds exactly 8 bytes (§V-F: at most 8 bytes).
	if len(b) != 40+8+len(p.Payload) {
		t.Fatalf("stamped len = %d", len(b))
	}
	q, err := ParseIPv6(b)
	if err != nil {
		t.Fatal(err)
	}
	mac, ok := q.MarkV6()
	if !ok || mac != 0xdeadbeef {
		t.Fatalf("mark = %08x %v", mac, ok)
	}
	if q.Proto != ProtoUDP {
		t.Fatalf("upper proto = %d", q.Proto)
	}
}

func TestStampExistingDestOpts(t *testing.T) {
	p := sampleV6(t)
	// Pre-existing destination options header with one unrelated option
	// (type 0x3e, 2 bytes data) padded to 8 bytes.
	p.Ext = []ExtHeader{{Kind: extDestOpts, Body: padOptions([]byte{0x3e, 2, 0xaa, 0xbb})}}
	before, _ := p.Marshal()
	if err := p.StampV6(0x01020304); err != nil {
		t.Fatal(err)
	}
	if len(p.Ext) != 1 {
		t.Fatalf("should reuse header, got %d headers", len(p.Ext))
	}
	after, _ := p.Marshal()
	if len(after)-len(before) > 8 {
		t.Fatalf("stamp grew packet by %d bytes, max 8", len(after)-len(before))
	}
	q, _ := ParseIPv6(after)
	mac, ok := q.MarkV6()
	if !ok || mac != 0x01020304 {
		t.Fatalf("mark = %08x %v", mac, ok)
	}
	// The unrelated option must survive.
	var sawOther bool
	walkOptions(q.Ext[0].Body, func(typ uint8, data []byte, _ int) bool {
		if typ == 0x3e && bytes.Equal(data, []byte{0xaa, 0xbb}) {
			sawOther = true
		}
		return true
	})
	if !sawOther {
		t.Fatal("unrelated option lost")
	}
}

func TestStampAfterHopByHop(t *testing.T) {
	p := sampleV6(t)
	p.Ext = []ExtHeader{{Kind: extHopByHop, Body: padOptions(nil)}}
	if err := p.StampV6(1); err != nil {
		t.Fatal(err)
	}
	if p.Ext[0].Kind != extHopByHop || p.Ext[1].Kind != extDestOpts {
		t.Fatalf("chain order wrong: %+v", p.Ext)
	}
}

func TestStampBeforeRouting(t *testing.T) {
	p := sampleV6(t)
	// Routing header: body is 6 bytes (total 8): type, segs left, +4 reserved.
	p.Ext = []ExtHeader{{Kind: extRouting, Body: make([]byte, 6)}}
	if err := p.StampV6(7); err != nil {
		t.Fatal(err)
	}
	if p.Ext[0].Kind != extDestOpts || p.Ext[1].Kind != extRouting {
		t.Fatalf("DISCS header must precede routing: %+v", p.Ext)
	}
	b, _ := p.Marshal()
	q, _ := ParseIPv6(b)
	if mac, ok := q.MarkV6(); !ok || mac != 7 {
		t.Fatalf("mark = %d %v", mac, ok)
	}
}

func TestDestOptsAfterRoutingNotUsed(t *testing.T) {
	// A destination-options header after a routing header is the
	// "DestOpts(2)" position; DISCS must not place its mark there and
	// must not read marks from there.
	p := sampleV6(t)
	p.Ext = []ExtHeader{
		{Kind: extRouting, Body: make([]byte, 6)},
		{Kind: extDestOpts, Body: padOptions([]byte{optionTypeDISCS, 4, 1, 2, 3, 4})},
	}
	if _, ok := p.MarkV6(); ok {
		t.Fatal("MarkV6 read from DestOpts after routing header")
	}
	if err := p.StampV6(9); err != nil {
		t.Fatal(err)
	}
	if p.Ext[0].Kind != extDestOpts {
		t.Fatal("stamp should insert a fresh header before routing")
	}
}

func TestDoubleStampRejected(t *testing.T) {
	p := sampleV6(t)
	if err := p.StampV6(1); err != nil {
		t.Fatal(err)
	}
	if err := p.StampV6(2); err == nil {
		t.Fatal("double stamp should fail")
	}
}

func TestUnstampRemovesWholeHeader(t *testing.T) {
	p := sampleV6(t)
	orig, _ := p.Marshal()
	p.StampV6(0xfeedface)
	if !p.UnstampV6() {
		t.Fatal("unstamp reported no-op")
	}
	b, _ := p.Marshal()
	if !bytes.Equal(b, orig) {
		t.Fatal("stamp+unstamp is not identity")
	}
	if p.UnstampV6() {
		t.Fatal("second unstamp should be no-op")
	}
}

func TestUnstampKeepsOtherOptions(t *testing.T) {
	p := sampleV6(t)
	p.Ext = []ExtHeader{{Kind: extDestOpts, Body: padOptions([]byte{0x3e, 2, 0xaa, 0xbb})}}
	orig, _ := p.Marshal()
	p.StampV6(42)
	if !p.UnstampV6() {
		t.Fatal("unstamp failed")
	}
	b, _ := p.Marshal()
	if !bytes.Equal(b, orig) {
		t.Fatalf("stamp+unstamp not identity with shared header:\n%x\n%x", b, orig)
	}
}

func TestMsgV6Layout(t *testing.T) {
	p := sampleV6(t)
	m := p.Msg()
	src := p.Src.As16()
	dst := p.Dst.As16()
	if !bytes.Equal(m[0:16], src[:]) || !bytes.Equal(m[16:32], dst[:]) {
		t.Fatal("msg addresses wrong")
	}
	if !bytes.Equal(m[32:40], p.Payload[:8]) {
		t.Fatal("msg payload wrong")
	}
}

func TestMsgV6StableUnderStamping(t *testing.T) {
	p := sampleV6(t)
	before := p.Msg()
	p.StampV6(123)
	if p.Msg() != before {
		t.Fatal("msg changed after stamping")
	}
	p.UnstampV6()
	if p.Msg() != before {
		t.Fatal("msg changed after unstamping")
	}
	// Hop limit is mutable: excluded.
	p.HopLimit--
	if p.Msg() != before {
		t.Fatal("msg depends on hop limit")
	}
}

func TestMsgV6ShortPayload(t *testing.T) {
	p := sampleV6(t)
	p.Payload = []byte{1, 2, 3}
	m := p.Msg()
	want := [8]byte{1, 2, 3}
	if !bytes.Equal(m[32:40], want[:]) {
		t.Fatalf("msg payload = %x", m[32:40])
	}
}

func TestStampOverhead(t *testing.T) {
	p := sampleV6(t)
	if got := p.StampOverheadV6(); got != 8 {
		t.Fatalf("fresh packet overhead = %d, want 8", got)
	}
	p.Ext = []ExtHeader{{Kind: extDestOpts, Body: padOptions([]byte{0x3e, 2, 0xaa, 0xbb})}}
	// Existing header is 8 bytes (4 option + 2 pad + 2 fixed); adding a
	// 6-byte option grows to 16 bytes: overhead 8.
	if got := p.StampOverheadV6(); got > 8 {
		t.Fatalf("overhead = %d, must be ≤ 8 (§V-F)", got)
	}
}

func TestICMPv6TimeExceededAndScrub(t *testing.T) {
	orig := sampleV6(t)
	orig.StampV6(0xcafebabe)
	router := v6(t, "2001:db8:ffff::1")
	icmp, err := NewICMPv6TimeExceeded(router, orig)
	if err != nil {
		t.Fatal(err)
	}
	if icmp.Proto != ProtoICMPv6 || icmp.Dst != orig.Src {
		t.Fatalf("icmp header wrong: %+v", icmp)
	}
	b, _ := icmp.Marshal()
	q, _ := ParseIPv6(b)
	emb, ok := ICMPv6Embedded(q)
	if !ok {
		t.Fatal("embedded not found")
	}
	if mac, ok := emb.MarkV6(); !ok || mac != 0xcafebabe {
		t.Fatalf("embedded mark = %08x %v", mac, ok)
	}
	// ICMPv6 checksum with pseudo-header must validate.
	srcb := q.Src.As16()
	dstb := q.Dst.As16()
	if checksumWithPseudo(srcb[:], dstb[:], ProtoICMPv6, q.Payload) != 0 {
		t.Fatal("ICMPv6 checksum invalid")
	}

	if !ScrubICMPv6EmbeddedMark(q, 0x11111111) {
		t.Fatal("scrub failed")
	}
	emb2, ok := ICMPv6Embedded(q)
	if !ok {
		t.Fatal("embedded lost after scrub")
	}
	if mac, _ := emb2.MarkV6(); mac == 0xcafebabe {
		t.Fatal("mark not scrubbed")
	}
	if checksumWithPseudo(srcb[:], dstb[:], ProtoICMPv6, q.Payload) != 0 {
		t.Fatal("ICMPv6 checksum invalid after scrub")
	}
}

func TestScrubICMPv6NoMarkNoOp(t *testing.T) {
	orig := sampleV6(t)
	icmp, _ := NewICMPv6TimeExceeded(v6(t, "2001:db8:ffff::1"), orig)
	b, _ := icmp.Marshal()
	q, _ := ParseIPv6(b)
	if ScrubICMPv6EmbeddedMark(q, 0) {
		t.Fatal("scrub of unmarked packet should be no-op")
	}
}

func TestICMPv6PacketTooBig(t *testing.T) {
	orig := sampleV6(t)
	icmp, err := NewICMPv6PacketTooBig(v6(t, "2001:db8:ffff::1"), orig, 1492)
	if err != nil {
		t.Fatal(err)
	}
	if icmp.Payload[0] != ICMPv6PacketTooBigType {
		t.Fatalf("type = %d", icmp.Payload[0])
	}
	mtu := uint32(icmp.Payload[4])<<24 | uint32(icmp.Payload[5])<<16 |
		uint32(icmp.Payload[6])<<8 | uint32(icmp.Payload[7])
	if mtu != 1492 {
		t.Fatalf("mtu = %d", mtu)
	}
}

func TestICMPv6ErrorTruncatedTo1280(t *testing.T) {
	orig := sampleV6(t)
	orig.Payload = make([]byte, 4000)
	icmp, err := NewICMPv6TimeExceeded(v6(t, "2001:db8:ffff::1"), orig)
	if err != nil {
		t.Fatal(err)
	}
	b, err := icmp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 1280 {
		t.Fatalf("ICMPv6 error %d bytes, must fit in 1280", len(b))
	}
}

func TestFragmentHeaderParsed(t *testing.T) {
	p := sampleV6(t)
	p.Ext = []ExtHeader{{Kind: extFragment, Body: make([]byte, 6)}}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseIPv6(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Ext) != 1 || q.Ext[0].Kind != extFragment {
		t.Fatalf("chain = %+v", q.Ext)
	}
}

func TestPadOptions(t *testing.T) {
	for n := 0; n < 24; n++ {
		body := padOptions(make([]byte, n))
		if (len(body)+2)%8 != 0 {
			t.Fatalf("padOptions(%d) -> %d bytes, +2 not multiple of 8", n, len(body))
		}
	}
}

// Property: stamp then unstamp is the identity on the wire for packets
// without extension headers.
func TestPropertyStampUnstampIdentity(t *testing.T) {
	f := func(payload []byte, mac uint32, hop uint8) bool {
		if len(payload) > 500 {
			payload = payload[:500]
		}
		p := &IPv6{
			HopLimit: hop, Proto: ProtoUDP,
			Src: netip.MustParseAddr("2001:db8::1"), Dst: netip.MustParseAddr("2001:db8::2"),
			Payload: payload,
		}
		orig, err := p.Marshal()
		if err != nil {
			return false
		}
		if p.StampV6(mac) != nil {
			return false
		}
		got, ok := p.MarkV6()
		if !ok || got != mac {
			return false
		}
		if !p.UnstampV6() {
			return false
		}
		after, err := p.Marshal()
		return err == nil && bytes.Equal(orig, after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStampV6(b *testing.B) {
	p := sampleV6(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := *p
		q.Ext = append([]ExtHeader(nil), p.Ext...)
		q.StampV6(uint32(i))
	}
}
