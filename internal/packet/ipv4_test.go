package packet

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func v4(t testing.TB, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil || !a.Is4() {
		t.Fatalf("bad v4 addr %q: %v", s, err)
	}
	return a
}

func samplePacket(t testing.TB) *IPv4 {
	return &IPv4{
		TOS:      0,
		ID:       0x1234,
		Flags:    FlagDF,
		FragOff:  0,
		TTL:      64,
		Protocol: ProtoUDP,
		Src:      v4(t, "10.1.2.3"),
		Dst:      v4(t, "192.0.2.55"),
		Payload:  []byte("hello discs world"),
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	p := samplePacket(t)
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.TOS != p.TOS || q.ID != p.ID || q.Flags != p.Flags || q.FragOff != p.FragOff ||
		q.TTL != p.TTL || q.Protocol != p.Protocol || q.Src != p.Src || q.Dst != p.Dst {
		t.Fatalf("round trip mismatch: %+v vs %+v", q, p)
	}
	if !bytes.Equal(q.Payload, p.Payload) {
		t.Fatal("payload mismatch")
	}
	if q.Checksum != p.Checksum {
		t.Fatalf("checksum mismatch: %x vs %x", q.Checksum, p.Checksum)
	}
}

func TestIPv4ChecksumValid(t *testing.T) {
	p := samplePacket(t)
	b, _ := p.Marshal()
	// Header checksum of a valid header computes to zero when the
	// checksum field is included.
	var sum uint32
	for i := 0; i < 20; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	if uint16(sum) != 0xffff {
		t.Fatalf("header does not checksum to ones: %04x", sum)
	}
}

func TestIPv4ParseErrors(t *testing.T) {
	if _, err := ParseIPv4(make([]byte, 10)); err == nil {
		t.Error("short packet should fail")
	}
	b := make([]byte, 20)
	b[0] = 6 << 4
	if _, err := ParseIPv4(b); err == nil {
		t.Error("wrong version should fail")
	}
	b[0] = 4<<4 | 3 // IHL 12 bytes < 20
	if _, err := ParseIPv4(b); err == nil {
		t.Error("bad IHL should fail")
	}
	b[0] = 4<<4 | 5
	binary.BigEndian.PutUint16(b[2:4], 100) // total > len
	if _, err := ParseIPv4(b); err == nil {
		t.Error("bad total length should fail")
	}
}

func TestIPv4MarshalValidation(t *testing.T) {
	p := samplePacket(t)
	p.Src = netip.MustParseAddr("2001:db8::1")
	if _, err := p.Marshal(); err == nil {
		t.Error("v6 src in IPv4 should fail")
	}
	p = samplePacket(t)
	p.Payload = make([]byte, 70000)
	if _, err := p.Marshal(); err == nil {
		t.Error("oversize packet should fail")
	}
}

func TestIPv4Options(t *testing.T) {
	p := samplePacket(t)
	p.Options = []byte{7, 4, 0, 0} // 4-byte option
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.Options, p.Options) {
		t.Fatalf("options = %x", q.Options)
	}
	if q.headerLen() != 24 {
		t.Fatalf("header len = %d", q.headerLen())
	}
}

func TestMarkRoundTrip(t *testing.T) {
	p := samplePacket(t)
	p.SetMark(0x1abcdef5)
	if got := p.Mark(); got != 0x1abcdef5 {
		t.Fatalf("Mark = %08x", got)
	}
	// High bits beyond 29 are masked.
	p.SetMark(0xffffffff)
	if got := p.Mark(); got != 1<<29-1 {
		t.Fatalf("Mark = %08x, want %08x", got, uint32(1<<29-1))
	}
}

func TestMarkSplitsAcrossFields(t *testing.T) {
	p := samplePacket(t)
	p.SetMark(0b1000000000000001_0000000000011)
	// Top 16 bits -> ID, bottom 13 -> FragOff.
	if p.ID != 0b1000_0000_0000_0000|1 {
		t.Fatalf("ID = %04x", p.ID)
	}
	if p.FragOff != 3 {
		t.Fatalf("FragOff = %d", p.FragOff)
	}
}

func TestMarkPreservesFlags(t *testing.T) {
	p := samplePacket(t)
	p.Flags = FlagDF
	p.SetMark(0x0badf00d)
	if p.Flags != FlagDF {
		t.Fatal("SetMark must not touch Flags")
	}
	b, _ := p.Marshal()
	q, _ := ParseIPv4(b)
	if q.Flags != FlagDF || q.Mark() != 0x0badf00d {
		t.Fatalf("flags %03b mark %08x", q.Flags, q.Mark())
	}
}

func TestMsgV4Layout(t *testing.T) {
	p := samplePacket(t)
	m := p.Msg()
	if m[0] != 4<<4|5 {
		t.Errorf("msg[0] = %02x, want version|ihl", m[0])
	}
	if binary.BigEndian.Uint16(m[1:3]) != uint16(p.TotalLen()) {
		t.Error("msg total length wrong")
	}
	if m[3] != p.Flags<<5 {
		t.Errorf("msg flags byte = %02x", m[3])
	}
	if m[4] != ProtoUDP {
		t.Errorf("msg proto = %d", m[4])
	}
	src := p.Src.As4()
	dst := p.Dst.As4()
	if !bytes.Equal(m[5:9], src[:]) || !bytes.Equal(m[9:13], dst[:]) {
		t.Error("msg addresses wrong")
	}
	if !bytes.Equal(m[13:21], p.Payload[:8]) {
		t.Error("msg payload bytes wrong")
	}
}

func TestMsgV4ShortPayloadZeroPadded(t *testing.T) {
	p := samplePacket(t)
	p.Payload = []byte{0xaa, 0xbb}
	m := p.Msg()
	want := [8]byte{0xaa, 0xbb}
	if !bytes.Equal(m[13:21], want[:]) {
		t.Fatalf("msg payload = %x", m[13:21])
	}
}

func TestMsgV4ExcludesMarkFields(t *testing.T) {
	// Stamping (rewriting ID/FragOff) must not change the msg.
	p := samplePacket(t)
	before := p.Msg()
	p.SetMark(0x12345678 & (1<<29 - 1))
	after := p.Msg()
	if before != after {
		t.Fatal("msg changed after stamping")
	}
	// But TTL changes must not change msg either (mutable field).
	p.TTL--
	if p.Msg() != before {
		t.Fatal("msg depends on TTL")
	}
	// Changing an immutable field must change the msg.
	p.Protocol = ProtoTCP
	if p.Msg() == before {
		t.Fatal("msg ignores protocol")
	}
}

func TestIPv4Clone(t *testing.T) {
	p := samplePacket(t)
	p.Options = []byte{7, 4, 0, 0}
	q := p.Clone()
	q.Payload[0] = 'X'
	q.Options[0] = 9
	q.ID = 9999
	if p.Payload[0] == 'X' || p.Options[0] == 9 || p.ID == 9999 {
		t.Fatal("Clone shares state")
	}
}

func TestICMPv4TimeExceededAndEmbedded(t *testing.T) {
	orig := samplePacket(t)
	orig.SetMark(0x0ddba11 & (1<<29 - 1))
	router := v4(t, "203.0.113.1")
	icmp, err := ICMPv4TimeExceeded(router, orig)
	if err != nil {
		t.Fatal(err)
	}
	if icmp.Protocol != ProtoICMP || icmp.Dst != orig.Src || icmp.Src != router {
		t.Fatalf("icmp header wrong: %+v", icmp)
	}
	if icmp.Payload[0] != 11 {
		t.Fatalf("icmp type = %d", icmp.Payload[0])
	}
	if checksum(icmp.Payload) != 0 {
		t.Fatal("ICMP checksum invalid")
	}
	emb, ok := ICMPv4Embedded(icmp)
	if !ok {
		t.Fatal("embedded packet not found")
	}
	if emb.Src != orig.Src || emb.Dst != orig.Dst || emb.Mark() != orig.Mark() {
		t.Fatalf("embedded mismatch: %+v", emb)
	}
	if len(emb.Payload) != 8 {
		t.Fatalf("embedded payload = %d bytes, want 8", len(emb.Payload))
	}
}

func TestICMPv4EmbeddedRejectsNonError(t *testing.T) {
	p := samplePacket(t)
	if _, ok := ICMPv4Embedded(p); ok {
		t.Fatal("UDP packet should not yield embedded")
	}
	p.Protocol = ProtoICMP
	p.Payload = make([]byte, 40)
	p.Payload[0] = 8 // echo request: not an error
	if _, ok := ICMPv4Embedded(p); ok {
		t.Fatal("echo request should not yield embedded")
	}
}

func TestScrubICMPv4EmbeddedMark(t *testing.T) {
	orig := samplePacket(t)
	mark := uint32(0x1badf00d) & (1<<29 - 1)
	orig.SetMark(mark)
	icmp, err := ICMPv4TimeExceeded(v4(t, "203.0.113.1"), orig)
	if err != nil {
		t.Fatal(err)
	}
	// Serialize and reparse: scrubbing happens at the inspecting border
	// router, which sees raw bytes.
	b, _ := icmp.Marshal()
	q, _ := ParseIPv4(b)

	if !ScrubICMPv4EmbeddedMark(q, 0) {
		t.Fatal("scrub reported no-op")
	}
	emb, ok := ICMPv4Embedded(q)
	if !ok {
		t.Fatal("embedded lost after scrub")
	}
	if emb.Mark() == mark {
		t.Fatal("mark not scrubbed")
	}
	if emb.Mark() != 0 {
		t.Fatalf("mark = %08x, want 0", emb.Mark())
	}
	if emb.Flags != orig.Flags {
		t.Fatal("scrub damaged Flags")
	}
	if emb.Src != orig.Src || emb.Dst != orig.Dst || emb.Protocol != orig.Protocol {
		t.Fatal("scrub damaged embedded header")
	}
	// Outer ICMP checksum must still validate.
	if checksum(q.Payload) != 0 {
		t.Fatal("ICMP checksum invalid after scrub")
	}
	// Embedded header checksum must validate too.
	if checksum(q.Payload[8:8+20]) != 0 {
		t.Fatal("embedded checksum invalid after scrub")
	}
}

func TestScrubICMPv4NoOpOnNonError(t *testing.T) {
	p := samplePacket(t)
	if ScrubICMPv4EmbeddedMark(p, 0) {
		t.Fatal("scrub should refuse non-ICMP")
	}
}

// Property: marshal→parse round trip preserves all fields for random
// packets.
func TestPropertyIPv4RoundTrip(t *testing.T) {
	f := func(tos uint8, id uint16, flags, ttl, proto uint8, fo uint16, src, dst [4]byte, payload []byte) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		p := &IPv4{
			TOS: tos, ID: id, Flags: flags & 7, FragOff: fo & 0x1fff,
			TTL: ttl, Protocol: proto,
			Src: netip.AddrFrom4(src), Dst: netip.AddrFrom4(dst),
			Payload: payload,
		}
		b, err := p.Marshal()
		if err != nil {
			return false
		}
		q, err := ParseIPv4(b)
		if err != nil {
			return false
		}
		return q.TOS == p.TOS && q.ID == p.ID && q.Flags == p.Flags &&
			q.FragOff == p.FragOff && q.TTL == p.TTL && q.Protocol == p.Protocol &&
			q.Src == p.Src && q.Dst == p.Dst && bytes.Equal(q.Payload, p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: SetMark/Mark round-trips any 29-bit value.
func TestPropertyMarkRoundTrip(t *testing.T) {
	f := func(mark uint32) bool {
		p := &IPv4{Src: netip.AddrFrom4([4]byte{1, 2, 3, 4}), Dst: netip.AddrFrom4([4]byte{5, 6, 7, 8})}
		p.SetMark(mark)
		return p.Mark() == mark&(1<<29-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 style example.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	got := checksum(b)
	// Sum = 0x0001+0xf203+0xf4f5+0xf6f7 = 0x2ddf0 -> 0xddf2 -> ^= 0x220d
	if got != 0x220d {
		t.Fatalf("checksum = %04x, want 220d", got)
	}
	// Odd length pads with zero.
	if checksum([]byte{0xab}) != ^uint16(0xab00) {
		t.Fatal("odd-length checksum wrong")
	}
}

func BenchmarkIPv4Marshal(b *testing.B) {
	p := samplePacket(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIPv4Parse(b *testing.B) {
	p := samplePacket(b)
	buf, _ := p.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseIPv4(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// equalIPv4 compares every field of two parsed packets, treating nil
// and empty byte slices alike.
func equalIPv4(a, b *IPv4) bool {
	return a.TOS == b.TOS && a.ID == b.ID && a.Flags == b.Flags && a.FragOff == b.FragOff &&
		a.TTL == b.TTL && a.Protocol == b.Protocol && a.Checksum == b.Checksum &&
		a.Src == b.Src && a.Dst == b.Dst &&
		bytes.Equal(a.Options, b.Options) && bytes.Equal(a.Payload, b.Payload)
}

// TestParseIPv4IntoDirty: parsing into a struct left dirty by an
// earlier packet — with longer options, a longer payload, other
// addresses — gives exactly what ParseIPv4 gives on a fresh struct;
// no option byte of the earlier packet survives.
func TestParseIPv4IntoDirty(t *testing.T) {
	// parseIPv4Into stores the fields one by one; a new field must be
	// stored there (and compared in equalIPv4) too.
	if n := reflect.TypeOf(IPv4{}).NumField(); n != 11 {
		t.Fatalf("IPv4 has %d fields; parseIPv4Into and equalIPv4 cover 11", n)
	}
	withOpts := samplePacket(t)
	withOpts.Options = []byte{7, 8, 1, 2, 3, 4, 5, 6}
	withOpts.Payload = bytes.Repeat([]byte{0xee}, 300)
	shortOpts := samplePacket(t)
	shortOpts.Options = []byte{9, 4, 0xaa, 0xbb}
	plain := samplePacket(t)
	plain.Src, plain.Dst = v4(t, "198.51.100.7"), v4(t, "203.0.113.9")

	var dirty IPv4
	for _, seq := range [][]*IPv4{{withOpts, plain}, {withOpts, shortOpts}, {shortOpts, withOpts, plain}} {
		for _, p := range seq {
			b, err := p.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := ParseIPv4(b)
			if err != nil {
				t.Fatal(err)
			}
			if err := ParseIPv4Into(&dirty, b); err != nil {
				t.Fatal(err)
			}
			if !equalIPv4(&dirty, fresh) {
				t.Fatalf("dirty parse %+v\n        != fresh %+v", dirty, *fresh)
			}
			if len(dirty.Options) != len(p.Options) {
				t.Fatalf("options %x leak past the packet's %x", dirty.Options, p.Options)
			}
		}
	}
}

// TestParseIPv4IntoErrorLeavesStruct: a malformed packet reports an
// error and leaves the destination as it was.
func TestParseIPv4IntoErrorLeavesStruct(t *testing.T) {
	good := samplePacket(t)
	b, _ := good.Marshal()
	var p IPv4
	if err := ParseIPv4Into(&p, b); err != nil {
		t.Fatal(err)
	}
	before := p
	bad := append([]byte(nil), b...)
	binary.BigEndian.PutUint16(bad[2:4], 1000) // total length past the buffer
	if err := ParseIPv4Into(&p, bad); err == nil {
		t.Fatal("bad total length accepted")
	}
	if !equalIPv4(&p, &before) {
		t.Fatalf("failed parse changed the struct: %+v", p)
	}
}

// TestAppendMarshal: AppendMarshal(prefix) is prefix followed by
// Marshal(), even into spare capacity full of stale bytes, and leaves
// prefix untouched on error.
func TestAppendMarshal(t *testing.T) {
	p := samplePacket(t)
	p.Options = []byte{7, 3, 1} // padded to 4 on the wire
	want, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("train:")
	for _, dst := range [][]byte{
		nil,
		append([]byte(nil), prefix...),
		append(make([]byte, 0, 256), prefix...),
		append(bytes.Repeat([]byte{0xff}, 256)[:0], prefix...), // stale capacity
	} {
		got, err := p.AppendMarshal(dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(dst)], dst) || !bytes.Equal(got[len(dst):], want) {
			t.Fatalf("AppendMarshal(%q) = %x, want prefix + %x", dst, got, want)
		}
	}

	bad := samplePacket(t)
	bad.Dst = netip.MustParseAddr("2001:db8::1")
	dst := append(make([]byte, 0, 64), prefix...)
	got, err := bad.AppendMarshal(dst)
	if err == nil {
		t.Fatal("v6 address marshalled into IPv4")
	}
	if len(got) != len(prefix) || !bytes.Equal(got, prefix) {
		t.Fatalf("failed AppendMarshal returned %q, want the prefix %q", got, prefix)
	}
	if !bytes.Equal(dst[:cap(dst)][len(prefix):len(prefix)+20], make([]byte, 20)) {
		t.Fatal("failed AppendMarshal wrote into the spare capacity")
	}
}

// TestMalformedParseZeroAlloc: rejecting a malformed packet costs no
// garbage — the parse errors are sentinels, not formatted messages.
func TestMalformedParseZeroAlloc(t *testing.T) {
	b, _ := samplePacket(t).Marshal()
	badTotal := append([]byte(nil), b...)
	binary.BigEndian.PutUint16(badTotal[2:4], 1000)
	var p IPv4
	for name, raw := range map[string][]byte{"short": b[:10], "total length": badTotal} {
		if n := testing.AllocsPerRun(100, func() {
			if ParseIPv4Into(&p, raw) == nil {
				t.Fatal("malformed packet accepted")
			}
		}); n != 0 {
			t.Errorf("ParseIPv4Into(%s) allocates %v per packet", name, n)
		}
	}
	v6 := make([]byte, 40)
	v6[0] = 6 << 4
	v6[5] = 200 // payload length past the buffer
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ParseIPv6(v6); err == nil {
			t.Fatal("malformed IPv6 packet accepted")
		}
	}); n != 0 {
		t.Errorf("ParseIPv6(payload length) allocates %v per packet", n)
	}
}
