package packet

import (
	"encoding/hex"
	"net/netip"
	"testing"
)

// Golden wire-format tests: the exact bytes of stamped packets are part
// of DISCS's backward-compatibility contract (§V-E/§V-F); any change to
// them breaks interop between stamping and verification ends.

func TestGoldenStampedIPv4(t *testing.T) {
	p := &IPv4{
		TOS: 0, TTL: 64, Protocol: ProtoUDP, Flags: FlagDF,
		Src:     netip.MustParseAddr("10.1.0.10"),
		Dst:     netip.MustParseAddr("10.3.0.1"),
		Payload: []byte{0xde, 0xad, 0xbe, 0xef},
	}
	p.SetMark(0x15555555) // 29-bit pattern across IPID+FragOff
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	const want = "45000018" + // ver|ihl, tos, total length 24
		"aaaa" + // IPID = mark >> 13
		"5555" + // flags(010=DF) | fragoff = mark & 0x1fff: 0b010 1010101010101
		"4011" + // ttl 64, proto 17
		"66c7" + // header checksum (validated by TestIPv4ChecksumValid)
		"0a01000a" + // src
		"0a030001" + // dst
		"deadbeef"
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("stamped IPv4 bytes changed:\n got %s\nwant %s", got, want)
	}
	// And the mark reads back.
	q, err := ParseIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.Mark() != 0x15555555 {
		t.Fatalf("mark = %08x", q.Mark())
	}
}

func TestGoldenStampedIPv6(t *testing.T) {
	p := &IPv6{
		HopLimit: 64, Proto: ProtoUDP,
		Src:     netip.MustParseAddr("2001:db8:1::a"),
		Dst:     netip.MustParseAddr("2001:db8:3::1"),
		Payload: []byte{0xde, 0xad},
	}
	if err := p.StampV6(0xcafebabe); err != nil {
		t.Fatal(err)
	}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Reference bytes: base header (ver/tc/flow, payload length 10,
	// next header 60 = destination options, hop limit 64), addresses,
	// then the 8-byte options header (inner next header UDP, ext len 0,
	// DISCS option 0x26 length 4 with the 32-bit mark) and the payload.
	ref := make([]byte, 0, len(b))
	ref = append(ref, 0x60, 0, 0, 0, 0x00, 0x0a, 0x3c, 0x40)
	src := p.Src.As16()
	dst := p.Dst.As16()
	ref = append(ref, src[:]...)
	ref = append(ref, dst[:]...)
	ref = append(ref, 0x11, 0x00, 0x26, 0x04, 0xca, 0xfe, 0xba, 0xbe)
	ref = append(ref, 0xde, 0xad)
	if hex.EncodeToString(b) != hex.EncodeToString(ref) {
		t.Fatalf("stamped IPv6 bytes changed:\n got %s\nwant %s",
			hex.EncodeToString(b), hex.EncodeToString(ref))
	}
}

// TestGoldenScrubbedICMPv4 pins the exact bytes of a TTL-exceeded
// message after the border router scrubbed the embedded mark (§VI-E2).
// The scrub is an in-place patch: relative to the unscrubbed message,
// only the embedded IPID/Fragment-Offset bytes, the embedded header
// checksum and the outer ICMP checksum may differ — in particular the
// embedded Total Length still describes the full original datagram
// (31 bytes here), not the 28-byte snippet the error carries.
func TestGoldenScrubbedICMPv4(t *testing.T) {
	orig := &IPv4{
		TTL: 7, Protocol: ProtoUDP, Flags: FlagDF,
		Src:     netip.MustParseAddr("10.1.0.10"),
		Dst:     netip.MustParseAddr("10.3.0.1"),
		Payload: []byte("discs-mark1"), // 11 bytes: embed truncates to 8
	}
	orig.SetMark(0x15555555)
	icmp, err := ICMPv4TimeExceeded(netip.MustParseAddr("203.0.113.1"), orig)
	if err != nil {
		t.Fatal(err)
	}
	b, err := icmp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if !ScrubICMPv4EmbeddedMark(q, 0x0badcafe) {
		t.Fatal("scrub reported no-op")
	}
	out, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	const want = "45000038" + // outer: ver|ihl, tos, total length 56
		"00000000" + // outer IPID/flags/fragoff (unmarked)
		"400134b9" + // ttl 64, proto 1 (ICMP), outer header checksum
		"cb007101" + // outer src 203.0.113.1
		"0a01000a" + // outer dst: the original sender
		"0b003ca4" + // ICMP type 11, code 0, checksum after scrub
		"00000000" + // ICMP unused word
		// Embedded original header, mark scrubbed in place:
		"4500001f" + // ver|ihl, tos, Total Length 31 = FULL datagram, preserved
		"5d6e4afe" + // IPID=0x0badcafe>>13, fragoff=low 13 bits, DF flag kept
		"0711f753" + // ttl 7, proto UDP, embedded checksum after scrub
		"0a01000a" + // embedded src
		"0a030001" + // embedded dst
		"64697363732d6d61" // first 8 payload bytes: "discs-ma"
	if got := hex.EncodeToString(out); got != want {
		t.Fatalf("scrubbed ICMPv4 bytes changed:\n got %s\nwant %s", got, want)
	}
}

// TestGoldenDISCSOptionType pins the §V-F option type bits: 00 (skip
// unknown) + 1 (mutable en route) + 00110.
func TestGoldenDISCSOptionType(t *testing.T) {
	if optionTypeDISCS != 0x26 {
		t.Fatalf("option type = %#x", optionTypeDISCS)
	}
	if optionTypeDISCS>>6 != 0 {
		t.Fatal("high bits must be 00: legacy nodes skip and continue")
	}
	if optionTypeDISCS&0x20 == 0 {
		t.Fatal("change-en-route bit must be set (AH exclusion)")
	}
}
