package packet

import (
	"bytes"
	"net/netip"
	"testing"
)

// FuzzParseIPv4 checks that arbitrary bytes never panic the parser,
// that parsing into a dirty struct matches a fresh parse, and that
// accepted packets survive a marshal→parse round trip.
func FuzzParseIPv4(f *testing.F) {
	p := &IPv4{
		TTL: 64, Protocol: ProtoUDP, ID: 7, Flags: FlagDF,
		Src: mustAddr("10.0.0.1"), Dst: mustAddr("192.0.2.9"),
		Payload: []byte("seed"),
	}
	b, _ := p.Marshal()
	f.Add(b)
	f.Add([]byte{})
	f.Add([]byte{0x45})
	f.Add(bytes.Repeat([]byte{0xff}, 60))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := ParseIPv4(data)
		if err != nil {
			return
		}
		dirty := &IPv4{TTL: 9, Options: []byte{1, 2, 3, 4, 5, 6, 7, 8}, Payload: []byte("stale")}
		if err := ParseIPv4Into(dirty, data); err != nil || !equalIPv4(dirty, q) {
			t.Fatalf("parse into a dirty struct = %+v, %v; fresh parse %+v", dirty, err, q)
		}
		out, err := q.Marshal()
		if err != nil {
			t.Fatalf("parsed packet fails to marshal: %v", err)
		}
		r, err := ParseIPv4(out)
		if err != nil {
			t.Fatalf("marshal output fails to parse: %v", err)
		}
		if r.Src != q.Src || r.Dst != q.Dst || r.ID != q.ID ||
			r.FragOff != q.FragOff || !bytes.Equal(r.Payload, q.Payload) {
			t.Fatal("round trip not stable")
		}
		// Mark accessors must be total.
		q.SetMark(q.Mark())
		m := q.Msg()
		if bad := appendMsgMismatch(q.AppendMsg, make([]byte, 5, 32), m[:]); bad != "" {
			t.Fatalf("AppendMsg: %s", bad)
		}
	})
}

// FuzzParseIPv6 does the same for the IPv6 parser including the
// extension-header chain and the DISCS option walker.
func FuzzParseIPv6(f *testing.F) {
	p := &IPv6{
		HopLimit: 64, Proto: ProtoUDP,
		Src: mustAddr("2001:db8::1"), Dst: mustAddr("2001:db8::2"),
		Payload: []byte("seed"),
	}
	b, _ := p.Marshal()
	f.Add(b)
	p.StampV6(0xdeadbeef)
	b2, _ := p.Marshal()
	f.Add(b2)
	f.Add([]byte{0x60})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := ParseIPv6(data)
		if err != nil {
			return
		}
		out, err := q.Marshal()
		if err != nil {
			// Parsed chains re-marshal unless an ext body length is
			// inconsistent; the parser normalizes lengths, so this is a
			// bug.
			t.Fatalf("parsed packet fails to marshal: %v", err)
		}
		if _, err := ParseIPv6(out); err != nil {
			t.Fatalf("marshal output fails to parse: %v", err)
		}
		// Option accessors must be total even on junk chains.
		q.MarkV6()
		q.UnstampV6()
		m := q.Msg()
		if bad := appendMsgMismatch(q.AppendMsg, make([]byte, 5, 64), m[:]); bad != "" {
			t.Fatalf("AppendMsg: %s", bad)
		}
		_ = q.WireLen()
	})
}

// FuzzScrubICMPv4 ensures the raw-bytes scrubber never panics or
// corrupts checksums.
func FuzzScrubICMPv4(f *testing.F) {
	orig := &IPv4{
		TTL: 64, Protocol: ProtoUDP,
		Src: mustAddr("10.0.0.1"), Dst: mustAddr("192.0.2.9"),
		Payload: []byte("original"),
	}
	icmp, _ := ICMPv4TimeExceeded(mustAddr("203.0.113.1"), orig)
	b, _ := icmp.Marshal()
	f.Add(b)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseIPv4(data)
		if err != nil {
			return
		}
		if ScrubICMPv4EmbeddedMark(p, 0x1234567) {
			// A successful scrub must leave a valid ICMP checksum.
			if checksum(p.Payload) != 0 {
				t.Fatal("scrub corrupted ICMP checksum")
			}
		}
	})
}

// FuzzFragmentReassemble: reassembly of arbitrary fragment sets must
// never panic, and fragmenting any accepted packet round-trips.
func FuzzFragmentReassemble(f *testing.F) {
	p := &IPv4{
		TTL: 64, Protocol: ProtoUDP, ID: 9,
		Src: mustAddr("10.0.0.1"), Dst: mustAddr("10.0.0.2"),
		Payload: bytes.Repeat([]byte{0xab}, 3000),
	}
	b, _ := p.Marshal()
	f.Add(b, 576)
	f.Fuzz(func(t *testing.T, data []byte, mtu int) {
		q, err := ParseIPv4(data)
		if err != nil {
			return
		}
		if q.FragOff != 0 || q.Flags&FlagMF != 0 {
			// Already a fragment: Fragment passes it through, but a lone
			// middle fragment legitimately cannot reassemble.
			return
		}
		frags, err := fragmentIPv4(q, mtu)
		if err != nil {
			return
		}
		got, err := reassembleIPv4(frags)
		if err != nil {
			t.Fatalf("own fragments fail reassembly: %v", err)
		}
		if !bytes.Equal(got.Payload, q.Payload) {
			t.Fatal("fragment round trip corrupted payload")
		}
	})
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }
