package core

import (
	"net/netip"
	"testing"
	"time"
)

// BenchmarkSerialRoundTrip runs one IPv4 flow through the serial router
// path, the per-packet work System.SendV4 does at two DISCS borders:
// the peer stamps each packet (ProcessOutbound) and the victim
// verifies it (ProcessInbound).
func BenchmarkSerialRoundTrip(b *testing.B) {
	peer, victim := peerVictimSetup(b)
	now := t0.Add(time.Minute)
	p := samplePacketV4()
	p.Src = netip.MustParseAddr("10.1.0.10")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v := peer.ProcessOutbound(V4{p}, now); v != VerdictPassStamped {
			b.Fatalf("outbound %v", v)
		}
		if v := victim.ProcessInbound(V4{p}, now); v != VerdictPassVerified {
			b.Fatalf("inbound %v", v)
		}
	}
}

// BenchmarkSendV4 sends one legitimate flow end to end through
// System.SendV4: owner lookup, the source border's stamp, the AS path,
// and the victim border's verification, as TestSendV4Allocs sets it up.
func BenchmarkSendV4(b *testing.B) {
	s := testInternet(b)
	deploy(b, s, 1001, 1004)
	if _, err := s.Controllers[1004].Invoke(Invocation{
		Prefixes: []netip.Prefix{netip.MustParsePrefix("172.16.4.0/24")},
		Function: CDP, Duration: 24 * time.Hour,
	}); err != nil {
		b.Fatal(err)
	}
	s.Net.Sim.After(DefaultGrace+time.Second, func() {}) // strict verification
	if err := s.Settle(); err != nil {
		b.Fatal(err)
	}
	p := samplePacketV4()
	p.Src = netip.MustParseAddr("172.16.1.10")
	p.Dst = netip.MustParseAddr("172.16.4.10")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.TTL = 64
		if res := s.SendV4(1001, p); !res.Delivered {
			b.Fatalf("SendV4 = %+v", res)
		}
	}
}
