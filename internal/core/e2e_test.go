package core

import (
	"net/netip"
	"testing"
	"time"

	"discs/internal/packet"
	"discs/internal/topology"
)

// invokeAll invokes the given functions for the victim's whole address
// space and settles.
func invokeAll(t *testing.T, s *System, victim topology.ASN, funcs ...Function) {
	t.Helper()
	c := s.Controllers[victim]
	var invs []Invocation
	for _, f := range funcs {
		invs = append(invs, Invocation{
			Prefixes: c.OwnPrefixes(),
			Function: f,
			Duration: 24 * time.Hour,
		})
	}
	if _, err := c.Invoke(invs...); err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	// Step past the grace interval so verification enforces.
	s.Net.Sim.After(DefaultGrace+time.Second, func() {})
	s.Settle()
}

func mkV4(src, dst string) *packet.IPv4 {
	return &packet.IPv4{
		TTL: 64, Protocol: packet.ProtoUDP,
		Src: netip.MustParseAddr(src), Dst: netip.MustParseAddr(dst),
		Payload: []byte("e2e payload"),
	}
}

// TestE2EDDoSDefense runs the full paper scenario on the data plane:
// AS1004 is under d-DDoS from agents in AS1001 (a DAS peer) and AS1002
// (legacy). After invoking DP+CDP:
//   - spoofed packets leaving the peer are dropped at the peer (DP),
//   - spoofed packets claiming peer sources from legacy ASes are
//     dropped at the victim (CDP verification),
//   - genuine traffic keeps flowing (IFP-free).
func TestE2EDDoSDefense(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	invokeAll(t, s, 1004, DP, CDP)

	// 1. Agent in AS1001 spoofing arbitrary source → dropped at AS1001.
	res := s.SendV4(1001, mkV4("203.0.113.7", "172.16.4.10"))
	if res.Delivered || res.DroppedAt != 1001 {
		t.Fatalf("spoofed-at-peer result = %+v", res)
	}

	// 2. Agent in legacy AS1002 spoofing AS1001's (peer) space →
	//    dropped at the victim by CDP verification.
	res = s.SendV4(1002, mkV4("172.16.1.99", "172.16.4.10"))
	if res.Delivered || res.DroppedAt != 1004 {
		t.Fatalf("spoofed-peer-src result = %+v", res)
	}

	// 3. Genuine traffic from the peer → stamped, verified, delivered.
	res = s.SendV4(1001, mkV4("172.16.1.10", "172.16.4.10"))
	if !res.Delivered {
		t.Fatalf("genuine peer traffic dropped: %+v", res)
	}
	sawStamp, sawVerify := false, false
	for _, h := range res.Hops() {
		if h.Verdict == VerdictPassStamped {
			sawStamp = true
		}
		if h.Verdict == VerdictPassVerified {
			sawVerify = true
		}
	}
	if !sawStamp || !sawVerify {
		t.Fatalf("hops = %+v", res.Hops())
	}

	// 4. Genuine traffic from a legacy AS (its own space) → delivered:
	//    CDP-verify only applies to peer sources.
	res = s.SendV4(1002, mkV4("172.16.2.10", "172.16.4.10"))
	if !res.Delivered {
		t.Fatalf("legacy genuine traffic dropped: %+v", res)
	}

	// 5. Traffic to a different destination is never touched.
	res = s.SendV4(1001, mkV4("172.16.1.10", "172.16.3.10"))
	if !res.Delivered {
		t.Fatalf("unrelated traffic dropped: %+v", res)
	}
}

// TestE2ESingleMark is the mark-count ablation against Passport's
// per-hop marks: even when every AS on the path has deployed, a
// protected packet carries one destination mark, so it costs exactly
// two MACs system-wide (the stamp at the source, the check at the
// victim).
func TestE2ESingleMark(t *testing.T) {
	s := testInternet(t)
	// The whole path 1001 → 100 → 10 → 20 → 300 → 1004.
	deploy(t, s, 1001, 100, 10, 20, 300, 1004)
	invokeAll(t, s, 1004, DP, CDP)
	macs := func() (n uint64) {
		for asn := range s.Controllers {
			n += s.Router(asn).Stats().MACsComputed
		}
		return n
	}
	before := macs()
	res := s.SendV4(1001, mkV4("172.16.1.10", "172.16.4.10"))
	if !res.Delivered {
		t.Fatalf("genuine traffic dropped: %+v", res)
	}
	hops := res.Hops()
	if len(hops) != 2 || hops[0].Verdict != VerdictPassStamped || hops[1].Verdict != VerdictPassVerified {
		t.Fatalf("hops = %+v, want stamp at AS1001 and verify at AS1004", hops)
	}
	if n := macs() - before; n != 2 {
		t.Fatalf("one protected packet cost %d MACs, want 2", n)
	}
}

// TestE2EReflectionDefense exercises SP+CSP against s-DDoS: agents
// spoof the victim's source toward reflectors.
func TestE2EReflectionDefense(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	invokeAll(t, s, 1004, SP, CSP)

	// Agent in peer AS1001 sends a request spoofing victim AS1004's
	// source toward a reflector in legacy AS1003 → dropped at AS1001
	// by SP.
	res := s.SendV4(1001, mkV4("172.16.4.66", "172.16.3.10"))
	if res.Delivered || res.DroppedAt != 1001 {
		t.Fatalf("reflection request result = %+v", res)
	}

	// Agent in legacy AS1002 spoofs the victim's source toward the
	// peer AS1001: CSP verification at the peer drops it (no valid
	// mark).
	res = s.SendV4(1002, mkV4("172.16.4.66", "172.16.1.10"))
	if res.Delivered || res.DroppedAt != 1001 {
		t.Fatalf("spoofed-to-peer result = %+v", res)
	}

	// The victim's genuine requests to the peer are stamped (CSP) and
	// verified.
	res = s.SendV4(1004, mkV4("172.16.4.10", "172.16.1.10"))
	if !res.Delivered {
		t.Fatalf("victim's genuine request dropped: %+v", res)
	}

	// The victim's requests to legacy ASes are unstamped but flow.
	res = s.SendV4(1004, mkV4("172.16.4.10", "172.16.3.10"))
	if !res.Delivered {
		t.Fatalf("victim's request to legacy dropped: %+v", res)
	}
}

// TestE2EIPv6 runs CDP over IPv6 end to end, checking the option is
// added and removed transparently.
func TestE2EIPv6(t *testing.T) {
	s := testInternet(t)
	// Add IPv6 prefixes for two stubs.
	if err := s.Net.Topo.AddPrefix(1001, netip.MustParsePrefix("2001:db8:1::/48")); err != nil {
		t.Fatal(err)
	}
	if err := s.Net.Topo.AddPrefix(1004, netip.MustParsePrefix("2001:db8:4::/48")); err != nil {
		t.Fatal(err)
	}
	s.Net.Speakers[1001].Originate(netip.MustParsePrefix("2001:db8:1::/48"))
	s.Net.Speakers[1004].Originate(netip.MustParsePrefix("2001:db8:4::/48"))
	if err := s.Net.Converge(); err != nil {
		t.Fatal(err)
	}
	deploy(t, s, 1001, 1004)
	c := s.Controllers[1004]
	if _, err := c.Invoke(Invocation{
		Prefixes: []netip.Prefix{netip.MustParsePrefix("2001:db8:4::/48")},
		Function: CDP, Duration: 24 * time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	s.Settle()
	s.Net.Sim.After(DefaultGrace+time.Second, func() {})
	s.Settle()

	p := &packet.IPv6{
		HopLimit: 64, Proto: packet.ProtoUDP,
		Src:     netip.MustParseAddr("2001:db8:1::10"),
		Dst:     netip.MustParseAddr("2001:db8:4::10"),
		Payload: []byte("v6 e2e"),
	}
	res := s.SendV6(1001, p)
	if !res.Delivered {
		t.Fatalf("genuine v6 dropped: %+v", res)
	}
	if _, has := p.MarkV6(); has {
		t.Fatal("DISCS option visible after delivery (not erased)")
	}

	// Spoofed v6 claiming the peer's space from a legacy AS.
	q := &packet.IPv6{
		HopLimit: 64, Proto: packet.ProtoUDP,
		Src:     netip.MustParseAddr("2001:db8:1::bad"),
		Dst:     netip.MustParseAddr("2001:db8:4::10"),
		Payload: []byte("v6 spoof"),
	}
	res = s.SendV6(1002, q)
	if res.Delivered || res.DroppedAt != 1004 {
		t.Fatalf("spoofed v6 result = %+v", res)
	}
}

// TestE2ELegacyVictimUnprotected confirms the incentive property: an
// AS that has not deployed DISCS gets no protection (§III-B).
func TestE2ELegacyVictimUnprotected(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	invokeAll(t, s, 1004, DP, CDP)
	// Spoofed traffic toward legacy AS1003 sails through everywhere.
	res := s.SendV4(1001, mkV4("203.0.113.7", "172.16.3.10"))
	if !res.Delivered {
		t.Fatalf("spoofed traffic to legacy AS dropped: %+v — DISCS must be on-demand only", res)
	}
}

// TestE2EOnDemandOnly confirms no data-plane work happens before an
// invocation even with peering and keys in place.
func TestE2EOnDemandOnly(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	res := s.SendV4(1001, mkV4("203.0.113.7", "172.16.4.10"))
	if !res.Delivered {
		t.Fatalf("packet dropped without invocation: %+v", res)
	}
	if s.Router(1001).Stats().MACsComputed+s.Router(1004).Stats().MACsComputed != 0 {
		t.Fatal("crypto ran without invocation")
	}
}

// TestE2EExpiryRestoresNormalForwarding lets the invocation lapse and
// checks that spoofed traffic flows again (no stuck state).
func TestE2EExpiryRestoresNormalForwarding(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	c := s.Controllers[1004]
	if _, err := c.Invoke(Invocation{
		Prefixes: c.OwnPrefixes(), Function: DP, Duration: time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	s.Settle()
	res := s.SendV4(1001, mkV4("203.0.113.7", "172.16.4.10"))
	if res.Delivered {
		t.Fatal("spoofed packet delivered during invocation")
	}
	// Let the window lapse.
	s.Net.Sim.After(2*time.Minute, func() {})
	s.Settle()
	res = s.SendV4(1001, mkV4("203.0.113.7", "172.16.4.10"))
	if !res.Delivered {
		t.Fatalf("spoofed packet still dropped after expiry: %+v", res)
	}
}

// TestE2EAlarmEscalation drives alarm-mode: the victim invokes CDP in
// alarm mode, spoofed packets pass but are sampled, and when the
// threshold is crossed the controller tells peers to quit alarm mode.
func TestE2EAlarmEscalation(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	victim := s.Controllers[1004]
	victim.cfg.AlarmThreshold = 10
	detected := topology.ASN(0)
	victim.OnAttackDetected = func(src topology.ASN) { detected = src }

	if _, err := victim.Invoke(Invocation{
		Prefixes: victim.OwnPrefixes(), Function: CDP, Duration: 24 * time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	s.Settle()
	victim.SetAlarmMode(true)
	s.Net.Sim.After(DefaultGrace+time.Second, func() {})
	s.Settle()

	// Spoofed packets (claiming peer space) pass in alarm mode...
	res := s.SendV4(1002, mkV4("172.16.1.99", "172.16.4.10"))
	if !res.Delivered {
		t.Fatalf("alarm mode dropped: %+v", res)
	}
	// ...until the threshold is crossed.
	for i := 0; i < 15; i++ {
		s.SendV4(1002, mkV4("172.16.1.99", "172.16.4.10"))
	}
	if detected == 0 {
		t.Fatal("attack not detected")
	}
	// Alarm mode is off now: next spoofed packet drops.
	res = s.SendV4(1002, mkV4("172.16.1.99", "172.16.4.10"))
	if res.Delivered {
		t.Fatal("spoofed packet delivered after alarm escalation")
	}
}

// TestE2ETTLExpiryScrubsMark reproduces the §VI-E2 replay-learning
// attack: a host inside the stamping DAS sends a packet whose TTL
// expires right outside the border and reads the returned ICMP. The
// DAS border must scrub the embedded mark.
func TestE2ETTLExpiryScrubsMark(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	invokeAll(t, s, 1004, DP, CDP)

	// TTL=1: expires at the first transit AS (AS100).
	p := mkV4("172.16.1.10", "172.16.4.10")
	p.TTL = 1
	res := s.SendV4(1001, p)
	if res.Delivered || !res.TTLExpired {
		t.Fatalf("result = %+v, want TTL expiry", res)
	}
	if res.ICMPReturned == nil {
		t.Fatal("no ICMP returned")
	}
	emb, ok := packet.ICMPv4Embedded(res.ICMPReturned)
	if !ok {
		t.Fatal("no embedded packet in ICMP")
	}
	// The embedded packet carried a freshly stamped mark before
	// scrubbing; after the DAS border scrub it must NOT verify.
	key := keyS(s.Router(1001).Tables.Keys, 1004)
	if key == nil {
		t.Fatal("no stamp key")
	}
	if ok, _ := (V4{emb}).verify(key); ok {
		t.Fatal("attacker can learn a valid mark from ICMP TTL-exceeded")
	}
	if s.Router(1001).Stats().ICMPScrubbed != 1 {
		t.Fatalf("scrub count = %d", s.Router(1001).Stats().ICMPScrubbed)
	}
}

// TestE2EHopLimitExpiryScrubsMarkV6 is the IPv6 twin of
// TestE2ETTLExpiryScrubsMark: a stamped packet whose hop limit runs out
// at the first transit AS comes back as an ICMPv6 time-exceeded, and
// the source DAS's border must scrub the DISCS option it embeds.
func TestE2EHopLimitExpiryScrubsMarkV6(t *testing.T) {
	s := testInternet(t)
	for asn, p := range map[topology.ASN]string{
		1001: "2001:db8:1::/48", 1004: "2001:db8:4::/48", 100: "2001:db8:100::/48",
	} {
		if err := s.Net.Topo.AddPrefix(asn, netip.MustParsePrefix(p)); err != nil {
			t.Fatal(err)
		}
	}
	deploy(t, s, 1001, 1004)
	if _, err := s.Controllers[1004].Invoke(Invocation{
		Prefixes: []netip.Prefix{netip.MustParsePrefix("2001:db8:4::/48")},
		Function: CDP, Duration: 24 * time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}

	// Hop limit 1: expires at the first transit AS (AS100).
	p := &packet.IPv6{
		HopLimit: 1, Proto: packet.ProtoUDP,
		Src:     netip.MustParseAddr("2001:db8:1::10"),
		Dst:     netip.MustParseAddr("2001:db8:4::10"),
		Payload: []byte("v6 e2e"),
	}
	res := s.SendV6(1001, p)
	if res.Delivered || !res.TTLExpired || res.DroppedAt != 100 {
		t.Fatalf("result = %+v, want hop-limit expiry at AS100", res)
	}
	icmp := res.ICMPv6Returned
	if icmp == nil {
		t.Fatal("no ICMPv6 returned")
	}
	if icmp.Src != netip.MustParseAddr("2001:db8:100::") || icmp.Dst != p.Src {
		t.Fatalf("ICMPv6 %v → %v, want AS100's router → %v", icmp.Src, icmp.Dst, p.Src)
	}
	emb, ok := packet.ICMPv6Embedded(icmp)
	if !ok {
		t.Fatal("no embedded packet in ICMPv6")
	}
	if _, has := emb.MarkV6(); !has {
		t.Fatal("embedded packet carries no DISCS option: it was never stamped")
	}
	key := keyS(s.Router(1001).Tables.Keys, 1004)
	if key == nil {
		t.Fatal("no stamp key")
	}
	if ok, _ := (V6{emb}).verify(key); ok {
		t.Fatal("attacker can learn a valid mark from ICMPv6 time-exceeded")
	}
	if n := s.Router(1001).Stats().ICMPScrubbed; n != 1 {
		t.Fatalf("scrub count = %d", n)
	}
}

// TestE2EStampedPacketCrossesLegacyTransit confirms backward
// compatibility: marks survive legacy transit untouched (the transit
// ASes in SendV4 only decrement TTL, and the mark lives in fields
// routers do not rewrite).
func TestE2EStampedPacketCrossesLegacyTransit(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004) // path 1001→100→10→20→300→1004: all transit legacy
	invokeAll(t, s, 1004, CDP)
	res := s.SendV4(1001, mkV4("172.16.1.10", "172.16.4.10"))
	if !res.Delivered {
		t.Fatalf("stamped packet lost in legacy transit: %+v", res)
	}
}
