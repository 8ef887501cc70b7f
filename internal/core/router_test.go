package core

import (
	"net/netip"
	"testing"
	"time"

	"discs/internal/packet"
)

// samplePacketV4 builds a packet from AS2's space to AS3's space (see
// testPfx2AS).
func samplePacketV4() *packet.IPv4 {
	return &packet.IPv4{
		TTL:      64,
		Protocol: packet.ProtoUDP,
		Src:      netip.MustParseAddr("10.2.0.10"),
		Dst:      netip.MustParseAddr("10.3.0.10"),
		Payload:  []byte("payload-bytes"),
	}
}

func samplePacketV6() *packet.IPv6 {
	return &packet.IPv6{
		HopLimit: 64,
		Proto:    packet.ProtoUDP,
		Src:      netip.MustParseAddr("2001:db8:2::10"),
		Dst:      netip.MustParseAddr("2001:db8:3::10"),
		Payload:  []byte("payload-bytes"),
	}
}

// mustRouterOpts builds a router from options; test setup is static,
// so an options error is a harness bug worth a panic.
func mustRouterOpts(o RouterOptions) *BorderRouter {
	r, err := NewBorderRouterWithOptions(o)
	if err != nil {
		panic(err)
	}
	return r
}

// testRouter keeps the brevity of the removed positional constructor
// for the many tests that need nothing but tables and a seed.
func testRouter(tables *Tables, seed int64) *BorderRouter {
	return mustRouterOpts(RouterOptions{Tables: tables, Seed: seed})
}

// peerVictimSetup builds the canonical CDP scenario:
//
//	AS1 (peer, runs DP+CDP stamping) — AS3 (victim, verifies)
//
// Returns the peer router, the victim router, and the shared key.
func peerVictimSetup(t testing.TB) (peer, victim *BorderRouter) {
	t.Helper()
	key := make([]byte, 16)
	key[3] = 0x42

	peerTables := NewTables(1, testPfx2AS(t))
	v := netip.MustParsePrefix("10.3.0.0/16")
	peerTables.In[TableOutDst].Install(v, OpDPFilter, t0, time.Hour, 0)
	peerTables.In[TableOutDst].Install(v, OpCDPStamp, t0, time.Hour, 0)
	peerTables.Keys.SetStampKey(3, key)
	peer = testRouter(peerTables, 1)

	victimTables := NewTables(3, testPfx2AS(t))
	victimTables.In[TableInDst].Install(v, OpCDPVerify, t0, time.Hour, 0)
	victimTables.Keys.SetVerifyKey(1, key)
	victim = testRouter(victimTables, 2)
	return peer, victim
}

// TestDataPlaneBudget pins the data plane's resource contract: with
// keys installed but no invocation scheduled the path computes no CMAC
// and allocates nothing, and a serial stamp+verify round trip
// allocates nothing either.
func TestDataPlaneBudget(t *testing.T) {
	now := t0.Add(time.Minute)
	idleTables := NewTables(1, testPfx2AS(t))
	idleTables.Keys.SetStampKey(3, make([]byte, 16))
	idle := testRouter(idleTables, 1)
	p := samplePacketV4()
	p.Src = netip.MustParseAddr("10.1.0.10")
	idleAllocs := testing.AllocsPerRun(2000, func() {
		if v := idle.ProcessOutbound(V4{p}, now); v != VerdictPass {
			t.Fatalf("idle outbound %v", v)
		}
		if v := idle.ProcessInbound(V4{p}, now); v != VerdictPass {
			t.Fatalf("idle inbound %v", v)
		}
	})
	if macs := idle.Stats().MACsComputed; macs != 0 {
		t.Fatalf("idle path computed %d MACs, want 0", macs)
	}
	if idleAllocs != 0 {
		t.Fatalf("idle path allocates %.1f/packet, want 0", idleAllocs)
	}

	peer, victim := peerVictimSetup(t)
	q := samplePacketV4()
	q.Src = netip.MustParseAddr("10.1.0.10")
	stampAllocs := testing.AllocsPerRun(2000, func() {
		if v := peer.ProcessOutbound(V4{q}, now); v != VerdictPassStamped {
			t.Fatalf("outbound %v", v)
		}
		if v := victim.ProcessInbound(V4{q}, now); v != VerdictPassVerified {
			t.Fatalf("inbound %v", v)
		}
	})
	if stampAllocs != 0 {
		t.Fatalf("stamp+verify allocates %.1f/packet, want 0", stampAllocs)
	}
}

// TestDPFirstSparesCrypto is the §IV-E2 ablation: with DP installed
// beside CDP stamping, spoofed packets are dropped before the stamp
// stage, so 1,000 of them cost no MAC; with CDP alone each one is
// stamped.
func TestDPFirstSparesCrypto(t *testing.T) {
	now := t0.Add(time.Minute)
	v := netip.MustParsePrefix("10.3.0.0/16")
	for _, tc := range []struct {
		withDP bool
		macs   uint64
	}{{false, 1000}, {true, 0}} {
		tab := NewTables(1, testPfx2AS(t))
		tab.Keys.SetStampKey(3, make([]byte, 16))
		tab.In[TableOutDst].Install(v, OpCDPStamp, t0, time.Hour, 0)
		if tc.withDP {
			tab.In[TableOutDst].Install(v, OpDPFilter, t0, time.Hour, 0)
		}
		r := testRouter(tab, 1)
		for i := 0; i < 1000; i++ {
			p := samplePacketV4()
			p.Src = netip.MustParseAddr("192.0.2.7") // not AS1's: spoofed
			r.ProcessOutbound(V4{p}, now)
		}
		if got := r.Stats().MACsComputed; got != tc.macs {
			t.Errorf("DP installed %v: %d MACs for 1000 spoofed packets, want %d", tc.withDP, got, tc.macs)
		}
	}
}

func TestCDPEndToEndV4(t *testing.T) {
	peer, victim := peerVictimSetup(t)
	now := t0.Add(time.Minute)

	// A genuine packet from AS1's space to the victim.
	p := samplePacketV4()
	p.Src = netip.MustParseAddr("10.1.0.10")
	if v := peer.ProcessOutbound(V4{p}, now); v != VerdictPassStamped {
		t.Fatalf("outbound verdict = %v", v)
	}
	if v := victim.ProcessInbound(V4{p}, now); v != VerdictPassVerified {
		t.Fatalf("inbound verdict = %v", v)
	}
	if victim.Stats().InVerified != 1 || peer.Stats().OutStamped != 1 {
		t.Fatalf("stats: %+v / %+v", peer.Stats(), victim.Stats())
	}
}

func TestCDPEndToEndV6(t *testing.T) {
	key := make([]byte, 16)
	pfx := testPfx2AS(t)
	pfx.Insert(netip.MustParsePrefix("2001:db8:1::/48"), 1)
	pfx.Insert(netip.MustParsePrefix("2001:db8:3::/48"), 3)
	v6pfx := netip.MustParsePrefix("2001:db8:3::/48")

	peerTables := NewTables(1, pfx)
	peerTables.In[TableOutDst].Install(v6pfx, OpCDPStamp, t0, time.Hour, 0)
	peerTables.Keys.SetStampKey(3, key)
	peer := testRouter(peerTables, 1)

	victimTables := NewTables(3, pfx)
	victimTables.In[TableInDst].Install(v6pfx, OpCDPVerify, t0, time.Hour, 0)
	victimTables.Keys.SetVerifyKey(1, key)
	victim := testRouter(victimTables, 2)

	now := t0.Add(time.Minute)
	p := samplePacketV6()
	p.Src = netip.MustParseAddr("2001:db8:1::10")
	if v := peer.ProcessOutbound(V6{p}, now); v != VerdictPassStamped {
		t.Fatalf("outbound verdict = %v", v)
	}
	if _, ok := p.MarkV6(); !ok {
		t.Fatal("no DISCS option after stamping")
	}
	if v := victim.ProcessInbound(V6{p}, now); v != VerdictPassVerified {
		t.Fatalf("inbound verdict = %v", v)
	}
	// The mark must be erased after verification.
	if _, ok := p.MarkV6(); ok {
		t.Fatal("DISCS option not erased after verification")
	}
}

func TestDPDropsSpoofedAtPeer(t *testing.T) {
	peer, _ := peerVictimSetup(t)
	now := t0.Add(time.Minute)
	// Spoofed source (AS2's space, not local to AS1) targeting victim.
	p := samplePacketV4()
	if v := peer.ProcessOutbound(V4{p}, now); v != VerdictDrop {
		t.Fatalf("verdict = %v, want drop", v)
	}
	if peer.Stats().OutDropped != 1 {
		t.Fatalf("stats = %+v", peer.Stats())
	}
}

func TestVictimDropsUnstampedFromPeer(t *testing.T) {
	// d-DDoS traffic spoofing a peer's source arrives at the victim
	// without a valid mark: dropped by CDP-verify. This is the
	// capability MEF lacks (§I): the victim can tell spoofed from
	// genuine for collaborator sources.
	_, victim := peerVictimSetup(t)
	now := t0.Add(time.Minute)
	p := samplePacketV4()
	p.Src = netip.MustParseAddr("10.1.0.10") // claims to be from peer AS1
	if v := victim.ProcessInbound(V4{p}, now); v != VerdictDrop {
		t.Fatalf("verdict = %v, want drop", v)
	}
	if victim.Stats().InVerifyFail != 1 || victim.Stats().InDropped != 1 {
		t.Fatalf("stats = %+v", victim.Stats())
	}
}

func TestVictimPassesNonPeerTraffic(t *testing.T) {
	// CDP-verify is conditional on src ∈ peer (Table I): traffic from
	// AS4 (no key) passes unverified — no false positives on
	// non-collaborator traffic.
	_, victim := peerVictimSetup(t)
	now := t0.Add(time.Minute)
	p := samplePacketV4()
	p.Src = netip.MustParseAddr("10.4.0.10")
	if v := victim.ProcessInbound(V4{p}, now); v != VerdictPass {
		t.Fatalf("verdict = %v, want pass", v)
	}
}

func TestWrongKeyFailsVerification(t *testing.T) {
	peer, victim := peerVictimSetup(t)
	// Victim has a different key for AS1.
	bad := make([]byte, 16)
	bad[0] = 0x99
	demoted, _ := victim.Tables.Keys.setVerifyKey(1, bad)
	victim.Tables.Keys.dropVerifyKey(1, demoted)
	now := t0.Add(time.Minute)
	p := samplePacketV4()
	p.Src = netip.MustParseAddr("10.1.0.10")
	peer.ProcessOutbound(V4{p}, now)
	if v := victim.ProcessInbound(V4{p}, now); v != VerdictDrop {
		t.Fatalf("verdict = %v, want drop with mismatched keys", v)
	}
}

func TestGraceIntervalErasesWithoutDropping(t *testing.T) {
	key := make([]byte, 16)
	v := netip.MustParsePrefix("10.3.0.0/16")
	victimTables := NewTables(3, testPfx2AS(t))
	victimTables.In[TableInDst].Install(v, OpCDPVerify, t0, time.Hour, 30*time.Second)
	victimTables.Keys.SetVerifyKey(1, key)
	victim := testRouter(victimTables, 2)

	// Unstamped packet arrives during the head grace interval: passes,
	// mark fields erased, no drop (§IV-E1 tolerance).
	p := samplePacketV4()
	p.Src = netip.MustParseAddr("10.1.0.10")
	p.SetMark(0x1234567)
	if verdict := victim.ProcessInbound(V4{p}, t0.Add(5*time.Second)); verdict != VerdictPass {
		t.Fatalf("verdict = %v", verdict)
	}
	if victim.Stats().InErasedOnly != 1 || victim.Stats().InDropped != 0 {
		t.Fatalf("stats = %+v", victim.Stats())
	}
	if p.Mark() == 0x1234567 {
		t.Fatal("mark not erased during grace")
	}
}

func TestSPDropsReflectionRequests(t *testing.T) {
	// s-DDoS: agents in AS1 send requests with the victim's (AS3)
	// source address toward reflectors. SP at AS1's border drops them.
	tables := NewTables(1, testPfx2AS(t))
	v := netip.MustParsePrefix("10.3.0.0/16")
	tables.In[TableOutSrc].Install(v, OpSPFilter, t0, time.Hour, 0)
	r := testRouter(tables, 1)
	now := t0.Add(time.Minute)

	p := samplePacketV4()
	p.Src = netip.MustParseAddr("10.3.0.10") // victim's space
	p.Dst = netip.MustParseAddr("10.4.0.99") // innocent reflector
	if verdict := r.ProcessOutbound(V4{p}, now); verdict != VerdictDrop {
		t.Fatalf("verdict = %v, want drop", verdict)
	}
}

func TestCSPVerifyAtPeer(t *testing.T) {
	key := make([]byte, 16)
	key[7] = 7
	v := netip.MustParsePrefix("10.3.0.0/16")

	// Victim AS3 stamps its own outbound toward peer AS2.
	victimTables := NewTables(3, testPfx2AS(t))
	victimTables.In[TableOutSrc].Install(v, OpCSPStamp, t0, time.Hour, 0)
	victimTables.Keys.SetStampKey(2, key)
	victim := testRouter(victimTables, 1)

	// Peer AS2 verifies inbound traffic claiming the victim's source.
	peerTables := NewTables(2, testPfx2AS(t))
	peerTables.In[TableInSrc].Install(v, OpCSPVerify, t0, time.Hour, 0)
	peerTables.Keys.SetVerifyKey(3, key)
	peer := testRouter(peerTables, 2)

	now := t0.Add(time.Minute)

	// Genuine victim request to the peer: stamped, verifies.
	p := samplePacketV4()
	p.Src = netip.MustParseAddr("10.3.0.10")
	p.Dst = netip.MustParseAddr("10.2.0.99")
	if verdict := victim.ProcessOutbound(V4{p}, now); verdict != VerdictPassStamped {
		t.Fatalf("victim outbound = %v", verdict)
	}
	if verdict := peer.ProcessInbound(V4{p}, now); verdict != VerdictPassVerified {
		t.Fatalf("peer inbound = %v", verdict)
	}

	// Spoofed request (agent elsewhere using victim's source): no valid
	// mark, dropped at the reflector-side peer.
	q := samplePacketV4()
	q.Src = netip.MustParseAddr("10.3.0.10")
	q.Dst = netip.MustParseAddr("10.2.0.99")
	if verdict := peer.ProcessInbound(V4{q}, now); verdict != VerdictDrop {
		t.Fatalf("spoofed inbound = %v, want drop", verdict)
	}
}

func TestAlarmModePassesAndReports(t *testing.T) {
	_, victim := peerVictimSetup(t)
	victim.SetAlarmMode(true)
	var samples []AlarmSample
	victim.OnAlarm = func(s AlarmSample) { samples = append(samples, s) }
	now := t0.Add(time.Minute)

	p := samplePacketV4()
	p.Src = netip.MustParseAddr("10.1.0.10") // spoofed peer source, no mark
	if v := victim.ProcessInbound(V4{p}, now); v != VerdictPassAlarm {
		t.Fatalf("verdict = %v, want pass+alarm", v)
	}
	if len(samples) != 1 || samples[0].SrcAS != 1 {
		t.Fatalf("samples = %+v", samples)
	}
	if victim.Stats().InAlarmed != 1 || victim.Stats().InDropped != 0 {
		t.Fatalf("stats = %+v", victim.Stats())
	}
}

func TestNoProcessingWithoutInvocation(t *testing.T) {
	// On-demand principle: with empty function tables everything
	// passes and no crypto runs.
	tables := NewTables(1, testPfx2AS(t))
	tables.Keys.SetStampKey(3, make([]byte, 16))
	r := testRouter(tables, 1)
	now := t0.Add(time.Minute)

	p := samplePacketV4()
	if v := r.ProcessOutbound(V4{p}, now); v != VerdictPass {
		t.Fatalf("outbound = %v", v)
	}
	if v := r.ProcessInbound(V4{p}, now); v != VerdictPass {
		t.Fatalf("inbound = %v", v)
	}
	if r.Stats().MACsComputed != 0 {
		t.Fatal("crypto ran without invocation")
	}
}

func TestExpiredInvocationStopsProcessing(t *testing.T) {
	peer, victim := peerVictimSetup(t)
	after := t0.Add(2 * time.Hour) // both 1h windows expired
	p := samplePacketV4()          // spoofed source
	if v := peer.ProcessOutbound(V4{p}, after); v != VerdictPass {
		t.Fatalf("peer verdict after expiry = %v", v)
	}
	q := samplePacketV4()
	q.Src = netip.MustParseAddr("10.1.0.10")
	if v := victim.ProcessInbound(V4{q}, after); v != VerdictPass {
		t.Fatalf("victim verdict after expiry = %v", v)
	}
}

func TestICMPScrubCounters(t *testing.T) {
	tables := NewTables(1, testPfx2AS(t))
	r := testRouter(tables, 1)
	orig := samplePacketV4()
	orig.Src = netip.MustParseAddr("10.1.0.10")
	orig.SetMark(0xabcde)
	icmp, err := packet.ICMPv4TimeExceeded(netip.MustParseAddr("10.4.0.1"), orig)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := icmp.Marshal()
	parsed, _ := packet.ParseIPv4(b)
	if !r.scrubInboundICMP(parsed) {
		t.Fatal("scrub failed")
	}
	if r.Stats().ICMPScrubbed != 1 {
		t.Fatalf("stats = %+v", r.Stats())
	}
	// Non-ICMP passes through untouched.
	if r.scrubInboundICMP(samplePacketV4()) {
		t.Fatal("scrubbed a non-ICMP packet")
	}
}

func TestVerdictStrings(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictPass: "pass", VerdictPassStamped: "pass+stamped",
		VerdictPassVerified: "pass+verified", VerdictPassAlarm: "pass+alarm",
		VerdictDrop: "drop",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q", v, v.String())
		}
	}
	if !VerdictDrop.Dropped() || VerdictPass.Dropped() {
		t.Error("Dropped() wrong")
	}
}
