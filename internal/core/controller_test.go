package core

import (
	"net/netip"
	"testing"
	"time"

	"discs/internal/bgp"
	"discs/internal/topology"
)

// testInternet builds the testTopology internet: a converged BGP
// network and a DISCS system.
func testInternet(t *testing.T) *System {
	t.Helper()
	net, err := bgp.BuildNetwork(testTopology(t), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	net.OriginateAll()
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}
	return testSystem(t, net, DefaultConfig())
}

// testTopology builds a 9-AS topology with tier-1s T1,T2 (10, 20),
// mids M1..M3 (100,200,300) and stubs S1..S4 (1001..1004).
func testTopology(t *testing.T) *topology.Topology {
	t.Helper()
	tp := topology.New()
	asns := []topology.ASN{10, 20, 100, 200, 300, 1001, 1002, 1003, 1004}
	for _, a := range asns {
		if _, err := tp.AddAS(a); err != nil {
			t.Fatal(err)
		}
	}
	links := []struct {
		a, b topology.ASN
		rel  topology.Relationship
	}{
		{10, 20, topology.PeerToPeer},
		{100, 10, topology.CustomerToProvider},
		{200, 10, topology.CustomerToProvider},
		{300, 20, topology.CustomerToProvider},
		{1001, 100, topology.CustomerToProvider},
		{1002, 100, topology.CustomerToProvider},
		{1003, 200, topology.CustomerToProvider},
		{1004, 300, topology.CustomerToProvider},
	}
	for _, l := range links {
		if err := tp.Link(l.a, l.b, l.rel); err != nil {
			t.Fatal(err)
		}
	}
	pfx := map[topology.ASN]string{
		10: "10.0.0.0/12", 20: "20.0.0.0/12", 100: "100.0.0.0/16",
		200: "100.1.0.0/16", 300: "100.2.0.0/16",
		1001: "172.16.1.0/24", 1002: "172.16.2.0/24", 1003: "172.16.3.0/24", 1004: "172.16.4.0/24",
	}
	for asn, p := range pfx {
		if err := tp.AddPrefix(asn, netip.MustParsePrefix(p)); err != nil {
			t.Fatal(err)
		}
	}
	return tp
}

// testSystem wires DISCS into net with cfg.
func testSystem(t *testing.T, net *bgp.Network, cfg Config) *System {
	t.Helper()
	s, err := NewSystemWithOptions(SystemOptions{Net: net, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// deploy installs DISCS on the given ASes and settles the simulator.
func deploy(t *testing.T, s *System, asns ...topology.ASN) {
	t.Helper()
	for i, asn := range asns {
		if _, err := s.Deploy(asn, int64(i+1)); err != nil {
			t.Fatalf("Deploy(AS%d): %v", asn, err)
		}
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
}

func TestDiscoveryAndPeering(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004, 300)
	for _, asn := range []topology.ASN{1001, 1004, 300} {
		c := s.Controllers[asn]
		peers := c.Peers()
		if len(peers) != 2 {
			t.Fatalf("AS%d peers = %v, want 2", asn, peers)
		}
		for _, p := range peers {
			if st, _ := c.PeerStatusOf(p); st != PeerEstablished {
				t.Fatalf("AS%d→AS%d status %v", asn, p, st)
			}
		}
	}
}

func TestKeyNegotiationCompletes(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	c1, c4 := s.Controllers[1001], s.Controllers[1004]
	if !c1.KeysReadyWith(1004) || !c4.KeysReadyWith(1001) {
		t.Fatal("stamping keys not active after settle")
	}
	// Both routers must hold verify keys for the peer.
	if !s.Routers[1001].Tables.Keys.HasVerifyKey(1004) {
		t.Fatal("AS1001 missing verify key for AS1004")
	}
	if !s.Routers[1004].Tables.Keys.HasVerifyKey(1001) {
		t.Fatal("AS1004 missing verify key for AS1001")
	}
	// And the stamping/verification keys must be consistent: a packet
	// stamped by 1001 toward 1004 verifies at 1004.
	pkt := samplePacketV4()
	pkt.Src = netip.MustParseAddr("172.16.1.10")
	pkt.Dst = netip.MustParseAddr("172.16.4.10")
	key := s.Routers[1001].Tables.Keys.StampKey(1004)
	if key == nil {
		t.Fatal("no stamp key")
	}
	V4{pkt}.Stamp(key)
	if valid, known, _ := s.Routers[1004].Tables.Keys.VerifyMark(1001, V4{pkt}); !valid || !known {
		t.Fatalf("cross-verify failed: valid=%v known=%v", valid, known)
	}
}

func TestBlacklistBlocksPeering(t *testing.T) {
	s := testInternet(t)
	// Deploy 1001 first so its controller exists before 1004's Ad.
	if _, err := s.Deploy(1001, 1); err != nil {
		t.Fatal(err)
	}
	s.Controllers[1001].Blacklist[1004] = true
	if _, err := s.Deploy(1004, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	// 1001 never requests peering with 1004; 1004's request to 1001 is
	// rejected... 1001 ignores the Ad entirely, but 1004 sends a
	// request which 1001 must reject by blacklist.
	if st, ok := s.Controllers[1001].PeerStatusOf(1004); ok && st == PeerEstablished {
		t.Fatal("blacklisted AS became a peer")
	}
	if st, _ := s.Controllers[1004].PeerStatusOf(1001); st == PeerEstablished {
		t.Fatal("peering established despite remote blacklist")
	}
}

func TestInvokeDPCDP(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	victim := s.Controllers[1004]
	n, err := victim.Invoke(Invocation{
		Prefixes: []netip.Prefix{netip.MustParsePrefix("172.16.4.0/24")},
		Function: DP, Duration: time.Hour,
	}, Invocation{
		Prefixes: []netip.Prefix{netip.MustParsePrefix("172.16.4.0/24")},
		Function: CDP, Duration: time.Hour,
	})
	if err != nil || n != 1 {
		t.Fatalf("Invoke = %d, %v", n, err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if victim.Stats().Get(MetricCtrlInvokesAccepted) != 1 {
		t.Fatalf("acks = %d", victim.Stats().Get(MetricCtrlInvokesAccepted))
	}
	now := s.Now().Add(time.Second)
	// Peer's Out-Dst table has DP-filter and CDP-stamp for the victim.
	active, _ := s.Routers[1001].Tables.In[TableOutDst].ActiveOps(netip.MustParseAddr("172.16.4.10"), now)
	if !active.Has(OpDPFilter) || !active.Has(OpCDPStamp) {
		t.Fatalf("peer Out-Dst ops = %v", active)
	}
	// Victim's In-Dst has CDP-verify.
	active, _ = s.Routers[1004].Tables.In[TableInDst].ActiveOps(netip.MustParseAddr("172.16.4.10"), now)
	if !active.Has(OpCDPVerify) {
		t.Fatalf("victim In-Dst ops = %v", active)
	}
}

func TestInvokeRejectedForForeignPrefix(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	victim := s.Controllers[1004]
	// Claiming someone else's prefix is rejected locally.
	_, err := victim.Invoke(Invocation{
		Prefixes: []netip.Prefix{netip.MustParsePrefix("172.16.1.0/24")},
		Function: DP, Duration: time.Hour,
	})
	if err == nil {
		t.Fatal("invoking for a foreign prefix should fail")
	}
	// And a malicious controller bypassing its own check is rejected by
	// the peer's RPKI validation: craft the message directly.
	evil := &ControlMsg{Type: MsgInvoke, From: 1004, Invocations: []Invocation{{
		Prefixes: []netip.Prefix{netip.MustParsePrefix("172.16.1.0/24")},
		Function: DP, Duration: time.Hour,
	}}}
	for _, p := range victim.peers {
		if p.status == PeerEstablished {
			victim.sendMsg(p, evil)
		}
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if victim.Stats().Get(MetricCtrlInvokesRejected) == 0 {
		t.Fatal("peer accepted an invocation for a prefix the victim does not own")
	}
	now := s.Now().Add(time.Second)
	active, _ := s.Routers[1001].Tables.In[TableOutDst].ActiveOps(netip.MustParseAddr("172.16.1.10"), now)
	if active != 0 {
		t.Fatal("peer installed ops for an unauthorized prefix")
	}
}

// TestInvokeRejectsUninstallablePrefix: a 4-in-6 prefix shorter than
// /96 passes the ownership check (OwnerOfPrefix looks up the unmapped
// address) but no function table can hold it. The peer must reject the
// whole invoke and record nothing, so that declaring the victim dead
// later withdraws every filter it did install.
func TestInvokeRejectsUninstallablePrefix(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	victim, peer := s.Controllers[1004], s.Controllers[1001]
	good := netip.MustParsePrefix("172.16.4.0/24")
	if _, err := victim.Invoke(Invocation{Prefixes: []netip.Prefix{good}, Function: DP, Duration: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	bad := netip.MustParsePrefix("::ffff:172.16.4.0/90")
	if owner, ok := s.Net.Topo.OwnerOfPrefix(bad); !ok || owner != 1004 {
		t.Fatalf("OwnerOfPrefix(%v) = AS%d, %v; the test needs the victim to own it", bad, owner, ok)
	}
	if _, err := victim.Invoke(Invocation{Prefixes: []netip.Prefix{bad}, Function: SP, Duration: time.Hour}); err == nil {
		t.Fatal("Invoke accepted a prefix the function tables refuse")
	}
	// A controller that skips its own check: the peer's Validate refuses.
	evil := &ControlMsg{Type: MsgInvoke, From: 1004, Serial: 99, Invocations: []Invocation{{
		Prefixes: []netip.Prefix{netip.MustParsePrefix("172.16.4.0/25"), bad},
		Function: SP, Duration: time.Hour,
	}}}
	victim.sendMsg(victim.peers[1001], evil)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if victim.Stats().Get(MetricCtrlInvokesRejected) != 1 {
		t.Fatalf("rejects = %d, want 1", victim.Stats().Get(MetricCtrlInvokesRejected))
	}
	p := peer.peers[1004]
	if len(p.installed) != 1 {
		t.Fatalf("peer recorded %d installs, want only the accepted DP-filter: %v", len(p.installed), p.installed)
	}
	now := s.Now().Add(time.Second)
	out := s.Routers[1001].Tables.In
	if active, _ := out[TableOutSrc].ActiveOps(netip.MustParseAddr("172.16.4.10"), now); active != 0 {
		t.Fatalf("peer Out-Src ops = %v after a rejected invoke", active)
	}
	if active, _ := out[TableOutDst].ActiveOps(netip.MustParseAddr("172.16.4.10"), now); !active.Has(OpDPFilter) {
		t.Fatalf("peer Out-Dst ops = %v, want DP-filter", active)
	}
	peer.declarePeerDead(p)
	if active, _ := out[TableOutDst].ActiveOps(netip.MustParseAddr("172.16.4.10"), now); active != 0 {
		t.Fatalf("peer Out-Dst ops = %v after the victim was declared dead", active)
	}
}

func TestInvokeValidation(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1004)
	victim := s.Controllers[1004]
	if _, err := victim.Invoke(Invocation{Function: DP, Duration: time.Hour}); err == nil {
		t.Fatal("empty prefixes should fail")
	}
	if _, err := victim.Invoke(Invocation{
		Prefixes: []netip.Prefix{netip.MustParsePrefix("172.16.4.0/24")},
		Function: DP, Duration: -time.Hour,
	}); err == nil {
		t.Fatal("negative duration should fail")
	}
	if _, err := victim.Invoke(Invocation{
		Prefixes: []netip.Prefix{netip.MustParsePrefix("172.16.4.0/24")},
		Function: Function(99), Duration: time.Hour,
	}); err == nil {
		t.Fatal("bogus function should fail")
	}
}

func TestRekeyKeepsTrafficFlowing(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	victim := s.Controllers[1004]
	if _, err := victim.Invoke(Invocation{
		Prefixes: []netip.Prefix{netip.MustParsePrefix("172.16.4.0/24")},
		Function: CDP, Duration: 24 * time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	s.Settle()

	send := func() Verdict {
		pkt := samplePacketV4()
		pkt.Src = netip.MustParseAddr("172.16.1.10")
		pkt.Dst = netip.MustParseAddr("172.16.4.10")
		now := s.Now().Add(time.Minute) // clear of the grace interval
		if v := s.Routers[1001].ProcessOutbound(V4{pkt}, now); v != VerdictPassStamped {
			return v
		}
		return s.Routers[1004].ProcessInbound(V4{pkt}, now)
	}
	if v := send(); v != VerdictPassVerified {
		t.Fatalf("pre-rekey verdict = %v", v)
	}
	// AS1001 rekeys toward 1004. Until the ack arrives, stamping uses
	// the old key; the victim accepts both during the overlap.
	if err := s.Controllers[1001].Rekey(1004); err != nil {
		t.Fatal(err)
	}
	// Before settle: old key still stamps.
	if v := send(); v != VerdictPassVerified {
		t.Fatalf("mid-rekey verdict = %v", v)
	}
	s.Settle()
	// After settle: new key stamps, old dropped after overlap (overlap
	// expiry ran inside Settle as a timer).
	if v := send(); v != VerdictPassVerified {
		t.Fatalf("post-rekey verdict = %v", v)
	}
}

func TestRekeyAll(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1003, 1004)
	c := s.Controllers[1001]
	c.RekeyAll()
	s.Settle()
	if !c.KeysReadyWith(1003) || !c.KeysReadyWith(1004) {
		t.Fatal("RekeyAll left stamping inactive")
	}
}

// TestStaleRekeyTimerKeepsNewerOverlap: a key deploy's overlap timer
// must drop only the key that deploy demoted. Here a second rekey lands
// at the verifier 10 ms before the first one's timer fires; the stamper
// keeps stamping with the first rekey's key until the second ack
// returns one control RTT later. A timer that dropped "the previous
// key", whichever it was, would make the verifier drop the legitimate
// packet sent in that window.
func TestStaleRekeyTimerKeepsNewerOverlap(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	if _, err := s.Controllers[1004].Invoke(Invocation{
		Prefixes: []netip.Prefix{netip.MustParsePrefix("172.16.4.0/24")},
		Function: CDP, Duration: 24 * time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	sim, cfg := s.Net.Sim, s.cfg
	c1 := s.Controllers[1001]
	t0 := sim.Now()
	// First rekey: lands at t0+d, its overlap timer fires at t0+d+overlap.
	if err := c1.Rekey(1004); err != nil {
		t.Fatal(err)
	}
	// Second rekey lands at t0+overlap+10ms, just before that timer; its
	// ack reaches AS1001 at t0+overlap+30ms.
	d := cfg.CtrlLinkDelay
	sim.Schedule(t0+cfg.RekeyOverlap-10*time.Millisecond, func() {
		if err := c1.Rekey(1004); err != nil {
			t.Error(err)
		}
	})
	var res DeliveryResult
	sim.Schedule(t0+cfg.RekeyOverlap+d+5*time.Millisecond, func() {
		pkt := samplePacketV4()
		pkt.Src = netip.MustParseAddr("172.16.1.10")
		pkt.Dst = netip.MustParseAddr("172.16.4.10")
		res = s.SendV4(1001, pkt)
	})
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatalf("legitimate packet in the second rekey's window dropped: %+v", res)
	}
	// Each overlap still ends: only the newest key is left.
	if vk := s.Routers[1004].Tables.Keys.snap.Load().verifyKeys(1001); vk == nil || vk.previous != nil {
		t.Fatalf("after both overlaps: verify keys %+v, want the current key alone", vk)
	}
}

func TestLateDeployerDiscoversEarlierOnes(t *testing.T) {
	// Incremental deployment (§VI-A): a DAS joining later must learn
	// existing DASes from the retained Ads and peer with them without
	// any change to the existing peerings.
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	before1, before4 := s.Controllers[1001].Peers(), s.Controllers[1004].Peers()
	deploy(t, s, 300) // late deployer
	c := s.Controllers[300]
	if len(c.Peers()) != 2 {
		t.Fatalf("late deployer peers = %v", c.Peers())
	}
	// Existing peers gained the newcomer without losing each other.
	after1, after4 := s.Controllers[1001].Peers(), s.Controllers[1004].Peers()
	if len(after1) != len(before1)+1 || len(after4) != len(before4)+1 {
		t.Fatalf("existing peerings disturbed: %v -> %v, %v -> %v", before1, after1, before4, after4)
	}
}

func TestDeployErrors(t *testing.T) {
	s := testInternet(t)
	if _, err := s.Deploy(9999, 1); err == nil {
		t.Fatal("deploying unknown AS should fail")
	}
	deploy(t, s, 1001)
	if _, err := s.Deploy(1001, 2); err == nil {
		t.Fatal("double deploy should fail")
	}
}

func TestControlMsgRoundTrip(t *testing.T) {
	m := &ControlMsg{
		Type: MsgInvoke, From: 42,
		Invocations: []Invocation{{
			Prefixes: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
			Function: CSP, Duration: time.Hour, Alarm: true,
		}},
	}
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeControlMsg(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.From != m.From || len(got.Invocations) != 1 {
		t.Fatalf("round trip = %+v", got)
	}
	inv := got.Invocations[0]
	if inv.Function != CSP || inv.Duration != time.Hour || !inv.Alarm || inv.Prefixes[0].String() != "10.0.0.0/8" {
		t.Fatalf("invocation = %+v", inv)
	}
	if _, err := DecodeControlMsg([]byte("{bad")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}
