package core

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"discs/internal/netsim"
)

// prepareOutage deploys two DASes and takes the controller-controller
// link Deploy preconnected DOWN, so every frame of the initial peering
// exchange is lost until the test restores it.
func prepareOutage(t *testing.T, s *System) *netsim.Link {
	t.Helper()
	if _, err := s.Deploy(1001, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deploy(1004, 2); err != nil {
		t.Fatal(err)
	}
	nodeA := s.Net.Sim.Node(s.Controllers[1001].Name)
	nodeB := s.Net.Sim.Node(s.Controllers[1004].Name)
	l := nodeA.UpLink(nodeB)
	if l == nil {
		t.Fatal("Deploy did not preconnect the controller mesh")
	}
	l.SetUp(false)
	return l
}

// TestLossyHandshakeRecovers injects frame loss into the con-con
// channel during the initial peering exchange: the link is down from
// the start (swallowing handshake frames) and comes back later. The
// retry machinery must still converge to established peering with
// active keys.
func TestLossyHandshakeRecovers(t *testing.T) {
	s := testInternet(t)
	l := prepareOutage(t, s)
	// Outage window: requests and early retries are all lost.
	s.Net.Sim.Run(12 * time.Second)
	l.SetUp(true)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	c1, c4 := s.Controllers[1001], s.Controllers[1004]
	if st, _ := c1.PeerStatusOf(1004); st != PeerEstablished {
		t.Fatalf("AS1001→AS1004 status %v after recovery", st)
	}
	if st, _ := c4.PeerStatusOf(1001); st != PeerEstablished {
		t.Fatalf("AS1004→AS1001 status %v after recovery", st)
	}
	if !c1.KeysReadyWith(1004) || !c4.KeysReadyWith(1001) {
		t.Fatalf("keys not active after recovery (retries: %d/%d)", c1.Stats().Get(MetricCtrlRetries), c4.Stats().Get(MetricCtrlRetries))
	}
	if c1.Stats().Get(MetricCtrlRetries)+c4.Stats().Get(MetricCtrlRetries) == 0 {
		t.Fatal("recovery happened without any retry — outage did not bite")
	}
	// And the keys actually work.
	pkt := samplePacketV4()
	pkt.Src = netip.MustParseAddr("172.16.1.10")
	pkt.Dst = netip.MustParseAddr("172.16.4.10")
	(V4{pkt}).Stamp(s.Routers[1001].Tables.Keys.StampKey(1004))
	if ok, _, _ := s.Routers[1004].Tables.Keys.VerifyMark(1001, V4{pkt}); !ok {
		t.Fatal("recovered keys are inconsistent")
	}
}

// TestPermanentOutageGivesUp: with the peer controller unreachable
// forever, retries must stop at MaxRetries so the simulator drains —
// but a fresh DISCS-Ad from the peer must refresh the retry budget so
// a recovered peer can still join.
func TestPermanentOutageGivesUp(t *testing.T) {
	s := testInternet(t)
	l := prepareOutage(t, s)
	// RunAll must terminate (bounded retries) — this is the regression
	// guard against infinite retry loops.
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	c1, c4 := s.Controllers[1001], s.Controllers[1004]
	if c1.Stats().Get(MetricCtrlRetries) == 0 {
		t.Fatal("no retries recorded")
	}
	if int(c1.Stats().Get(MetricCtrlRetries)) > c1.cfg.MaxRetries {
		t.Fatalf("retries %d exceed cap %d", c1.Stats().Get(MetricCtrlRetries), c1.cfg.MaxRetries)
	}

	// The comeback: the link heals and each side sees the other's Ad
	// again (BGP refresh). That must reset the exhausted retry budget
	// and let the peering complete — give-up is per-outage, not
	// forever.
	l.SetUp(true)
	c1.HandleAd(c4.Ad())
	c4.HandleAd(c1.Ad())
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if st, _ := c1.PeerStatusOf(1004); st != PeerEstablished {
		t.Fatalf("AS1001→AS1004 status %v after comeback", st)
	}
	if st, _ := c4.PeerStatusOf(1001); st != PeerEstablished {
		t.Fatalf("AS1004→AS1001 status %v after comeback", st)
	}
	if !c1.KeysReadyWith(1004) || !c4.KeysReadyWith(1001) {
		t.Fatal("keys not active after comeback")
	}
}

// TestLossSweepConverges: the peering + key-deployment exchange must
// converge under up to 30% per-link frame loss within the configured
// retry budget. The fault schedule is seeded, so a failure here is
// reproducible bit-for-bit.
func TestLossSweepConverges(t *testing.T) {
	for _, loss := range []float64{0.1, 0.2, 0.3} {
		ok := t.Run(fmt.Sprintf("loss=%.0f%%", loss*100), func(t *testing.T) {
			s := testInternet(t)
			sim := s.Net.Sim
			sim.SeedFaults(42)
			// Fault only the links created from here on: the BGP mesh is
			// converged, so the new links are exactly the on-demand
			// con-con channels.
			sim.SetDefaultLinkFaults(netsim.LinkFaults{Loss: loss})
			cfg := &s.cfg
			cfg.RetryInterval = 2 * time.Second
			cfg.RetryJitter = time.Second
			cfg.MaxRetries = 60
			// Liveness off: this test measures the retry machinery alone.
			cfg.HeartbeatInterval = 0
			if _, err := s.Deploy(1001, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Deploy(1004, 2); err != nil {
				t.Fatal(err)
			}
			if err := s.Settle(); err != nil {
				t.Fatal(err)
			}
			c1, c4 := s.Controllers[1001], s.Controllers[1004]
			if st, _ := c1.PeerStatusOf(1004); st != PeerEstablished {
				t.Fatalf("AS1001→AS1004 status %v under %.0f%% loss (lost %d frames, %d retries)",
					st, loss*100, sim.Stats().Get(netsim.MetricLost), c1.Stats().Get(MetricCtrlRetries))
			}
			if st, _ := c4.PeerStatusOf(1001); st != PeerEstablished {
				t.Fatalf("AS1004→AS1001 status %v under %.0f%% loss", st, loss*100)
			}
			if !c1.KeysReadyWith(1004) || !c4.KeysReadyWith(1001) {
				t.Fatalf("keys not active under %.0f%% loss (retries %d+%d)",
					loss*100, c1.Stats().Get(MetricCtrlRetries), c4.Stats().Get(MetricCtrlRetries))
			}
			if int(c1.Stats().Get(MetricCtrlRetries)) > cfg.MaxRetries || int(c4.Stats().Get(MetricCtrlRetries)) > cfg.MaxRetries {
				t.Fatalf("retry budget blown: %d and %d > %d", c1.Stats().Get(MetricCtrlRetries), c4.Stats().Get(MetricCtrlRetries), cfg.MaxRetries)
			}
			if sim.Stats().Get(netsim.MetricLost) == 0 {
				t.Fatal("no frames lost — the sweep did not exercise the injector")
			}
			// The keys that survived the lossy exchange must be
			// consistent.
			pkt := samplePacketV4()
			pkt.Src = netip.MustParseAddr("172.16.1.10")
			pkt.Dst = netip.MustParseAddr("172.16.4.10")
			(V4{pkt}).Stamp(s.Routers[1001].Tables.Keys.StampKey(1004))
			if ok, _, _ := s.Routers[1004].Tables.Keys.VerifyMark(1001, V4{pkt}); !ok {
				t.Fatalf("keys inconsistent under %.0f%% loss", loss*100)
			}
		})
		if !ok {
			break
		}
	}
}

// TestRetryIdempotentUnderDuplicates: retransmitted peering requests
// and key deploys must not corrupt state (duplicate Accepts, double
// key installs). We simulate by forcing extra retries on a healthy
// link.
func TestRetryIdempotentUnderDuplicates(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	c1 := s.Controllers[1001]
	p := c1.peers[1004]
	// Force replays of the full exchange.
	for i := 0; i < 3; i++ {
		c1.send(p, &ControlMsg{Type: MsgPeeringRequest, From: c1.AS})
		c1.send(p, &ControlMsg{
			Type: MsgKeyDeploy, From: c1.AS, Key: p.stampKey, Serial: p.stampSerial,
		})
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if st, _ := c1.PeerStatusOf(1004); st != PeerEstablished {
		t.Fatalf("status %v after duplicates", st)
	}
	if !c1.KeysReadyWith(1004) {
		t.Fatal("keys lost after duplicates")
	}
	// Cross-verification still consistent.
	pkt := samplePacketV4()
	pkt.Src = netip.MustParseAddr("172.16.1.10")
	pkt.Dst = netip.MustParseAddr("172.16.4.10")
	(V4{pkt}).Stamp(s.Routers[1001].Tables.Keys.StampKey(1004))
	if ok, _, _ := s.Routers[1004].Tables.Keys.VerifyMark(1001, V4{pkt}); !ok {
		t.Fatal("keys inconsistent after duplicates")
	}
}

// TestAutoDefendClosesTheLoop: alarm mode + AutoDefend escalates from
// sampling to full enforcement without operator action.
func TestAutoDefendClosesTheLoop(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	victim := s.Controllers[1004]
	victim.cfg.AlarmThreshold = 10
	victim.AutoDefend = &AutoDefendPolicy{
		Functions: []Function{DP, CDP},
		Duration:  24 * time.Hour,
	}
	// Proactive alarm-mode CDP invocation (the detection net).
	if _, err := victim.Invoke(Invocation{
		Prefixes: victim.OwnPrefixes(), Function: CDP,
		Duration: 24 * time.Hour, Alarm: true,
	}); err != nil {
		t.Fatal(err)
	}
	s.Settle()
	victim.SetAlarmMode(true)
	s.Net.Sim.After(DefaultGrace+time.Second, func() {})
	s.Settle()

	spoof := func() DeliveryResult {
		return s.SendV4(1002, mkV4("172.16.1.99", "172.16.4.10"))
	}
	// Alarm phase: spoofed traffic passes but is sampled.
	if res := spoof(); !res.Delivered {
		t.Fatalf("pre-detection drop: %+v", res)
	}
	for i := 0; i < 15; i++ {
		spoof()
	}
	// Detection fired inside the data-plane callback; the auto
	// invocation now needs the control plane to run, and the fresh
	// windows start with a grace interval.
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	s.Net.Sim.After(DefaultGrace+time.Second, func() {})
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	// Enforcement: spoofed traffic from the peer dies at the peer (DP
	// was auto-invoked there), and peer-spoofing from legacy ASes dies
	// at the victim.
	res := s.SendV4(1001, mkV4("203.0.113.7", "172.16.4.10"))
	if res.Delivered || res.DroppedAt != 1001 {
		t.Fatalf("DP not auto-invoked at peer: %+v", res)
	}
	if res := spoof(); res.Delivered {
		t.Fatalf("CDP enforcement not active: %+v", res)
	}
	// Genuine traffic still flows.
	if res := s.SendV4(1001, mkV4("172.16.1.10", "172.16.4.10")); !res.Delivered {
		t.Fatalf("genuine traffic dropped after auto-defense: %+v", res)
	}
}
