package core

import (
	"fmt"
	"testing"
	"time"

	"discs/internal/netsim"
)

// TestCrashMidCampaignRecovery is the end-to-end failure campaign: the
// victim's controller crashes mid-defense, the peer detects the death
// via missed heartbeats and degrades gracefully (keys purged, the
// campaign's table entries withdrawn), and after a restart the session
// resumes over the abbreviated handshake and the campaign re-drives to
// full enforcement — all under seeded frame loss, so two runs of the
// whole scenario are identical.
func TestCrashMidCampaignRecovery(t *testing.T) {
	first := crashCampaignScenario(t)
	second := crashCampaignScenario(t)
	if first != second {
		t.Fatalf("scenario not deterministic:\nrun1: %s\nrun2: %s", first, second)
	}
}

// crashCampaignScenario runs the full scenario and returns a summary
// string of everything observable, for cross-run comparison.
func crashCampaignScenario(t *testing.T) string {
	t.Helper()
	s := testInternet(t)
	sim := s.Net.Sim
	fastLiveness(&s.cfg)
	sim.SeedFaults(7)
	// Fault the con-con links (created on demand, after BGP converged):
	// the recovery machinery must work through ambient loss too.
	sim.SetDefaultLinkFaults(netsim.LinkFaults{Loss: 0.05})
	deploy(t, s, 1001, 1004)
	victim, peer := s.Controllers[1004], s.Controllers[1001]

	// The campaign: DP + CDP protection for the victim's prefixes.
	if _, err := victim.Invoke(
		Invocation{Prefixes: victim.OwnPrefixes(), Function: DP, Duration: 24 * time.Hour},
		Invocation{Prefixes: victim.OwnPrefixes(), Function: CDP, Duration: 24 * time.Hour},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	sim.After(DefaultGrace+time.Second, func() {})
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}

	legit := func() bool {
		return s.SendV4(1001, mkV4("172.16.1.10", "172.16.4.10")).Delivered
	}
	spoof := func() bool {
		// AS1002 (legacy) spoofing the peer's prefix toward the victim.
		return s.SendV4(1002, mkV4("172.16.1.99", "172.16.4.10")).Delivered
	}
	if !legit() {
		t.Fatal("phase 1: legitimate peer traffic dropped")
	}
	if spoof() {
		t.Fatal("phase 1: spoofed traffic delivered — campaign not enforcing")
	}

	// Mid-campaign crash of the victim's controller. Its border routers
	// stay up and keep enforcing; its control plane goes silent.
	fullHandshakes := victim.Stats().Get(metricCtrlHandshakesInitiated) + peer.Stats().Get(metricCtrlHandshakesInitiated)
	if err := s.Crash(1004); err != nil {
		t.Fatal(err)
	}
	sim.Run(sim.Now() + 30*time.Second)

	if peer.Stats().Get(MetricCtrlPeersDeclaredDead) != 1 {
		t.Fatalf("peer never declared the victim dead (stat %d)", peer.Stats().Get(MetricCtrlPeersDeclaredDead))
	}
	if keyS(s.Router(1001).Tables.Keys, 1004) != nil {
		t.Fatal("peer still stamping toward the dead victim")
	}
	withdrawn := 0
	for _, ft := range s.Router(1001).Tables.In {
		withdrawn += ft.numPrefixes()
	}
	if withdrawn != 0 {
		t.Fatalf("campaign table entries not withdrawn at the peer: %d left", withdrawn)
	}
	// Degradation semantics: the victim's routers still enforce their
	// windows, so spoofing stays dead; the peer's unstamped (formerly
	// stamped) traffic is collateral damage until recovery.
	if spoof() {
		t.Fatal("outage: victim routers stopped enforcing")
	}
	if legit() {
		t.Fatal("outage: unstamped peer traffic passed CDP verification")
	}

	// Restart: Ads replay, the session resumes via the abbreviated
	// handshake, keys re-deploy, and the journaled campaign re-drives.
	if err := s.Restart(1004); err != nil {
		t.Fatal(err)
	}
	sim.Run(sim.Now() + 60*time.Second)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	sim.After(DefaultGrace+time.Second, func() {})
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}

	if st, _ := peer.PeerStatusOf(1004); st != peerEstablished {
		t.Fatalf("recovery: peer→victim status %v", st)
	}
	if st, _ := victim.PeerStatusOf(1001); st != peerEstablished {
		t.Fatalf("recovery: victim→peer status %v", st)
	}
	if !victim.KeysReadyWith(1001) || !peer.KeysReadyWith(1004) {
		t.Fatal("recovery: keys not re-deployed")
	}
	if victim.Stats().Get(metricCtrlCampaignResyncs) == 0 {
		t.Fatal("recovery: campaign never re-driven from the journal")
	}
	if victim.Stats().Get(metricCtrlResumesInitiated)+peer.Stats().Get(metricCtrlResumesInitiated) == 0 {
		t.Fatal("recovery: no abbreviated handshake was attempted")
	}
	if got := victim.Stats().Get(metricCtrlHandshakesInitiated) + peer.Stats().Get(metricCtrlHandshakesInitiated); got != fullHandshakes {
		t.Fatalf("recovery ran %d full handshakes; resumption should need none", got-fullHandshakes)
	}
	if !legit() {
		t.Fatal("recovery: legitimate peer traffic still dropped")
	}
	if spoof() {
		t.Fatal("recovery: campaign not enforcing after resync")
	}

	fs := sim.Stats()
	return fmt.Sprintf(
		"now=%v lost=%d crashdropped=%d peerRetries=%d victimRetries=%d dead=%d resyncs=%d resumesI=%d resumesR=%d fallbacks=%d hb=%d msgs=%d/%d",
		sim.Now(), fs.Get(netsim.MetricLost), fs.Get(netsim.MetricCrashDropped), peer.Stats().Get(MetricCtrlRetries), victim.Stats().Get(MetricCtrlRetries),
		peer.Stats().Get(MetricCtrlPeersDeclaredDead), victim.Stats().Get(metricCtrlCampaignResyncs),
		victim.Stats().Get(metricCtrlResumesInitiated)+peer.Stats().Get(metricCtrlResumesInitiated),
		victim.Stats().Get(metricCtrlResumesResponded)+peer.Stats().Get(metricCtrlResumesResponded),
		victim.Stats().Get(metricCtrlResumeFallbacks)+peer.Stats().Get(metricCtrlResumeFallbacks),
		victim.Stats().Get(metricCtrlHeartbeatsSent)+peer.Stats().Get(metricCtrlHeartbeatsSent),
		victim.Stats().Get(MetricCtrlMsgsSent)+peer.Stats().Get(MetricCtrlMsgsSent), victim.Stats().Get(MetricCtrlMsgsRecv)+peer.Stats().Get(MetricCtrlMsgsRecv),
	)
}
