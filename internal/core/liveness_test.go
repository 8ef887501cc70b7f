package core

import (
	"testing"
	"time"

	"discs/internal/topology"
)

// fastLiveness tightens the liveness knobs so tests can crash and
// recover controllers in seconds of simulated time.
func fastLiveness(cfg *Config) {
	cfg.HeartbeatInterval = 2 * time.Second
	cfg.DeadAfterMisses = 3
	cfg.ReconnectInterval = 5 * time.Second
	// Keep loss recovery (retry) faster than death declaration (6s), or
	// a single lost frame during a quiet period reads as a crash.
	cfg.RetryInterval = 2 * time.Second
	cfg.RetryJitter = time.Second
}

// TestDeadPeerDetectionAndPurge: a crashed controller goes silent; the
// survivor must detect it via missed heartbeats, declare it dead, and
// purge its key state so routers stop stamping toward the black hole.
func TestDeadPeerDetectionAndPurge(t *testing.T) {
	s := testInternet(t)
	fastLiveness(&s.cfg)
	deploy(t, s, 1001, 1004)
	c1 := s.Controllers[1001]
	if keyS(s.Router(1001).Tables.Keys, 1004) == nil {
		t.Fatal("no stamp key before the crash")
	}

	if err := s.Crash(1004); err != nil {
		t.Fatal(err)
	}
	// Heartbeats every 2s, dead after 3 misses: death lands around
	// t+8s; stop before the first reconnect probe (armed for ≥ t+13s)
	// moves the FSM on.
	s.Net.Sim.Run(s.Net.Sim.Now() + 10*time.Second)
	if st, _ := c1.PeerStatusOf(1004); st != peerDead {
		t.Fatalf("AS1001→AS1004 status %v, want dead", st)
	}
	if c1.Stats().Get(MetricCtrlPeersDeclaredDead) != 1 {
		t.Fatalf("PeersDeclaredDead = %d, want 1", c1.Stats().Get(MetricCtrlPeersDeclaredDead))
	}
	// Probing may later move the FSM to requested, but the peer stays
	// un-established and the purge sticks while it is down.
	s.Net.Sim.Run(s.Net.Sim.Now() + 20*time.Second)
	if keyS(s.Router(1001).Tables.Keys, 1004) != nil {
		t.Fatal("stamp key toward the dead peer not purged")
	}
	if hasKeyV(s.Router(1001).Tables.Keys, 1004) {
		t.Fatal("verify key for the dead peer not purged")
	}
	// The survivor itself must not think it is dead to anyone else: a
	// one-peer deployment has nothing else to check, but Peers() must
	// no longer list the dead one.
	if peers := c1.Peers(); len(peers) != 0 {
		t.Fatalf("dead peer still listed as established: %v", peers)
	}
}

// TestRestartResumesSession: after a controller crash + restart, the
// peering must re-establish over the abbreviated resumption handshake
// (no new full handshakes), and keys must work again.
func TestRestartResumesSession(t *testing.T) {
	s := testInternet(t)
	fastLiveness(&s.cfg)
	deploy(t, s, 1001, 1004)
	c1, c4 := s.Controllers[1001], s.Controllers[1004]
	fullBefore := c1.Stats().Get(metricCtrlHandshakesInitiated) + c4.Stats().Get(metricCtrlHandshakesInitiated)

	if err := s.Crash(1004); err != nil {
		t.Fatal(err)
	}
	s.Net.Sim.Run(s.Net.Sim.Now() + 30*time.Second)
	if c1.Stats().Get(MetricCtrlPeersDeclaredDead) != 1 {
		t.Fatalf("survivor never declared the crashed peer dead (stat %d)", c1.Stats().Get(MetricCtrlPeersDeclaredDead))
	}

	if err := s.Restart(1004); err != nil {
		t.Fatal(err)
	}
	// Restart replays Ads immediately; the reconnect probe on the
	// survivor side fires within ReconnectInterval*1.5. Run past both.
	s.Net.Sim.Run(s.Net.Sim.Now() + 30*time.Second)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}

	if st, _ := c1.PeerStatusOf(1004); st != peerEstablished {
		t.Fatalf("AS1001→AS1004 status %v after restart", st)
	}
	if st, _ := c4.PeerStatusOf(1001); st != peerEstablished {
		t.Fatalf("AS1004→AS1001 status %v after restart", st)
	}
	if !c1.KeysReadyWith(1004) || !c4.KeysReadyWith(1001) {
		t.Fatal("keys not re-deployed after restart")
	}
	if got := c1.Stats().Get(metricCtrlHandshakesInitiated) + c4.Stats().Get(metricCtrlHandshakesInitiated); got != fullBefore {
		t.Fatalf("full handshakes went %d→%d; recovery must use resumption", fullBefore, got)
	}
	if c1.Stats().Get(metricCtrlResumesInitiated)+c4.Stats().Get(metricCtrlResumesInitiated) == 0 {
		t.Fatal("no abbreviated handshakes initiated during recovery")
	}
	if c1.Stats().Get(metricCtrlResumesResponded)+c4.Stats().Get(metricCtrlResumesResponded) == 0 {
		t.Fatal("no abbreviated handshakes responded during recovery")
	}
}

// TestResumeFallbackToFullHandshake: when the remote side has lost the
// cached secret, a resumption attempt must be rejected and
// transparently fall back to the full handshake, refreshing the cache
// on both ends.
func TestResumeFallbackToFullHandshake(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	c1, c4 := s.Controllers[1001], s.Controllers[1004]

	// Simulate a session-cache wipe at AS1004 and an expired transport
	// session at AS1001: the next exchange must start with a resumption
	// offer that AS1004 cannot honour.
	delete(c4.resumeCache, topology.ASN(1001))
	p := c1.peers[1004]
	p.out = nil
	fullBefore := c1.Stats().Get(metricCtrlHandshakesInitiated) + c4.Stats().Get(metricCtrlHandshakesInitiated)

	if err := rekey(c1, 1004); err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}

	if c1.Stats().Get(metricCtrlResumeFallbacks) != 1 {
		t.Fatalf("ResumeFallbacks = %d, want 1", c1.Stats().Get(metricCtrlResumeFallbacks))
	}
	if got := c1.Stats().Get(metricCtrlHandshakesInitiated) + c4.Stats().Get(metricCtrlHandshakesInitiated); got != fullBefore+1 {
		t.Fatalf("full handshakes went %d→%d, want exactly one fallback handshake", fullBefore, got)
	}
	if !c1.KeysReadyWith(1004) {
		t.Fatal("rekey did not complete over the fallback handshake")
	}
	// Both ends must agree on a fresh secret for the next resumption.
	if c1.resumeCache[1004] != c4.resumeCache[1001] {
		t.Fatal("resume caches diverged after fallback")
	}
}

// TestRetryDelayJitter: retry delays must land in
// [RetryInterval, RetryInterval+RetryJitter] and actually vary (the
// anti-request-storm satellite), deterministically per seed.
func TestRetryDelayJitter(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001)
	c := s.Controllers[1001]
	c.cfg.RetryInterval = 5 * time.Second
	c.cfg.RetryJitter = 2 * time.Second

	varied := false
	var prev time.Duration
	for i := 0; i < 50; i++ {
		d := c.retryDelay()
		if d < 5*time.Second || d > 7*time.Second {
			t.Fatalf("retry delay %v outside [5s, 7s]", d)
		}
		if i > 0 && d != prev {
			varied = true
		}
		prev = d
	}
	if !varied {
		t.Fatal("retry delay never varied — jitter inert")
	}

	c.cfg.RetryJitter = 0
	if d := c.retryDelay(); d != 5*time.Second {
		t.Fatalf("zero jitter gave %v, want exactly 5s", d)
	}
}

// TestHeartbeatsDoNotPreventSettle: the default config has heartbeats
// enabled; a deployed system must still settle (background events must
// not keep RunAll alive) and the simulated clock must not race ahead.
func TestHeartbeatsDoNotPreventSettle(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004) // deploy() settles — if this returns, RunAll terminated
	before := s.Net.Sim.Now()
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if s.Net.Sim.Now() != before {
		t.Fatalf("settling an idle system advanced the clock %v→%v", before, s.Net.Sim.Now())
	}
	// Heartbeats do run when something else drives the clock forward.
	c1 := s.Controllers[1001]
	s.Net.Sim.Run(s.Net.Sim.Now() + 2*c1.cfg.HeartbeatInterval)
	if c1.Stats().Get(metricCtrlHeartbeatsSent) == 0 {
		t.Fatal("no heartbeats sent while the clock advanced")
	}
	if st, _ := c1.PeerStatusOf(1004); st != peerEstablished {
		t.Fatalf("healthy peer degraded to %v under heartbeats", st)
	}
}
