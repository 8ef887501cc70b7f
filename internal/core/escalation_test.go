package core

import (
	"testing"
	"time"
)

// driveAttackUntilDetection pushes spoofed packets (claiming the peer
// AS1001's space from legacy AS1002) until the victim's alarm
// threshold trips.
func driveAttackUntilDetection(s *System, n int) {
	for i := 0; i < n; i++ {
		s.SendV4(1002, mkV4("172.16.1.99", "172.16.4.10"))
	}
}

// TestEscalationDoublesDuration exercises the §IV-E1 re-invocation
// loop: detection → enforce for d → windows expire while the attack
// persists → re-armed alarm detects again → re-invoke for 2d.
func TestEscalationDoublesDuration(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	victim := s.Controllers[1004]
	victim.cfg.AlarmThreshold = 10
	victim.cfg.Grace = time.Second // keep the grace window small
	pol := &AutoDefendPolicy{
		Functions: []Function{CDP},
		Duration:  10 * time.Minute,
		Escalate:  true,
	}
	victim.AutoDefend = pol

	// Standing alarm-mode CDP (the detection net, long duration).
	if _, err := victim.Invoke(Invocation{
		Prefixes: victim.OwnPrefixes(), Function: CDP,
		Duration: 30 * 24 * time.Hour, Alarm: true,
	}); err != nil {
		t.Fatal(err)
	}
	s.Settle()
	victim.SetAlarmMode(true)
	// Time-bounded runs (not Settle) so the escalation re-arm timer
	// fires at its scheduled time instead of being fast-forwarded.
	runFor := func(d time.Duration) { s.Net.Sim.Run(s.Net.Sim.Now() + d) }
	runFor(2 * time.Second)

	// First detection.
	driveAttackUntilDetection(s, 15)
	runFor(time.Second) // control plane delivers the auto invocation
	if pol.lastDuration != 10*time.Minute {
		t.Fatalf("first invocation duration = %v", pol.lastDuration)
	}
	// Enforcement active (past the 1s grace): spoofed drops.
	runFor(2 * time.Second)
	if res := s.SendV4(1002, mkV4("172.16.1.99", "172.16.4.10")); res.Delivered {
		t.Fatal("enforcement not active after first detection")
	}

	// Let the 10-minute enforcement lapse; the standing alarm
	// invocation (30 days) keeps CDP verification scheduled... note the
	// auto invocation replaced the In-Dst window, so after expiry the
	// re-armed alarm path needs fresh samples to re-trigger.
	runFor(11 * time.Minute)
	if !s.Router(1004).AlarmModeOn() {
		t.Fatal("alarm mode not re-armed after enforcement expiry")
	}
	// The enforcement window expired: spoofed traffic passes again.
	if res := s.SendV4(1002, mkV4("172.16.1.99", "172.16.4.10")); !res.Delivered {
		t.Fatalf("expected pass after expiry, got %+v", res)
	}
	// Re-invoke the standing detection net (expired with the window
	// replacement), then the persisting attack triggers escalation.
	if _, err := victim.Invoke(Invocation{
		Prefixes: victim.OwnPrefixes(), Function: CDP,
		Duration: 30 * 24 * time.Hour, Alarm: true,
	}); err != nil {
		t.Fatal(err)
	}
	runFor(2 * time.Second)
	driveAttackUntilDetection(s, 15)
	runFor(time.Second)
	if pol.lastDuration != 20*time.Minute {
		t.Fatalf("escalated duration = %v, want 20m", pol.lastDuration)
	}
	runFor(2 * time.Second)
	if res := s.SendV4(1002, mkV4("172.16.1.99", "172.16.4.10")); res.Delivered {
		t.Fatal("enforcement not active after escalation")
	}
}

// TestEscalationCapped: the doubling stops at MaxDuration.
func TestEscalationCapped(t *testing.T) {
	pol := &AutoDefendPolicy{
		Functions:   []Function{DP},
		Duration:    10 * time.Minute,
		Escalate:    true,
		MaxDuration: 25 * time.Minute,
	}
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	victim := s.Controllers[1004]
	victim.cfg.AlarmThreshold = 5
	victim.AutoDefend = pol
	victim.Invoke(Invocation{
		Prefixes: victim.OwnPrefixes(), Function: CDP,
		Duration: 30 * 24 * time.Hour, Alarm: true,
	})
	s.Settle()

	for round := 0; round < 4; round++ {
		victim.SetAlarmMode(true)
		s.Net.Sim.After(2*time.Second, func() {})
		s.Settle()
		driveAttackUntilDetection(s, 10)
		s.Settle()
	}
	if pol.lastDuration > 25*time.Minute {
		t.Fatalf("duration %v exceeds cap", pol.lastDuration)
	}
}

// TestPurgeExpired: expired windows are reclaimed by the periodic
// purge sweep the controller arms on invocation — no manual
// purgeExpired call needed.
func TestPurgeExpired(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1004)
	victim := s.Controllers[1004]
	if _, err := victim.Invoke(Invocation{
		Prefixes: victim.OwnPrefixes(), Function: CDP, Duration: time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	if s.Router(1004).Tables.In[TableInDst].numPrefixes() != 1 {
		t.Fatal("window not installed")
	}
	s.Net.Sim.After(2*time.Minute+time.Second, func() {})
	s.Settle()
	// The periodic sweep (background events) ran while the clock
	// advanced past the window end and reclaimed the slot.
	if s.Router(1004).Tables.In[TableInDst].numPrefixes() != 0 {
		t.Fatal("expired window still present after periodic purge")
	}
	if victim.Stats().Get(metricCtrlPurged) != 1 {
		t.Fatalf("Purged stat = %d, want 1", victim.Stats().Get(metricCtrlPurged))
	}
	if n := victim.purgeExpired(); n != 0 {
		t.Fatalf("manual purge after the sweep removed %d", n)
	}
}
