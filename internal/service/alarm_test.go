package service

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"discs/internal/core"
	"discs/internal/packet"
	"discs/internal/transport"
)

// waitAlarmMode polls a node's router until its alarm mode is want.
func waitAlarmMode(t *testing.T, n *Node, want bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var on bool
		n.Do(func(_ *core.Controller, r *core.BorderRouter) { on = r.AlarmModeOn() })
		if on == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: alarm mode stayed %v", n.Name(), on)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAlarmSamplesReachEventLoop: in service mode alarm samples are
// raised on inbound worker goroutines, and the controller's handler
// (window bookkeeping, sealed MsgQuitAlarm records, maybe an Invoke)
// must run on the event loop. A peer's alarm-mode invocation puts the
// victim in alarm mode; unstamped packets from that peer's space then
// fail verification and raise samples until the threshold is crossed.
// Detection fires exactly once — samples queued behind it in the same
// batch are not counted again — and MsgQuitAlarm takes every peer out
// of alarm mode. Under -race this is the data-race check of the
// hand-off.
func TestAlarmSamplesReachEventLoop(t *testing.T) {
	f, err := NewFleet(FleetOptions{N: 3, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WaitReady(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	const src, other, victim = 0, 1, 2
	if err := f.Protect(victim, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// src's alarm-mode invocation puts its peers, the victim among
	// them, in alarm mode; src itself joins by hand so that all three
	// can be seen leaving it.
	if _, err := f.Nodes[src].Invoke(core.Invocation{
		Prefixes: []netip.Prefix{FleetPrefix(src)},
		Function: core.DP, Duration: time.Hour, Alarm: true,
	}); err != nil {
		t.Fatal(err)
	}
	f.Nodes[src].Do(func(c *core.Controller, _ *core.BorderRouter) { c.SetAlarmMode(true) })
	waitAlarmMode(t, f.Nodes[victim], true)
	waitAlarmMode(t, f.Nodes[other], true)
	time.Sleep(200 * time.Millisecond) // the grace interval lapses: strict verification

	// Unstamped packets claiming src's space, which the victim holds a
	// verify key for: first 60 one-packet frames, below the default
	// threshold of 100 samples, each batch of samples handed over
	// separately; then one 300-packet train, whose single batch crosses
	// the threshold with two thresholds' worth of samples behind it.
	const singles, trainLen = 60, 300
	const injected = singles + trainLen
	raws := make([]*packet.IPv4, injected)
	for k := range raws {
		raws[k] = &packet.IPv4{
			TTL: 64, Protocol: packet.ProtoUDP,
			Src:     FleetAddr(src, byte(40+k%200)),
			Dst:     FleetAddr(victim, byte(10+k%200)),
			Payload: []byte("unstamped"),
		}
	}
	v := f.Nodes[victim]
	stat := func(name string) uint64 { return v.Stats().Get(fmt.Sprintf("as%d.%s", v.AS(), name)) }
	for _, p := range raws[:singles] {
		for !f.Nodes[src].InjectRaw(v.Name(), p) {
			time.Sleep(time.Millisecond) // transport backpressure
		}
	}
	train := transport.Frame{Kind: FrameKindDataBurst, From: f.Nodes[src].Name(), Data: trainOf(t, raws[singles:]...)}
	if !f.Nodes[src].Transport().Send(v.Name(), train) {
		t.Fatal("train refused")
	}

	for _, n := range f.Nodes {
		waitAlarmMode(t, n, false)
	}
	// Every injection is booked — passed with a sample before the
	// detection, dropped after it — before the count is final.
	deadline := time.Now().Add(10 * time.Second)
	for stat(MetricNodeRxDelivered)+stat(MetricNodeRxDropped) < injected {
		if time.Now().After(deadline) {
			t.Fatalf("victim booked %d delivered + %d dropped of %d injected",
				stat(MetricNodeRxDelivered), stat(MetricNodeRxDropped), injected)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := stat("ctrl.attacks_detected"); got != 1 {
		t.Fatalf("attack detected %d times, want exactly once", got)
	}
	if got := stat("router.in_alarmed"); got < 100 {
		t.Fatalf("router alarmed %d packets, want at least the threshold of 100", got)
	}
}
