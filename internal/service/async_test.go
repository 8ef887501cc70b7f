package service_test

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"discs/internal/core"
	"discs/internal/service"
	"discs/internal/topology"
)

// TestStartNotBlockedByUnreachablePeers pins the startup-latency
// bugfix: Start announces the pinned peers while holding the event
// loop, but announcing must not dial — a fleet of unreachable peers
// whose dials hang forever must not delay Start (or Close) at all.
func TestStartNotBlockedByUnreachablePeers(t *testing.T) {
	restore := service.SetTestDialHook(func(ctx context.Context, addr string) (net.Conn, error) {
		<-ctx.Done() // hang until the transport closes
		return nil, ctx.Err()
	})
	defer restore()

	peer := func(i int) service.PeerConfig {
		name := fmt.Sprintf("ctrl.as%d", 2+i)
		id, err := service.NodeIdentity(name, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		return service.PeerConfig{
			Name: name, AS: uint32(2 + i),
			Addr: fmt.Sprintf("203.0.113.%d:9", 1+i), // TEST-NET, never reachable
			Pub:  service.PubHex(id),
		}
	}
	cfg := service.Config{
		Name: "ctrl.as1", AS: 1, Listen: "127.0.0.1:0", Seed: 42,
		Prefixes: map[string][]string{
			"1": {"10.0.0.0/16"}, "2": {"10.1.0.0/16"}, "3": {"10.2.0.0/16"},
		},
		Peers: []service.PeerConfig{peer(0), peer(1)},
	}
	n, err := service.NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(begin); d > time.Second {
		t.Fatalf("Start took %v with hanging peer dials", d)
	}
	begin = time.Now()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(begin); d > 2*time.Second {
		t.Fatalf("Close took %v with hanging peer dials", d)
	}
}

// twoNodes builds, cross-wires and starts a 2-node pair by hand (the
// fleet harness hides its configs, and the reload tests need them).
func twoNodes(t *testing.T) (n1, n2 *service.Node, cfg1 service.Config) {
	t.Helper()
	prefixes := map[string][]string{
		"1001": {"10.0.0.0/16"}, "1002": {"10.1.0.0/16"}, "1003": {"10.2.0.0/16"},
	}
	pub := func(name string, seed int64) string {
		id, err := service.NodeIdentity(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		return service.PubHex(id)
	}
	mk := func(name string, as uint32, seed int64, peers []service.PeerConfig) service.Config {
		return service.Config{
			Name: name, AS: as, Listen: "127.0.0.1:0", Seed: seed,
			Prefixes:          prefixes,
			PeeringDelayMaxMS: 20, RetryIntervalMS: 100, HeartbeatMS: 300, GraceMS: 50,
			Peers: peers,
		}
	}
	p1 := service.PeerConfig{Name: "ctrl.as1001", AS: 1001, Pub: pub("ctrl.as1001", 1)}
	p2 := service.PeerConfig{Name: "ctrl.as1002", AS: 1002, Pub: pub("ctrl.as1002", 2)}
	cfg1 = mk("ctrl.as1001", 1001, 1, []service.PeerConfig{p2})
	cfg2 := mk("ctrl.as1002", 1002, 2, []service.PeerConfig{p1})

	n1, err := service.NewNode(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	n2, err = service.NewNode(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n1.Close(); n2.Close() })
	cfg1.Peers[0].Addr = n2.Addr()
	cfg2.Peers[0].Addr = n1.Addr()
	if err := n1.Reload(cfg1); err != nil {
		t.Fatal(err)
	}
	if err := n2.Reload(cfg2); err != nil {
		t.Fatal(err)
	}
	if err := n1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := n2.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready := true
		n1.Do(func(c *core.Controller, _ *core.BorderRouter) {
			ready = ready && c.KeysReadyWith(topology.ASN(1002))
		})
		n2.Do(func(c *core.Controller, _ *core.BorderRouter) {
			ready = ready && c.KeysReadyWith(topology.ASN(1001))
		})
		if ready {
			return n1, n2, cfg1
		}
		if time.Now().After(deadline) {
			t.Fatal("pair never negotiated keys")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReloadNoopAnnouncesNothing pins the reload bugfix: reloading an
// unchanged config (the common case — config management rewrites the
// file, nothing differs) must not re-announce established peers and
// re-kick peering; an address-only change repoints the transport
// silently; only a genuinely new peer is announced.
func TestReloadNoopAnnouncesNothing(t *testing.T) {
	n1, _, cfg1 := twoNodes(t)
	adsSeen := func() uint64 {
		return n1.Stats().Get(fmt.Sprintf("as%d.ctrl.ads_seen", n1.AS()))
	}
	base := adsSeen()
	if base == 0 {
		t.Fatal("no ads seen after startup — announce path broken")
	}

	// Unchanged config: zero new announcements, zero new handshakes.
	hs := n1.Stats().Get(fmt.Sprintf("as%d.ctrl.handshakes_initiated", n1.AS()))
	if err := n1.Reload(cfg1); err != nil {
		t.Fatal(err)
	}
	if got := adsSeen(); got != base {
		t.Fatalf("no-op reload: ads_seen %d → %d", base, got)
	}
	if got := n1.Stats().Get(fmt.Sprintf("as%d.ctrl.handshakes_initiated", n1.AS())); got != hs {
		t.Fatalf("no-op reload: handshakes_initiated %d → %d", hs, got)
	}

	// Address-only change: the transport is repointed, nothing announced.
	moved := cfg1
	moved.Peers = append([]service.PeerConfig(nil), cfg1.Peers...)
	moved.Peers[0].Addr = "127.0.0.1:1"
	if err := n1.Reload(moved); err != nil {
		t.Fatal(err)
	}
	if got := adsSeen(); got != base {
		t.Fatalf("addr-only reload: ads_seen %d → %d", base, got)
	}

	// A genuinely new peer is announced, exactly once.
	id3, err := service.NodeIdentity("ctrl.as1003", 3)
	if err != nil {
		t.Fatal(err)
	}
	grown := moved
	grown.Peers = append(append([]service.PeerConfig(nil), moved.Peers...),
		service.PeerConfig{Name: "ctrl.as1003", AS: 1003, Pub: service.PubHex(id3)})
	if err := n1.Reload(grown); err != nil {
		t.Fatal(err)
	}
	if got := adsSeen(); got != base+1 {
		t.Fatalf("new-peer reload: ads_seen %d → %d, want %d", base, got, base+1)
	}
}

// TestFleetBurstLoadgen drives the end-to-end batch path: packet
// trains from the source's ProcessOutboundBatch through
// FrameKindDataBurst frames into the victim's inbound worker pool and
// ProcessInboundBatch, with per-peer transport metrics visible both
// programmatically and on the Prometheus scrape.
func TestFleetBurstLoadgen(t *testing.T) {
	f, err := service.NewFleet(service.FleetOptions{N: 2, Admin: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := f.Protect(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	const packets = 4096
	rep := f.LoadgenBurst(0, 1, packets, 256)
	if rep.Sent != packets || rep.Stamped != rep.Packets {
		t.Fatalf("burst report = %+v, want %d packets accepted and every attempt stamped", rep, packets)
	}
	waitCounter(t, f.Nodes[1], service.MetricNodeRxDelivered, packets)
	if got := f.Nodes[1].Stats().Get(fmt.Sprintf("as%d.%s", f.Nodes[1].AS(), service.MetricNodeRxMalformed)); got != 0 {
		t.Fatalf("rx_malformed = %d after burst run", got)
	}

	// Per-peer transport accounting on the source side.
	st, ok := f.Nodes[0].Transport().PeerStats(f.Nodes[1].Name())
	if !ok {
		t.Fatal("source has no stats for the victim peer")
	}
	if st.FramesSent == 0 || st.BytesSent == 0 {
		t.Fatalf("per-peer stats = %+v, want frames and bytes sent", st)
	}
	if int(st.FramesSent) >= packets {
		t.Fatalf("burst path sent %d frames for %d packets — trains are not coalescing", st.FramesSent, packets)
	}

	// The same counters surface as {peer=...} labels on /metrics.
	_, body := scrape(t, f.Nodes[0].AdminAddr(), "/metrics")
	series := fmt.Sprintf(`discs_transport_bytes_sent{as="%d",peer=%q}`, f.Nodes[0].AS(), f.Nodes[1].Name())
	if v := promValue(t, body, series); v <= 0 {
		t.Fatalf("%s = %v on scrape, want > 0", series, v)
	}
	if !strings.Contains(body, "discs_transport_queue_depth{") {
		t.Fatal("queue_depth gauge missing from scrape")
	}
}
