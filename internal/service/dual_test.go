package service_test

import (
	"net/netip"
	"testing"
	"time"

	"discs/internal/bgp"
	"discs/internal/core"
	"discs/internal/packet"
	"discs/internal/service"
	"discs/internal/topology"
)

// dualScenario drives one fixed attack scenario — legitimate flows,
// source-spoofed flows, and unstamped injections from AS 1001 toward
// the protected AS 1003 — through a pair of border routers and records
// every verdict in order. The routers' tables were deployed by a live
// DISCS control plane; which transport carried that control plane is
// exactly what the two callers vary.
func dualScenario(srcOut, victimIn func(*packet.IPv4) core.Verdict) []core.Verdict {
	var got []core.Verdict
	wire := func(p *packet.IPv4) *packet.IPv4 {
		b, err := p.Marshal()
		if err != nil {
			panic(err)
		}
		q, err := packet.ParseIPv4(b)
		if err != nil {
			panic(err)
		}
		return q
	}
	for k := 0; k < 8; k++ {
		legit := &packet.IPv4{
			TTL: 64, Protocol: 17,
			Src: netip.AddrFrom4([4]byte{10, 0, 0, byte(20 + k)}),
			Dst: netip.AddrFrom4([4]byte{10, 2, 0, byte(10 + k)}),
		}
		got = append(got, srcOut(legit))
		got = append(got, victimIn(wire(legit)))

		spoofed := &packet.IPv4{
			TTL: 64, Protocol: 17,
			Src: netip.AddrFrom4([4]byte{10, 2, 0, byte(30 + k)}), // victim's space
			Dst: netip.AddrFrom4([4]byte{10, 2, 0, byte(10 + k)}),
		}
		got = append(got, srcOut(spoofed))

		raw := &packet.IPv4{
			TTL: 64, Protocol: 17,
			Src: netip.AddrFrom4([4]byte{10, 0, 0, byte(40 + k)}), // unstamped peer traffic
			Dst: netip.AddrFrom4([4]byte{10, 2, 0, byte(10 + k)}),
		}
		got = append(got, victimIn(wire(raw)))
	}
	return got
}

// simVerdicts runs the scenario on a simulator-transport deployment:
// three DASes on a netsim BGP internet, protection invoked and
// distributed over simulated con-con channels.
func simVerdicts(t *testing.T) []core.Verdict {
	t.Helper()
	tp := topology.New()
	for i, pfx := range []string{"10.0.0.0/16", "10.1.0.0/16", "10.2.0.0/16"} {
		asn := topology.ASN(1001 + i)
		if _, err := tp.AddAS(asn); err != nil {
			t.Fatal(err)
		}
		if err := tp.AddPrefix(asn, netip.MustParsePrefix(pfx)); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]topology.ASN{{1001, 1002}, {1002, 1003}, {1001, 1003}} {
		if err := tp.Link(l[0], l[1], topology.PeerToPeer); err != nil {
			t.Fatal(err)
		}
	}
	net, err := bgp.BuildNetwork(tp, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	net.OriginateAll()
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSystemWithOptions(core.SystemOptions{Net: net, Config: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for i, asn := range []topology.ASN{1001, 1002, 1003} {
		if _, err := s.Deploy(asn, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Controllers[1003].Invoke(core.Invocation{
		Prefixes: []netip.Prefix{netip.MustParsePrefix("10.2.0.0/16")},
		Function: core.DP, Duration: time.Hour,
	}, core.Invocation{
		Prefixes: []netip.Prefix{netip.MustParsePrefix("10.2.0.0/16")},
		Function: core.CDP, Duration: time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	// Step the simulated clock past the grace interval so verification
	// enforces strictly, mirroring the fleet side's wall-clock wait.
	net.Sim.After(core.DefaultGrace+time.Second, func() {})
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	now := s.Now()
	return dualScenario(
		func(p *packet.IPv4) core.Verdict { return s.Router(1001).ProcessOutbound(core.V4{P: p}, now) },
		func(p *packet.IPv4) core.Verdict { return s.Router(1003).ProcessInbound(core.V4{P: p}, now) },
	)
}

// fleetVerdicts runs the identical scenario on a TCP-transport
// deployment: the same protection invoked on a live loopback fleet,
// installs distributed over real sockets, then the resulting router
// tables process the same packets.
func fleetVerdicts(t *testing.T) []core.Verdict {
	t.Helper()
	f, err := service.NewFleet(service.FleetOptions{N: 3, BaseSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WaitReady(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := f.Protect(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // grace (50ms) must lapse
	var out []core.Verdict
	srcOut := func(p *packet.IPv4) core.Verdict {
		var v core.Verdict
		f.Nodes[0].Do(func(_ *core.Controller, r *core.BorderRouter) {
			v = r.ProcessOutbound(core.V4{P: p}, f.Nodes[0].Now())
		})
		return v
	}
	victimIn := func(p *packet.IPv4) core.Verdict {
		var v core.Verdict
		f.Nodes[2].Do(func(_ *core.Controller, r *core.BorderRouter) {
			v = r.ProcessInbound(core.V4{P: p}, f.Nodes[2].Now())
		})
		return v
	}
	out = dualScenario(srcOut, victimIn)
	return out
}

// TestDualTransportScenario is the seam's acceptance check: the same
// protect-and-attack scenario deployed once over the simulator
// transport and once over real TCP sockets must induce the identical
// per-packet verdict sequence — the Transport choice is invisible to
// the defense semantics.
func TestDualTransportScenario(t *testing.T) {
	sim := simVerdicts(t)
	fleet := fleetVerdicts(t)
	if len(sim) != len(fleet) {
		t.Fatalf("verdict counts differ: sim %d, fleet %d", len(sim), len(fleet))
	}
	for i := range sim {
		if sim[i] != fleet[i] {
			t.Fatalf("verdict %d: sim %v, fleet %v", i, sim[i], fleet[i])
		}
	}
	// And the sequence is the one the paper promises: stamped+verified
	// legit, spoofed dropped at the source, raw dropped at the victim.
	for i := 0; i < len(sim); i += 4 {
		if sim[i] != core.VerdictPassStamped || sim[i+1] != core.VerdictPassVerified ||
			sim[i+2] != core.VerdictDrop || sim[i+3] != core.VerdictDrop {
			t.Fatalf("flow %d verdicts = %v", i/4, sim[i:i+4])
		}
	}
}
