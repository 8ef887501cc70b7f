package attack

import (
	"net/netip"
	"testing"
	"time"

	"discs/internal/bgp"
	"discs/internal/core"
	"discs/internal/topology"
)

// runnerWorld: provider 1 with customers 2 (DAS), 3 (DAS victim),
// 4 (legacy), DP+CDP+SP+CSP invoked for the victim.
func runnerWorld(t *testing.T) (*core.System, *topology.Topology) {
	t.Helper()
	tp := topology.New()
	for i := topology.ASN(1); i <= 4; i++ {
		if _, err := tp.AddAS(i); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []topology.ASN{2, 3, 4} {
		if err := tp.Link(c, 1, topology.CustomerToProvider); err != nil {
			t.Fatal(err)
		}
	}
	for asn, p := range map[topology.ASN]string{
		1: "10.1.0.0/16", 2: "10.2.0.0/16", 3: "10.3.0.0/16", 4: "10.4.0.0/16",
	} {
		if err := tp.AddPrefix(asn, netip.MustParsePrefix(p)); err != nil {
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
	sys, err := core.NewSystemWithOptions(core.SystemOptions{Net: net, Config: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for i, asn := range []topology.ASN{2, 3} {
		if _, err := sys.Deploy(asn, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Settle(); err != nil {
		t.Fatal(err)
	}
	victim := sys.Controllers[3]
	var invs []core.Invocation
	for _, f := range []core.Function{core.DP, core.CDP, core.SP, core.CSP} {
		invs = append(invs, core.Invocation{
			Prefixes: victim.OwnPrefixes(), Function: f, Duration: 24 * time.Hour,
		})
	}
	if _, err := victim.Invoke(invs...); err != nil {
		t.Fatal(err)
	}
	sys.Settle()
	sys.Net.Sim.After(core.DefaultGrace+time.Second, func() {})
	sys.Settle()
	return sys, tp
}

func TestRunDDDoS(t *testing.T) {
	sys, _ := runnerWorld(t)
	flows := []Flow{
		{Kind: DDDoS, Agent: 2, Innocent: 4, Victim: 3}, // dies at DAS 2 (DP)
		{Kind: DDDoS, Agent: 4, Innocent: 2, Victim: 3}, // dies at victim (CDP)
	}
	res, err := Run(sys, flows, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 40 || res.Dropped != 40 || res.Delivered != 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.DroppedAt[2] != 20 || res.DroppedAt[3] != 20 {
		t.Fatalf("drop locations = %v", res.DroppedAt)
	}
	if res.DropRate() != 1 {
		t.Fatalf("drop rate = %v", res.DropRate())
	}
	if res.AmplifiedDelivered != 0 {
		t.Fatalf("amplified = %v", res.AmplifiedDelivered)
	}
}

func TestRunSDDoSAmplification(t *testing.T) {
	sys, _ := runnerWorld(t)
	// Reflection off the legacy AS 4: the agent is also legacy, so
	// nothing filters these requests — each delivered request counts
	// with the amplification factor.
	flows := []Flow{{Kind: SDDoS, Agent: 4, Innocent: 1, Victim: 3}}
	res, err := Run(sys, flows, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 10 {
		t.Fatalf("delivered = %d", res.Delivered)
	}
	if res.AmplifiedDelivered != 10*AmplificationFactor {
		t.Fatalf("amplified = %v", res.AmplifiedDelivered)
	}
	// Reflection from inside the DAS peer dies at its egress (SP).
	res, err = Run(sys, []Flow{{Kind: SDDoS, Agent: 2, Innocent: 4, Victim: 3}}, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 10 || res.DroppedAt[2] != 10 {
		t.Fatalf("result = %+v", res)
	}
}

func TestRunBadFlow(t *testing.T) {
	sys, _ := runnerWorld(t)
	if _, err := Run(sys, []Flow{{Kind: Kind(9), Agent: 2, Innocent: 4, Victim: 3}}, 1, 1); err == nil {
		t.Fatal("bad flow kind accepted")
	}
}
