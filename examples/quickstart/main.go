// Quickstart: three ASes, two of which deploy DISCS, defending a
// d-DDoS with DP+CDP.
//
//	go run ./examples/quickstart
//
// It walks the full §IV lifecycle — discovery via DISCS-Ads carried in
// BGP, peering, key negotiation, on-demand invocation — then pushes
// spoofed and genuine packets through the data plane.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"discs/internal/attack"
	"discs/internal/bgp"
	"discs/internal/core"
	"discs/internal/packet"
	"discs/internal/topology"
)

func main() {
	log.SetFlags(0)

	// 1. A tiny Internet: provider AS1 with customers AS2 (peer DAS),
	//    AS3 (victim DAS) and AS4 (legacy).
	topo := topology.New()
	for asn := topology.ASN(1); asn <= 4; asn++ {
		if _, err := topo.AddAS(asn); err != nil {
			log.Fatal(err)
		}
	}
	for _, c := range []topology.ASN{2, 3, 4} {
		if err := topo.Link(c, 1, topology.CustomerToProvider); err != nil {
			log.Fatal(err)
		}
	}
	prefixes := map[topology.ASN]string{
		1: "10.1.0.0/16", 2: "10.2.0.0/16", 3: "10.3.0.0/16", 4: "10.4.0.0/16",
	}
	for asn, p := range prefixes {
		if err := topo.AddPrefix(asn, netip.MustParsePrefix(p)); err != nil {
			log.Fatal(err)
		}
	}

	// 2. BGP: originate and converge.
	net, err := bgp.BuildNetwork(topo, time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	net.OriginateAll()
	if err := net.Converge(); err != nil {
		log.Fatal(err)
	}

	// 3. Deploy DISCS on AS2 and AS3. Discovery, peering and key
	//    negotiation run inside the simulator.
	sys, err := core.NewSystemWithOptions(core.SystemOptions{Net: net, Config: core.DefaultConfig()})
	if err != nil {
		log.Fatal(err)
	}
	for i, asn := range []topology.ASN{2, 3} {
		if _, err := sys.Deploy(asn, int64(i+1)); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.Settle(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AS3 peers: %v (status after BGP discovery + peering)\n",
		sys.Controllers[3].Peers())

	// 4. AS3 comes under d-DDoS and invokes DP+CDP for its prefix.
	victim := sys.Controllers[3]
	n, err := victim.Invoke(
		core.Invocation{Prefixes: victim.OwnPrefixes(), Function: core.DP, Duration: 24 * time.Hour},
		core.Invocation{Prefixes: victim.OwnPrefixes(), Function: core.CDP, Duration: 24 * time.Hour},
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Settle(); err != nil {
		log.Fatal(err)
	}
	// Skip past the verification grace interval.
	sys.Net.Sim.After(core.DefaultGrace+time.Second, func() {})
	sys.Settle()
	fmt.Printf("AS3 invoked DP+CDP at %d peer(s)\n\n", n)

	send := func(label string, fromAS topology.ASN, src, dst string) {
		p := &packet.IPv4{
			TTL: 64, Protocol: packet.ProtoUDP,
			Src: netip.MustParseAddr(src), Dst: netip.MustParseAddr(dst),
			Payload: []byte("quickstart"),
		}
		res := sys.SendV4(fromAS, p)
		outcome := "DELIVERED"
		if !res.Delivered {
			outcome = fmt.Sprintf("DROPPED at AS%d", res.DroppedAt)
		}
		fmt.Printf("%-48s %s\n", label, outcome)
		for _, h := range res.Hops() {
			fmt.Printf("    AS%d: %v\n", h.AS, h.Verdict)
		}
	}

	send("agent in AS2 spoofing 198.51.100.7 -> victim", 2, "198.51.100.7", "10.3.0.1")
	send("agent in AS4 spoofing AS2's space -> victim", 4, "10.2.0.99", "10.3.0.1")
	send("genuine AS2 host -> victim", 2, "10.2.0.10", "10.3.0.1")
	send("genuine AS4 host -> victim", 4, "10.4.0.10", "10.3.0.1")

	// 5. Measure the filtering rate on a sampled d-DDoS.
	sampler := attack.NewSampler(topo)
	var flows []attack.Flow
	for i := 0; i < 50; i++ {
		flows = append(flows, attack.Flow{Kind: attack.DDDoS, Agent: 2, Innocent: 4, Victim: 3})
		flows = append(flows, attack.Flow{Kind: attack.DDDoS, Agent: 4, Innocent: 2, Victim: 3})
	}
	_ = sampler
	res, err := attack.Run(sys, flows, 2, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nd-DDoS mix: %d packets, %.0f%% filtered (peer egress + victim verification)\n",
		res.Sent, 100*res.DropRate())
}
