// Reflection (s-DDoS) defense: agents spoof the victim's source
// address toward reflectors so the amplified replies flood the victim
// (§I: a 60-byte DNS request can trigger a 4000-byte response). The
// victim invokes SP+CSP; SP drops reflection requests at peer egress,
// and CSP lets reflector-side peers verify that packets claiming the
// victim's sources really came from the victim.
//
//	go run ./examples/reflection
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net/netip"
	"time"

	"discs/internal/attack"
	"discs/internal/bgp"
	"discs/internal/core"
	"discs/internal/topology"
)

func main() {
	log.SetFlags(0)

	// AS1 is the provider; AS2 hosts a botnet (DAS); AS3 is the victim
	// (DAS); AS4 runs open DNS resolvers (DAS); AS5 is a legacy botnet
	// home.
	topo := topology.New()
	for asn := topology.ASN(1); asn <= 5; asn++ {
		if _, err := topo.AddAS(asn); err != nil {
			log.Fatal(err)
		}
	}
	for _, c := range []topology.ASN{2, 3, 4, 5} {
		if err := topo.Link(c, 1, topology.CustomerToProvider); err != nil {
			log.Fatal(err)
		}
	}
	for asn, p := range map[topology.ASN]string{
		1: "10.1.0.0/16", 2: "10.2.0.0/16", 3: "10.3.0.0/16", 4: "10.4.0.0/16", 5: "10.5.0.0/16",
	} {
		if err := topo.AddPrefix(asn, netip.MustParsePrefix(p)); err != nil {
			log.Fatal(err)
		}
	}
	net, err := bgp.BuildNetwork(topo, time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	net.OriginateAll()
	if err := net.Converge(); err != nil {
		log.Fatal(err)
	}

	sys, err := core.NewSystemWithOptions(core.SystemOptions{Net: net, Config: core.DefaultConfig()})
	if err != nil {
		log.Fatal(err)
	}
	for i, asn := range []topology.ASN{2, 3, 4} {
		if _, err := sys.Deploy(asn, int64(i+1)); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.Settle(); err != nil {
		log.Fatal(err)
	}

	victim := sys.Controllers[3]
	if _, err := victim.Invoke(
		core.Invocation{Prefixes: victim.OwnPrefixes(), Function: core.SP, Duration: 24 * time.Hour},
		core.Invocation{Prefixes: victim.OwnPrefixes(), Function: core.CSP, Duration: 24 * time.Hour},
	); err != nil {
		log.Fatal(err)
	}
	sys.Settle()
	sys.Net.Sim.After(core.DefaultGrace+time.Second, func() {})
	sys.Settle()
	fmt.Println("AS3 invoked SP+CSP against an in-progress reflection attack")

	// Reflection waves: requests spoofing the victim's sources.
	runWave := func(label string, agent topology.ASN, reflector topology.ASN) {
		flow := attack.Flow{Kind: attack.SDDoS, Agent: agent, Innocent: reflector, Victim: 3}
		res, err := attack.Run(sys, []attack.Flow{flow}, 200, int64(agent))
		if err != nil {
			log.Fatal(err)
		}
		// Delivered requests turn into amplified replies at the victim.
		fmt.Printf("%-44s %3d requests filtered, %5.1f amplified-Mpkt equivalent reaching victim\n",
			label, res.Dropped, res.AmplifiedDelivered/1000)
	}
	fmt.Println()
	runWave("botnet in peer AS2 -> reflectors in DAS AS4:", 2, 4)
	runWave("botnet in legacy AS5 -> reflectors in DAS AS4:", 5, 4)
	runWave("botnet in legacy AS5 -> reflectors in prov AS1:", 5, 1)

	// The victim's own DNS requests to the reflector AS keep working:
	// CSP stamps them, AS4 verifies and passes.
	genuine := attack.Flow{Kind: attack.SDDoS, Agent: 3, Innocent: 4, Victim: 3}
	pkts, err := genuine.Packets(topo, 50, rand.New(rand.NewSource(1)))
	if err != nil {
		log.Fatal(err)
	}
	ok := 0
	for _, p := range pkts {
		if sys.SendV4(3, p).Delivered {
			ok++
		}
	}
	fmt.Printf("\nvictim's own queries to AS4 resolvers: %d/50 delivered (CSP stamped+verified)\n", ok)
	fmt.Printf("AS4 verified marks: %d, dropped spoofed: %d\n",
		sys.Router(4).Stats().InVerified, sys.Router(4).Stats().InDropped)
}
