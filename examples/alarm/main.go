// Alarm mode (§IV-F): a DAS without its own attack-detection module
// invokes CDP in alarm mode — identified spoofing packets are sampled
// and reported to the controller instead of dropped. When the sample
// rate crosses the threshold, the controller declares an attack, tells
// the peers to quit alarm mode, and enforcement begins.
//
//	go run ./examples/alarm
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"discs/internal/bgp"
	"discs/internal/core"
	"discs/internal/packet"
	"discs/internal/topology"
)

func main() {
	log.SetFlags(0)

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
	for asn, p := range map[topology.ASN]string{
		1: "10.1.0.0/16", 2: "10.2.0.0/16", 3: "10.3.0.0/16", 4: "10.4.0.0/16",
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

	cfg := core.DefaultConfig()
	cfg.AlarmThreshold = 25 // demo-sized detection threshold
	sys, err := core.NewSystemWithOptions(core.SystemOptions{Net: net, Config: cfg})
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

	victim := sys.Controllers[3]
	victim.OnAttackDetected = func(src topology.ASN) {
		fmt.Printf(">>> controller detected an attack (samples point at AS%d); quitting alarm mode\n", src)
	}

	// Invoke CDP in alarm mode and arm the victim's own router too.
	if _, err := victim.Invoke(core.Invocation{
		Prefixes: victim.OwnPrefixes(), Function: core.CDP,
		Duration: 24 * time.Hour, Alarm: true,
	}); err != nil {
		log.Fatal(err)
	}
	sys.Settle()
	victim.SetAlarmMode(true)
	sys.Net.Sim.After(core.DefaultGrace+time.Second, func() {})
	sys.Settle()
	fmt.Println("CDP invoked in ALARM mode: spoofed packets are sampled, not dropped")

	spoofed := func() *packet.IPv4 {
		return &packet.IPv4{
			TTL: 64, Protocol: packet.ProtoUDP,
			Src:     netip.MustParseAddr("10.2.0.66"), // claims peer AS2's space
			Dst:     netip.MustParseAddr("10.3.0.1"),
			Payload: []byte("attack"),
		}
	}

	delivered, dropped := 0, 0
	for i := 0; i < 60; i++ {
		if sys.SendV4(4, spoofed()).Delivered {
			delivered++
		} else {
			dropped++
		}
	}
	fmt.Printf("\nattack wave: %d delivered (alarm phase), %d dropped (after escalation)\n",
		delivered, dropped)
	fmt.Printf("victim router: %d sampled in alarm mode, %d dropped after enforcement\n",
		sys.Router(3).Stats().InAlarmed, sys.Router(3).Stats().InDropped)

	// Genuine traffic was never at risk in either phase.
	genuine := &packet.IPv4{
		TTL: 64, Protocol: packet.ProtoUDP,
		Src: netip.MustParseAddr("10.4.0.10"), Dst: netip.MustParseAddr("10.3.0.1"),
		Payload: []byte("hello"),
	}
	if sys.SendV4(4, genuine).Delivered {
		fmt.Println("genuine legacy traffic: DELIVERED (alarm mode is FP-safe)")
	}
}
