// Campaign: a time-driven attack scenario exercising the full §IV-E/F
// lifecycle — a DAS runs alarm-mode CDP as its detection net, a botnet
// launches a d-DDoS, the controller detects it from flow samples,
// auto-invokes enforcement, the attack outlives the first enforcement
// window, and the escalation loop re-invokes with a doubled duration.
//
//	go run ./examples/campaign
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"discs/internal/bgp"
	"discs/internal/core"
	"discs/internal/flowexport"
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
	cfg.AlarmThreshold = 20
	cfg.Grace = time.Second
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

	// Flow-export tap: the controller's analysis input (§IV-F).
	coll, err := flowexport.NewCollector(1)
	if err != nil {
		log.Fatal(err)
	}
	baseTap := sys.Router(3).OnAlarm // controller threshold counter
	sys.Router(3).OnAlarm = func(s core.AlarmSample) {
		flowexport.Tap(coll, packet.ProtoUDP, 64)(s)
		if baseTap != nil {
			baseTap(s)
		}
	}
	victim.AutoDefend = &core.AutoDefendPolicy{
		Functions: []core.Function{core.DP, core.CDP},
		Duration:  5 * time.Minute,
		Escalate:  true,
	}
	victim.OnAttackDetected = func(src topology.ASN) {
		recs := coll.Export(sys.Now(), true)
		top := flowexport.TopTalkers(recs, 1)
		fmt.Printf("[%7s] ATTACK DETECTED — flow analysis: top spoofed-source AS%d; auto-invoking DP+CDP\n",
			sys.Net.Sim.Now().Truncate(time.Second), top[0].AS)
	}

	// Detection net: alarm-mode CDP, long duration.
	if _, err := victim.Invoke(core.Invocation{
		Prefixes: victim.OwnPrefixes(), Function: core.CDP,
		Duration: 30 * 24 * time.Hour, Alarm: true,
	}); err != nil {
		log.Fatal(err)
	}
	sys.Settle()
	victim.SetAlarmMode(true)

	runFor := func(d time.Duration) { sys.Net.Sim.Run(sys.Net.Sim.Now() + d) }
	spoof := func(n int) (delivered int) {
		for i := 0; i < n; i++ {
			p := &packet.IPv4{
				TTL: 64, Protocol: packet.ProtoUDP,
				Src:     netip.MustParseAddr("10.2.0.66"), // spoofs peer AS2
				Dst:     netip.MustParseAddr("10.3.0.1"),
				Payload: []byte{byte(i), byte(i >> 8)},
			}
			if sys.SendV4(4, p).Delivered {
				delivered++
			}
		}
		return delivered
	}
	status := func(phase string, n int) {
		d := spoof(n)
		fmt.Printf("[%7s] %-34s %3d/%3d spoofed packets delivered\n",
			sys.Net.Sim.Now().Truncate(time.Second), phase, d, n)
	}

	runFor(2 * time.Second)
	status("peacetime probe (alarm mode):", 10)
	fmt.Println()
	fmt.Println("--- botnet opens fire ---")
	status("attack wave 1:", 30) // crosses the 20-sample threshold
	runFor(2 * time.Second)
	status("after detection + enforcement:", 30)

	fmt.Println()
	fmt.Println("--- attack persists past the 5-minute enforcement window ---")
	runFor(6 * time.Minute)
	// Re-arm the detection net (the enforcement window replaced it).
	victim.Invoke(core.Invocation{
		Prefixes: victim.OwnPrefixes(), Function: core.CDP,
		Duration: 30 * 24 * time.Hour, Alarm: true,
	})
	runFor(2 * time.Second)
	status("window expired (alarm re-armed):", 30)
	runFor(2 * time.Second)
	status("after escalated re-invocation:", 30)
	fmt.Printf("\nescalated enforcement duration: %v (doubled per §IV-E1)\n",
		10*time.Minute)

	// Genuine traffic was never harmed.
	ok := 0
	for i := 0; i < 20; i++ {
		p := &packet.IPv4{
			TTL: 64, Protocol: packet.ProtoUDP,
			Src: netip.MustParseAddr("10.4.0.10"), Dst: netip.MustParseAddr("10.3.0.1"),
			Payload: []byte("legit"),
		}
		if sys.SendV4(4, p).Delivered {
			ok++
		}
	}
	fmt.Printf("genuine traffic throughout: %d/20 delivered\n", ok)
}
