// Observability: one registry spanning the whole system, sim-clock
// interval snapshots, and the control/data-plane event trace.
//
//	go run ./examples/observability
//
// It builds the quickstart Internet with packet sampling enabled,
// records an interval time series while the control plane peers and an
// attack is defended, then prints fleet totals, the series and the
// event log — and writes the same data as a JSON export a rewritten
// `discs-report -metrics` can render.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"discs/internal/attack"
	"discs/internal/bgp"
	"discs/internal/cli"
	"discs/internal/core"
	"discs/internal/obs"
	"discs/internal/packet"
	"discs/internal/topology"
)

func main() {
	cli.Init("observability")

	// 1. The quickstart Internet: provider AS1, DASes AS2 and AS3,
	//    legacy AS4.
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

	// 2. One system, one registry. TraceSampleEvery turns on data-plane
	//    packet sampling in every router Deploy builds; the controllers
	//    trace their lifecycle (peering, key exchange, campaigns)
	//    unconditionally.
	cfg := core.DefaultConfig()
	cfg.TraceSampleEvery = 4
	sys, err := core.NewSystemWithOptions(core.SystemOptions{Net: net, Config: cfg})
	if err != nil {
		log.Fatal(err)
	}

	// 3. An interval recorder on the simulated clock: every 500ms of
	//    simulated time, snapshot the whole registry.
	rec := obs.NewRecorder()
	net.Sim.EveryBackground(500*time.Millisecond, func() {
		rec.Record(sys.Registry().Snapshot())
	})

	// 4. Deploy, defend, attack — paced so the series has shape.
	for i, asn := range []topology.ASN{2, 3} {
		if _, err := sys.Deploy(asn, int64(i+1)); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.Settle(); err != nil {
		log.Fatal(err)
	}
	victim := sys.Controllers[3]
	if _, err := victim.Invoke(
		core.Invocation{Prefixes: victim.OwnPrefixes(), Function: core.DP, Duration: 24 * time.Hour},
		core.Invocation{Prefixes: victim.OwnPrefixes(), Function: core.CDP, Duration: 24 * time.Hour},
	); err != nil {
		log.Fatal(err)
	}
	sys.Settle()
	sys.Net.Sim.After(core.DefaultGrace+time.Second, func() {})
	sys.Settle()

	var flows []attack.Flow
	for i := 0; i < 40; i++ {
		flows = append(flows, attack.Flow{Kind: attack.DDDoS, Agent: 2, Innocent: 4, Victim: 3})
		flows = append(flows, attack.Flow{Kind: attack.DDDoS, Agent: 4, Innocent: 2, Victim: 3})
	}
	res, err := attack.RunPaced(sys, flows, 4, 1, 6, 500*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attack: %d packets, %.0f%% filtered\n", res.Sent, 100*res.DropRate())

	// Genuine AS2→AS3 traffic rides the same campaign: stamped at the
	// peer's egress, verified at the victim's border.
	genuine := 0
	for i := 0; i < 20; i++ {
		p := &packet.IPv4{
			TTL: 64, Protocol: packet.ProtoUDP,
			Src:     netip.AddrFrom4([4]byte{10, 2, 0, byte(i + 1)}),
			Dst:     netip.MustParseAddr("10.3.0.1"),
			Payload: []byte("observability"),
		}
		if sys.SendV4(2, p).Delivered {
			genuine++
		}
	}
	fmt.Printf("genuine: %d/20 delivered\n\n", genuine)

	// 5. Every subsystem's Stats() is a view over the same registry.
	snap := sys.Stats()
	fmt.Printf("one registry, %d counters; stamped at t=%.3fs simulated\n",
		len(snap.Counters), cli.Seconds(snap.AtNanos))
	fmt.Printf("  netsim:       %d frames delivered, %d lost\n",
		snap.Get("netsim.delivered"), snap.Get("netsim.faults.lost"))
	fmt.Printf("  AS3 control:  %d msgs sent (same number via controller view: %d)\n",
		snap.Get("as3."+core.MetricCtrlMsgsSent),
		victim.Stats().Get(core.MetricCtrlMsgsSent))
	fmt.Printf("  fleet data plane: %d stamped, %d verified, %d dropped inbound\n\n",
		snap.Sum(core.MetricRouterOutStamped), snap.Sum(core.MetricRouterInVerified),
		snap.Sum(core.MetricRouterInDropped))

	// 6. The interval series, fleet-aggregated. The full series goes
	//    into the export; here the quiet intervals are elided.
	cols := []string{"router.out_stamped", "router.in_dropped", "ctrl.msgs_sent"}
	active := rec.Points()[:0:0]
	var prev obs.Snapshot
	for _, p := range rec.Points() {
		d := p.Delta(prev)
		prev = p
		for _, c := range cols {
			if d.Sum(c) != 0 {
				active = append(active, p)
				break
			}
		}
	}
	fmt.Printf("interval series (per-500ms deltas; %d of %d intervals active):\n",
		len(active), len(rec.Points()))
	if err := cli.WriteSeriesTSV(os.Stdout, active, cols); err != nil {
		log.Fatal(err)
	}

	// 7. The event trace: control-plane lifecycle plus sampled packet
	//    verdicts, all in simulated time.
	fmt.Println("\nevent trace (by kind):")
	for _, kc := range cli.EventCounts(sys.Registry().Tracer().Events()) {
		fmt.Printf("  %-18s %d\n", kc.Kind, kc.N)
	}

	// 8. The same data as the on-disk artifact discs-report renders.
	path := filepath.Join(os.TempDir(), "discs-observability.json")
	ex := obs.NewExport("examples/observability", sys.Registry(), rec, int64(500*time.Millisecond))
	if err := ex.WriteFile(path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %s (%d points, %d events) — render with:\n  go run ./cmd/discs-report -metrics %s\n",
		path, len(ex.Points), len(ex.Events), path)
}
