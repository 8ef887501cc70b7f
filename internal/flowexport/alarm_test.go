package flowexport

import (
	"net/netip"
	"testing"
	"time"

	"discs/internal/core"
	"discs/internal/lpm"
	"discs/internal/packet"
	"discs/internal/topology"
)

// TestAlarmExportPipeline runs the full §IV-F reporting path: a victim
// border router in alarm mode samples identified spoofing packets into
// the collector, the export datagram crosses the wire, and the
// controller-side analysis pins the attack on the right source AS.
func TestAlarmExportPipeline(t *testing.T) {
	pfx := lpm.New[topology.ASN]()
	pfx.Insert(netip.MustParsePrefix("10.1.0.0/16"), 1) // peer
	pfx.Insert(netip.MustParsePrefix("10.2.0.0/16"), 2) // second peer
	pfx.Insert(netip.MustParsePrefix("10.3.0.0/16"), 3) // victim
	t0 := time.Unix(0, 0).UTC()
	v := netip.MustParsePrefix("10.3.0.0/16")

	tab := core.NewTables(3, pfx)
	tab.In[core.TableInDst].Install(v, core.OpCDPVerify, t0, time.Hour, 0)
	tab.Keys.SetVerifyKey(1, make([]byte, 16))
	tab.Keys.SetVerifyKey(2, make([]byte, 16))
	router, err := core.NewBorderRouterWithOptions(core.RouterOptions{Tables: tab, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	router.SetAlarmMode(true)

	coll, err := NewCollector(1)
	if err != nil {
		t.Fatal(err)
	}
	router.OnAlarm = Tap(coll, packet.ProtoUDP, 64)

	now := t0.Add(time.Minute)
	send := func(src string, n int) {
		for i := 0; i < n; i++ {
			p := &packet.IPv4{
				TTL: 64, Protocol: packet.ProtoUDP,
				Src: netip.MustParseAddr(src), Dst: netip.MustParseAddr("10.3.0.1"),
				Payload: []byte{byte(i)},
			}
			if verdict := router.ProcessInbound(core.V4{P: p}, now); verdict != core.VerdictPassAlarm {
				t.Fatalf("verdict = %v", verdict)
			}
		}
	}
	send("10.1.0.66", 50) // heavy spoofing of peer AS1's space
	send("10.2.0.66", 5)  // light spoofing of peer AS2's space

	// Router exports; datagram crosses to the controller.
	wire, err := marshal(coll.Export(now, true))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %+v", recs)
	}
	top := TopTalkers(recs, 1)
	if len(top) != 1 || top[0].AS != 1 || top[0].Packets != 50 {
		t.Fatalf("top talker = %+v, want AS1 with 50 packets", top)
	}
}

// TestAlarmSamplingReducesLoad: with 1-in-8 sampling the collector
// sees ~1/8 of the packets — the resource argument for sampled export.
func TestAlarmSamplingReducesLoad(t *testing.T) {
	coll, _ := NewCollector(8)
	tap := Tap(coll, packet.ProtoUDP, 64)
	s := core.AlarmSample{
		Src: netip.MustParseAddr("10.1.0.66"), Dst: netip.MustParseAddr("10.3.0.1"),
		SrcAS: 1, When: time.Unix(60, 0).UTC(),
	}
	for i := 0; i < 800; i++ {
		tap(s)
	}
	if coll.Sampled != 100 {
		t.Fatalf("sampled = %d, want 100", coll.Sampled)
	}
	recs := coll.Export(s.When, true)
	if len(recs) != 1 || recs[0].Packets != 100 {
		t.Fatalf("records = %+v", recs)
	}
}
