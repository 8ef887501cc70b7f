// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§VI) plus the ablations called out in DESIGN.md §5.
// Each figure bench regenerates the corresponding data series on the
// paper-scale synthetic Internet and reports the headline checkpoint
// values as custom metrics, so `go test -bench` doubles as the
// reproduction run (EXPERIMENTS.md records paper-vs-measured).
// Throughput is measured by the repository benchmark (`go run ./bench`),
// not here.
package discs_test

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"discs/internal/attack"
	"discs/internal/bgp"
	"discs/internal/cmac"
	"discs/internal/core"
	"discs/internal/cost"
	"discs/internal/eval"
	"discs/internal/packet"
	"discs/internal/qos"
	"discs/internal/topology"
	"discs/internal/wire"
)

// paperInternet caches the 44 036-AS synthetic Internet across benches.
var paperInternet *topology.Topology

// mustRouter builds a border router from options; bench/test setup is
// static, so an options error is a harness bug worth a panic.
func mustRouter(o core.RouterOptions) *core.BorderRouter {
	r, err := core.NewBorderRouterWithOptions(o)
	if err != nil {
		panic(err)
	}
	return r
}

// newSystem wires DISCS into net with the default protocol config.
func newSystem(tb testing.TB, net *bgp.Network) *core.System {
	tb.Helper()
	sys, err := core.NewSystemWithOptions(core.SystemOptions{Net: net, Config: core.DefaultConfig()})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

func paperScale(b *testing.B) (*topology.Topology, *eval.Ratios) {
	b.Helper()
	if paperInternet == nil {
		cfg := topology.DefaultGenConfig()
		cfg.SkipLinks = true
		tp, err := topology.GenerateInternet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		paperInternet = tp
	}
	return paperInternet, eval.FromTopology(paperInternet)
}

// BenchmarkFig5 regenerates Figure 5: mean deployment incentives of
// DP/SP, CDP/CSP and DP+CDP/SP+CSP over random deployment orders.
// Metrics: incentive at 10% and 50% deployment (paper: 0.1688, 0.6865).
func BenchmarkFig5(b *testing.B) {
	_, r := paperScale(b)
	var at10, at50 float64
	for i := 0; i < b.N; i++ {
		pts, err := eval.MeanIncentiveCurve(r, 5, 21, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Ratio <= 0.11 && p.Ratio >= 0.09 {
				at10 = p.Y["DP+CDP"]
			}
			if p.Ratio <= 0.51 && p.Ratio >= 0.49 {
				at50 = p.Y["DP+CDP"]
			}
		}
	}
	b.ReportMetric(at10, "inc@10%")
	b.ReportMetric(at50, "inc@50%")
}

// BenchmarkFig6a regenerates Figure 6a: cumulated address-space ratio
// under the uniform/random/optimal strategies. Metric: optimal share
// after 629 deployers (implied ≈0.90 by the paper's Fig 7 checkpoint).
func BenchmarkFig6a(b *testing.B) {
	_, r := paperScale(b)
	var share629 float64
	for i := 0; i < b.N; i++ {
		cum := r.CumulativeRatio(r.OptimalOrder())
		share629 = cum[628]
	}
	b.ReportMetric(share629, "optimal-share@629")
}

// BenchmarkFig6b regenerates Figure 6b: DP+CDP incentive vs number of
// deployers for each strategy over the whole process.
func BenchmarkFig6b(b *testing.B) {
	_, r := paperScale(b)
	var last float64
	for i := 0; i < b.N; i++ {
		curves, err := eval.StrategyCurves(r, 21, 1, func(rr *eval.Ratios, order []topology.ASN, s int) ([]eval.Point, error) {
			return eval.IncentiveCurve(rr, order, s)
		})
		if err != nil {
			b.Fatal(err)
		}
		pts := curves["optimal"]
		last = pts[len(pts)-1].Y["DP+CDP"]
	}
	b.ReportMetric(last, "optimal-inc@full")
}

// BenchmarkFig6c regenerates Figure 6c (early stage). Metrics: optimal
// incentive at 50 and 200 deployers (paper: 0.68 and 0.88).
func BenchmarkFig6c(b *testing.B) {
	_, r := paperScale(b)
	var at50, at200 float64
	for i := 0; i < b.N; i++ {
		acc := eval.NewAccumulator(r)
		order := r.OptimalOrder()
		for k := 0; k < 200; k++ {
			if err := acc.Deploy(order[k]); err != nil {
				b.Fatal(err)
			}
			if k+1 == 50 {
				at50 = acc.IncBoth()
			}
		}
		at200 = acc.IncBoth()
	}
	b.ReportMetric(at50, "inc@50")
	b.ReportMetric(at200, "inc@200")
}

// BenchmarkFig7a regenerates Figure 7a: global spoofing reduction over
// the whole deployment process, three strategies.
func BenchmarkFig7a(b *testing.B) {
	_, r := paperScale(b)
	var half float64
	for i := 0; i < b.N; i++ {
		pts, err := eval.EffectivenessCurve(r, r.OptimalOrder(), 21)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Ratio >= 0.49 && p.Ratio <= 0.51 {
				half = p.Y["effectiveness"]
			}
		}
	}
	b.ReportMetric(half, "optimal-eff@50%")
}

// BenchmarkFig7b regenerates Figure 7b (early stage). Metrics: optimal
// effectiveness at 50 and 629 deployers (paper: 0.41 and 0.90).
func BenchmarkFig7b(b *testing.B) {
	_, r := paperScale(b)
	var at50, at629 float64
	for i := 0; i < b.N; i++ {
		acc := eval.NewAccumulator(r)
		order := r.OptimalOrder()
		for k := 0; k < 629; k++ {
			if err := acc.Deploy(order[k]); err != nil {
				b.Fatal(err)
			}
			if k+1 == 50 {
				at50 = acc.Effectiveness()
			}
		}
		at629 = acc.Effectiveness()
	}
	b.ReportMetric(at50, "eff@50")
	b.ReportMetric(at629, "eff@629")
}

// BenchmarkSensitivity sweeps the synthetic-Internet shape parameters
// and reports the Fig-7b 50-largest effectiveness checkpoint for each,
// showing how sensitive the headline conclusion is to the dataset
// substitution (DESIGN.md #1). The paper's value is 0.41.
func BenchmarkSensitivity(b *testing.B) {
	shapes := []struct {
		name string
		cfg  topology.GenConfig
	}{
		{"zipf0.8", topology.GenConfig{NumASes: 44036, ZipfExponent: 0.8, Seed: 1, SkipLinks: true}},
		{"zipf1.0", topology.GenConfig{NumASes: 44036, ZipfExponent: 1.0, Seed: 1, SkipLinks: true}},
		{"calibrated", func() topology.GenConfig {
			c := topology.DefaultGenConfig()
			c.SkipLinks = true
			return c
		}()},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			var eff50 float64
			for i := 0; i < b.N; i++ {
				tp, err := topology.GenerateInternet(sh.cfg)
				if err != nil {
					b.Fatal(err)
				}
				r := eval.FromTopology(tp)
				acc := eval.NewAccumulator(r)
				for _, asn := range r.OptimalOrder()[:50] {
					if err := acc.Deploy(asn); err != nil {
						b.Fatal(err)
					}
				}
				eff50 = acc.Effectiveness()
			}
			b.ReportMetric(eff50, "eff@50")
		})
	}
}

// BenchmarkCostController regenerates the §VI-C1 controller cost table.
// Metrics: total memory MB (paper 463.1) and SSL conn/s (paper 147).
func BenchmarkCostController(b *testing.B) {
	var c cost.ControllerCost
	for i := 0; i < b.N; i++ {
		c = cost.Controller(cost.Defaults())
	}
	b.ReportMetric(c.TotalMemoryBytes/1e6, "memMB")
	b.ReportMetric(c.ConnPerSecOnAttack, "conn/s")
	b.ReportMetric(c.CPUUtilization*100, "cpu%")
}

// BenchmarkCostRouter regenerates the §VI-C2 router cost table.
// Metrics: SRAM MB (paper 3.5) and IPv4 line rate Gbps (paper 26.25).
func BenchmarkCostRouter(b *testing.B) {
	var r cost.RouterCost
	for i := 0; i < b.N; i++ {
		r = cost.Router(cost.Defaults())
	}
	b.ReportMetric(r.SRAMBytes/1e6, "sramMB")
	b.ReportMetric(r.V4Gbps, "v4Gbps")
	b.ReportMetric(r.V6Gbps, "v6Gbps")
}

// twoASTopo is the data-plane benches' prefix-ownership world: AS1
// owns 10.1.0.0/16 and AS3 owns 10.3.0.0/16.
func twoASTopo(tb testing.TB) *topology.Topology {
	tb.Helper()
	tp := topology.New()
	for asn, p := range map[topology.ASN]string{1: "10.1.0.0/16", 3: "10.3.0.0/16"} {
		if _, err := tp.AddAS(asn); err != nil {
			tb.Fatal(err)
		}
		if err := tp.AddPrefix(asn, netip.MustParsePrefix(p)); err != nil {
			tb.Fatal(err)
		}
	}
	return tp
}

// dataPlanePair builds a stamped CDP peer/victim router pair over a
// tiny Pfx2AS for the data-plane benches.
func dataPlanePair(b testing.TB) (peer, victim *core.BorderRouter, now time.Time) {
	b.Helper()
	tp := twoASTopo(b)
	key := make([]byte, 16)
	t0 := time.Unix(0, 0).UTC()
	v := netip.MustParsePrefix("10.3.0.0/16")

	pt := core.NewTables(1, tp.Pfx2AS())
	pt.In[core.TableOutDst].Install(v, core.OpDPFilter, t0, time.Hour, 0)
	pt.In[core.TableOutDst].Install(v, core.OpCDPStamp, t0, time.Hour, 0)
	pt.Keys.SetStampKey(3, key)
	peer = mustRouter(core.RouterOptions{Tables: pt, Seed: 1})

	vt := core.NewTables(3, tp.Pfx2AS())
	vt.In[core.TableInDst].Install(v, core.OpCDPVerify, t0, time.Hour, 0)
	vt.Keys.SetVerifyKey(1, key)
	victim = mustRouter(core.RouterOptions{Tables: vt, Seed: 2})
	return peer, victim, t0.Add(time.Minute)
}

// BenchmarkForgery is the §VI-E1 experiment: random 29-bit marks
// against the verifier; the metric is accepted forgeries (expected 0
// at bench scale, since P = 2^-29 per guess).
func BenchmarkForgery(b *testing.B) {
	_, victim, now := dataPlanePair(b)
	rng := rand.New(rand.NewSource(1))
	accepted := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &packet.IPv4{
			TTL: 64, Protocol: packet.ProtoUDP,
			Src: netip.MustParseAddr("10.1.0.10"), Dst: netip.MustParseAddr("10.3.0.1"),
			Payload: []byte("forged"),
		}
		p.SetMark(rng.Uint32())
		if !victim.ProcessInbound(core.V4{P: p}, now).Dropped() {
			accepted++
		}
	}
	b.ReportMetric(float64(accepted), "forgeries-accepted")
}

// BenchmarkAblationOnDemand quantifies the on-demand design (§IV-E):
// data-plane work per packet with no invocation active vs. an active
// CDP invocation. The no-invocation path must be crypto-free.
func BenchmarkAblationOnDemand(b *testing.B) {
	mk := func(b *testing.B, invoked bool) *core.BorderRouter {
		tp := twoASTopo(b)
		t0 := time.Unix(0, 0).UTC()
		tab := core.NewTables(1, tp.Pfx2AS())
		tab.Keys.SetStampKey(3, make([]byte, 16))
		if invoked {
			tab.In[core.TableOutDst].Install(netip.MustParsePrefix("10.3.0.0/16"),
				core.OpCDPStamp, t0, time.Hour, 0)
		}
		return mustRouter(core.RouterOptions{Tables: tab, Seed: 1})
	}
	now := time.Unix(0, 0).UTC().Add(time.Minute)
	pkt := func() *packet.IPv4 {
		return &packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP,
			Src: netip.MustParseAddr("10.1.0.10"), Dst: netip.MustParseAddr("10.3.0.1"),
			Payload: []byte("x")}
	}
	b.Run("idle", func(b *testing.B) {
		r := mk(b, false)
		p := pkt()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.ProcessOutbound(core.V4{P: p}, now)
		}
		if r.Stats().MACsComputed != 0 {
			b.Fatal("idle path ran crypto")
		}
	})
	b.Run("invoked", func(b *testing.B) {
		r := mk(b, true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.ProcessOutbound(core.V4{P: pkt()}, now)
		}
	})
}

// BenchmarkAblationDPFirst measures the §IV-E2 suggestion that DP
// should accompany CDP so spoofed packets are dropped before reaching
// the crypto stage: MACs computed per 1000 spoofed packets with and
// without the DP pre-filter.
func BenchmarkAblationDPFirst(b *testing.B) {
	run := func(withDP bool) float64 {
		tp := twoASTopo(b)
		t0 := time.Unix(0, 0).UTC()
		v := netip.MustParsePrefix("10.3.0.0/16")
		tab := core.NewTables(1, tp.Pfx2AS())
		tab.Keys.SetStampKey(3, make([]byte, 16))
		tab.In[core.TableOutDst].Install(v, core.OpCDPStamp, t0, time.Hour, 0)
		if withDP {
			tab.In[core.TableOutDst].Install(v, core.OpDPFilter, t0, time.Hour, 0)
		}
		r := mustRouter(core.RouterOptions{Tables: tab, Seed: 1})
		now := t0.Add(time.Minute)
		for i := 0; i < 1000; i++ {
			p := &packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP,
				Src: netip.MustParseAddr("192.0.2.7"), // spoofed
				Dst: netip.MustParseAddr("10.3.0.1"), Payload: []byte("spoof")}
			r.ProcessOutbound(core.V4{P: p}, now)
		}
		return float64(r.Stats().MACsComputed)
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		without = run(false)
		with = run(true)
	}
	b.ReportMetric(without, "MACs/1k-CDP-only")
	b.ReportMetric(with, "MACs/1k-DP+CDP")
}

// BenchmarkAblationMarks compares DISCS's single destination mark with
// Passport's per-hop marks: CMAC computations per packet for a mean
// AS-path length of 4 intermediate ASes.
func BenchmarkAblationMarks(b *testing.B) {
	const pathLen = 4
	c, err := cmac.New(make([]byte, 16))
	if err != nil {
		b.Fatal(err)
	}
	p := &packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP,
		Src: netip.MustParseAddr("10.1.0.10"), Dst: netip.MustParseAddr("10.3.0.1"),
		Payload: []byte("marks")}
	// One mark: the 29-bit CMAC of the packet's msg fields, written into
	// IPID and Fragment Offset, as a stamping border does it (§V-E).
	stamp := func() {
		m := p.Msg()
		p.SetMark(c.Sum29(m[:]))
	}
	b.Run("discs-1-mark", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stamp()
		}
	})
	b.Run("passport-per-hop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for h := 0; h < pathLen+1; h++ {
				stamp()
			}
		}
	})
}

// BenchmarkAblationPriority quantifies the §I MEF-vs-DISCS uplink
// claim as metrics: legit goodput with CDP-driven priority queueing
// vs. without classification, under a 5× overload.
func BenchmarkAblationPriority(b *testing.B) {
	const legitPPS, attackPPS, capacity = 300, 5000, 1000
	mkTrace := func(classified bool) ([]qos.Packet, map[int]bool) {
		var pkts []qos.Packet
		legit := map[int]bool{}
		id := 0
		add := func(class qos.Class, pps int, isLegit bool) {
			gap := time.Second / time.Duration(pps)
			for i := 0; i < pps; i++ {
				c := class
				if !classified {
					c = qos.Low
				}
				pkts = append(pkts, qos.Packet{Arrival: time.Duration(i) * gap, Class: c, ID: id})
				legit[id] = isLegit
				id++
			}
		}
		add(qos.High, legitPPS, true)
		add(qos.Low, attackPPS, false)
		return pkts, legit
	}
	q := qos.Queue{ServicePPS: capacity, BufferPerClass: 32}
	goodput := func(classified bool) float64 {
		pkts, legit := mkTrace(classified)
		out, err := q.Run(pkts)
		if err != nil {
			b.Fatal(err)
		}
		deliv, offered := 0, 0
		for _, o := range out {
			if legit[o.Packet.ID] {
				offered++
				if !o.Dropped {
					deliv++
				}
			}
		}
		return float64(deliv) / float64(offered)
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = goodput(true)
		without = goodput(false)
	}
	b.ReportMetric(100*with, "discs-goodput%")
	b.ReportMetric(100*without, "mef-goodput%")
}

// convergedNet builds the BGP network over tp and converges it.
func convergedNet(b *testing.B, tp *topology.Topology) *bgp.Network {
	b.Helper()
	net, err := bgp.BuildNetwork(tp, time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	net.OriginateAll()
	if err := net.Converge(); err != nil {
		b.Fatal(err)
	}
	return net
}

// deployAll deploys DISCS on asns (seeds 1, 2, ...) and settles.
func deployAll(b *testing.B, sys *core.System, asns []topology.ASN) {
	b.Helper()
	for k, a := range asns {
		if _, err := sys.Deploy(a, int64(k+1)); err != nil {
			b.Fatal(err)
		}
	}
	if err := sys.Settle(); err != nil {
		b.Fatal(err)
	}
}

// invokeAll has the victim invoke each function on its own prefixes
// for 240 hours and settles.
func invokeAll(b *testing.B, sys *core.System, victim *core.Controller, fns ...core.Function) {
	b.Helper()
	invs := make([]core.Invocation, len(fns))
	for i, f := range fns {
		invs[i] = core.Invocation{Prefixes: victim.OwnPrefixes(), Function: f, Duration: 240 * time.Hour}
	}
	if _, err := victim.Invoke(invs...); err != nil {
		b.Fatal(err)
	}
	if err := sys.Settle(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkControlPlane measures the full §IV lifecycle — BGP
// convergence, Ad propagation, peering, key negotiation — for a
// 9-AS Internet with 3 DASes.
func BenchmarkControlPlane(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tp := topology.New()
		asns := []topology.ASN{10, 20, 100, 200, 300, 1001, 1002, 1003, 1004}
		for _, a := range asns {
			if _, err := tp.AddAS(a); err != nil {
				b.Fatal(err)
			}
		}
		for _, l := range []struct {
			a, b topology.ASN
			rel  topology.Relationship
		}{
			{10, 20, topology.PeerToPeer},
			{100, 10, topology.CustomerToProvider},
			{200, 10, topology.CustomerToProvider},
			{300, 20, topology.CustomerToProvider},
			{1001, 100, topology.CustomerToProvider},
			{1002, 100, topology.CustomerToProvider},
			{1003, 200, topology.CustomerToProvider},
			{1004, 300, topology.CustomerToProvider},
		} {
			if err := tp.Link(l.a, l.b, l.rel); err != nil {
				b.Fatal(err)
			}
		}
		for j, a := range asns {
			if err := tp.AddPrefix(a, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(j + 1), 0, 0}), 16)); err != nil {
				b.Fatal(err)
			}
		}
		sys := newSystem(b, convergedNet(b, tp))
		deployAll(b, sys, []topology.ASN{1001, 1003, 300})
		if len(sys.Controllers[1001].Peers()) != 2 {
			b.Fatal("peering incomplete")
		}
	}
}

// BenchmarkWireExhaustion runs the §I bandwidth-exhaustion experiment
// on the packet-level data plane (internal/wire): a botnet inside a
// peer DAS floods the victim's finite uplink. Metrics: legitimate
// goodput (%) during the flood and after the victim invokes DP.
func BenchmarkWireExhaustion(b *testing.B) {
	var during, after float64
	for i := 0; i < b.N; i++ {
		tp := topology.New()
		for j := topology.ASN(1); j <= 4; j++ {
			if _, err := tp.AddAS(j); err != nil {
				b.Fatal(err)
			}
		}
		for _, c := range []topology.ASN{2, 3, 4} {
			if err := tp.Link(c, 1, topology.CustomerToProvider); err != nil {
				b.Fatal(err)
			}
		}
		for asn, pfx := range map[topology.ASN]string{
			1: "10.1.0.0/16", 2: "10.2.0.0/16", 3: "10.3.0.0/16", 4: "10.4.0.0/16",
		} {
			if err := tp.AddPrefix(asn, netip.MustParsePrefix(pfx)); err != nil {
				b.Fatal(err)
			}
		}
		sys := newSystem(b, convergedNet(b, tp))
		deployAll(b, sys, []topology.ASN{2, 3})
		dn, err := wire.New(sys, wire.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		up := dn.Link(1, 3)
		up.Bps = 128_000
		up.MaxBacklog = 20 * time.Millisecond

		const legitN, floodN = 400, 6000
		run := func() float64 {
			dn.ResetCounters()
			gapL := time.Second / time.Duration(legitN)
			gapF := time.Second / time.Duration(floodN)
			now := sys.Net.Sim.Now()
			for k := 0; k < legitN; k++ {
				k := k
				sys.Net.Sim.Schedule(now+time.Duration(k)*gapL, func() {
					dn.Inject(4, &packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP,
						Src: netip.MustParseAddr("10.4.0.10"), Dst: netip.MustParseAddr("10.3.0.1"),
						Payload: make([]byte, 36)})
				})
			}
			for k := 0; k < floodN; k++ {
				k := k
				sys.Net.Sim.Schedule(now+time.Duration(k)*gapF, func() {
					dn.Inject(2, &packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP,
						Src: netip.MustParseAddr("198.51.100.7"), Dst: netip.MustParseAddr("10.3.0.1"),
						Payload: make([]byte, 36)})
				})
			}
			if err := sys.Settle(); err != nil {
				b.Fatal(err)
			}
			legit := 0
			for _, d := range dn.Deliveries() {
				if d.Pkt.Src == netip.MustParseAddr("10.4.0.10") {
					legit++
				}
			}
			return 100 * float64(legit) / legitN
		}
		during = run()
		invokeAll(b, sys, sys.Controllers[3], core.DP)
		after = run()
	}
	b.ReportMetric(during, "goodput-under-flood%")
	b.ReportMetric(after, "goodput-defended%")
}

// BenchmarkEndToEndAttack measures flow-level attack simulation
// throughput through the packet data plane (the discs-sim scenario).
func BenchmarkEndToEndAttack(b *testing.B) {
	tp, err := topology.GenerateInternet(topology.GenConfig{
		NumASes: 100, NumPrefixes: 300, ZipfExponent: 1.0, TierOneCount: 5, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	sys := newSystem(b, convergedNet(b, tp))
	deployers := tp.BySizeDesc()[:6]
	deployAll(b, sys, deployers)
	victim := sys.Controllers[deployers[len(deployers)-1]]
	invokeAll(b, sys, victim, core.DP, core.CDP)
	sys.Net.Sim.After(core.DefaultGrace+time.Second, func() {})
	if err := sys.Settle(); err != nil {
		b.Fatal(err)
	}

	sampler := attack.NewSampler(tp)
	rng := rand.New(rand.NewSource(2))
	flows := make([]attack.Flow, 20)
	for i := range flows {
		flows[i] = sampler.DrawFlowForVictim(attack.DDDoS, victim.AS, rng)
	}
	b.ResetTimer()
	var last attack.Result
	for i := 0; i < b.N; i++ {
		res, err := attack.Run(sys, flows, 5, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(100*last.DropRate(), "filtered%")
}
