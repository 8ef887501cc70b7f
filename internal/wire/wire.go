// Package wire overlays a packet-level data plane on the DISCS system:
// every AS gets a data-forwarding node in the discrete-event simulator,
// adjacent ASes are joined by links with configurable delay, bandwidth
// and buffer depth, and IPv4 packets ride those links hop by hop.
//
// This is the substrate for the paper's core motivation (§I): a
// brute-force DDoS "overwhelm[s] the uplink of victim networks", and
// inter-AS collaboration "enables spoofing traffic to be filtered far
// from the victim AS, which alleviates the victim AS's bandwidth
// pressure and saves intermediate network bandwidth". With wire mode,
// both effects are measured rather than asserted: the victim's uplink
// is a finite-capacity link that congests, and per-link byte counters
// show where attack traffic dies.
//
// DISCS processing happens where it does in reality: outbound at the
// source AS border (if it deployed), inbound at the destination AS
// border (if it deployed); transit ASes only forward.
//
// Under the parallel engine (internal/netsim), packet handlers for
// nodes in different shards execute on different worker goroutines, so
// all counters here are sharded: each shard accumulates into its own
// slot (indexed by the executing node's shard, which is exactly the
// lane the handler runs on), and the accessors sum the slots. Data
// nodes inherit their AS's shard from the border node, keeping
// border<->data interactions shard-local.
package wire

import (
	"fmt"
	"sort"
	"time"

	"discs/internal/core"
	"discs/internal/netsim"
	"discs/internal/packet"
	"discs/internal/topology"
)

// Config sets the default link parameters of the data plane.
type Config struct {
	// HopDelay is the per-link propagation delay.
	HopDelay time.Duration
	// LinkBps is the default link bandwidth in bytes/second (0 =
	// unlimited). Individual links can be retuned via Link.
	LinkBps float64
	// MaxBacklog is the default per-link buffer depth (0 = unbounded).
	MaxBacklog time.Duration
}

// DefaultConfig: 1 ms hops, unlimited core links.
func DefaultConfig() Config { return Config{HopDelay: time.Millisecond} }

// dataMsg carries one IPv4 packet across a link.
type dataMsg struct {
	pkt   *packet.IPv4
	dstAS topology.ASN
}

// Size implements netsim.Message with the packet's wire size.
func (m *dataMsg) Size() int { return m.pkt.TotalLen() }

// Delivery reports one packet reaching its destination AS.
type Delivery struct {
	Pkt *packet.IPv4
	At  time.Duration
}

// shardCounters is one shard's slice of the data-plane accounting.
// Only the lane that owns the shard writes it, so no locking is
// needed; accessors run from driver context, after the lanes have
// quiesced.
type shardCounters struct {
	delivered    uint64
	droppedDISCS uint64
	droppedNet   uint64
	linkBytes    map[[2]topology.ASN]uint64
	deliveries   []Delivery
}

// DataNet is the instantiated data plane.
type DataNet struct {
	sys   *core.System
	nodes map[topology.ASN]*netsim.Node

	// OnDeliver, when set, observes every delivered packet. Under the
	// parallel engine it is invoked from worker goroutines (one per
	// shard at a time); set it only for serial runs unless the callback
	// is safe for concurrent use.
	OnDeliver func(Delivery)

	sc []shardCounters // indexed by node shard
}

// New builds data nodes and links for every AS and adjacency of the
// system's topology. Each data node joins its border node's shard.
func New(sys *core.System, cfg Config) (*DataNet, error) {
	dn := &DataNet{
		sys:   sys,
		nodes: make(map[topology.ASN]*netsim.Node),
	}
	topo := sys.Net.Topo
	maxShard := 0
	for _, asn := range topo.ASNs() {
		node, err := sys.Net.Sim.AddNode(fmt.Sprintf("data%d", asn))
		if err != nil {
			return nil, err
		}
		if sp := sys.Net.Speakers[asn]; sp != nil {
			node.SetShard(sp.Node().Shard())
		}
		if s := node.Shard(); s > maxShard {
			maxShard = s
		}
		dn.nodes[asn] = node
		asn := asn
		node.SetHandler(netsim.HandlerFunc(func(_ *netsim.Node, _ *netsim.Link, msg netsim.Message) {
			dn.receive(asn, msg)
		}))
	}
	dn.sc = newShardCounters(maxShard + 1)
	for _, asn := range topo.ASNs() {
		a := topo.AS(asn)
		for _, prov := range a.Providers {
			if _, err := dn.connect(asn, prov, cfg); err != nil {
				return nil, err
			}
		}
		for _, peer := range a.Peers {
			if peer < asn {
				continue
			}
			if _, err := dn.connect(asn, peer, cfg); err != nil {
				return nil, err
			}
		}
	}
	return dn, nil
}

func newShardCounters(n int) []shardCounters {
	sc := make([]shardCounters, n)
	for i := range sc {
		sc[i].linkBytes = make(map[[2]topology.ASN]uint64)
	}
	return sc
}

// slot returns the counter shard for the AS whose node's handler is
// executing.
func (dn *DataNet) slot(asn topology.ASN) *shardCounters {
	return &dn.sc[dn.nodes[asn].Shard()]
}

func (dn *DataNet) connect(a, b topology.ASN, cfg Config) (*netsim.Link, error) {
	l, err := dn.sys.Net.Sim.Connect(dn.nodes[a], dn.nodes[b], cfg.HopDelay)
	if err != nil {
		return nil, err
	}
	l.Bps = cfg.LinkBps
	l.MaxBacklog = cfg.MaxBacklog
	return l, nil
}

// Link returns the data link between two adjacent ASes so tests and
// experiments can tune its bandwidth/buffer (e.g. the victim's uplink).
func (dn *DataNet) Link(a, b topology.ASN) *netsim.Link {
	na, nb := dn.nodes[a], dn.nodes[b]
	if na == nil || nb == nil {
		return nil
	}
	for _, l := range na.Links() {
		if l.Neighbor(na) == nb {
			return l
		}
	}
	return nil
}

// Delivered returns the number of packets that reached their
// destination AS.
func (dn *DataNet) Delivered() uint64 {
	var n uint64
	for i := range dn.sc {
		n += dn.sc[i].delivered
	}
	return n
}

// DroppedDISCS returns the number of packets dropped by DISCS
// processing (outbound at the source border or inbound at the
// destination border).
func (dn *DataNet) DroppedDISCS() uint64 {
	var n uint64
	for i := range dn.sc {
		n += dn.sc[i].droppedDISCS
	}
	return n
}

// DroppedNet returns the number of packets tail-dropped by congested
// links, dead of TTL, or lacking a route.
func (dn *DataNet) DroppedNet() uint64 {
	var n uint64
	for i := range dn.sc {
		n += dn.sc[i].droppedNet
	}
	return n
}

// LinkBytes returns the bytes that crossed the directed link a→b.
func (dn *DataNet) LinkBytes(a, b topology.ASN) uint64 {
	key := [2]topology.ASN{a, b}
	var n uint64
	for i := range dn.sc {
		n += dn.sc[i].linkBytes[key]
	}
	return n
}

// nodeNow reads the data node's clock — exact in the executing lane —
// mapped to the wall-clock domain used by the DISCS tables.
func (dn *DataNet) nodeNow(asn topology.ASN) (netsim.Time, time.Time) {
	at := dn.nodes[asn].Now()
	return at, time.Unix(0, 0).UTC().Add(at)
}

// Inject enters a packet at fromAS. The source border applies DISCS
// outbound processing (if fromAS deployed), then the packet rides the
// data links hop by hop toward the owner of its destination address.
// Injection happens at the current simulated time; run the simulator
// to progress deliveries.
func (dn *DataNet) Inject(fromAS topology.ASN, p *packet.IPv4) {
	dstAS, ok := dn.sys.Net.Topo.OwnerOf(p.Dst)
	if !ok {
		dn.slot(fromAS).droppedNet++
		return
	}
	at, wall := dn.nodeNow(fromAS)
	if r := dn.sys.Routers[fromAS]; r != nil {
		if r.ProcessOutbound(core.V4{P: p}, wall).Dropped() {
			dn.slot(fromAS).droppedDISCS++
			return
		}
	}
	if fromAS == dstAS {
		dn.deliver(fromAS, p, at)
		return
	}
	dn.forward(fromAS, &dataMsg{pkt: p, dstAS: dstAS})
}

// receive handles a packet arriving at an AS's data node.
func (dn *DataNet) receive(at topology.ASN, msg netsim.Message) {
	m, ok := msg.(*dataMsg)
	if !ok {
		return
	}
	if at == m.dstAS {
		// Destination border: inbound DISCS processing.
		now, wall := dn.nodeNow(at)
		if r := dn.sys.Routers[at]; r != nil {
			if r.ProcessInbound(core.V4{P: m.pkt}, wall).Dropped() {
				dn.slot(at).droppedDISCS++
				return
			}
		}
		dn.deliver(at, m.pkt, now)
		return
	}
	if m.pkt.TTL <= 1 {
		dn.slot(at).droppedNet++
		return
	}
	m.pkt.TTL--
	dn.forward(at, m)
}

// forward sends the packet one hop along the valley-free path.
func (dn *DataNet) forward(at topology.ASN, m *dataMsg) {
	next, ok := dn.sys.Net.Topo.NextHop(at, m.dstAS)
	if !ok {
		dn.slot(at).droppedNet++
		return
	}
	dn.slot(at).linkBytes[[2]topology.ASN{at, next}] += uint64(m.pkt.TotalLen())
	if !dn.nodes[at].SendTo(dn.nodes[next], m) {
		dn.slot(at).droppedNet++ // congested or down link
	}
}

func (dn *DataNet) deliver(at topology.ASN, p *packet.IPv4, now netsim.Time) {
	s := dn.slot(at)
	s.delivered++
	d := Delivery{Pkt: p, At: now}
	s.deliveries = append(s.deliveries, d)
	if dn.OnDeliver != nil {
		dn.OnDeliver(d)
	}
}

// Deliveries returns all deliveries so far, ordered by delivery time
// (ties broken by destination then source address, so the order is
// stable across worker counts).
func (dn *DataNet) Deliveries() []Delivery {
	var out []Delivery
	for i := range dn.sc {
		out = append(out, dn.sc[i].deliveries...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if c := a.Pkt.Dst.Compare(b.Pkt.Dst); c != 0 {
			return c < 0
		}
		return a.Pkt.Src.Compare(b.Pkt.Src) < 0
	})
	return out
}

// ResetCounters clears delivery/drop/byte counters (links keep their
// configuration) so experiments can measure phases independently.
func (dn *DataNet) ResetCounters() {
	dn.sc = newShardCounters(len(dn.sc))
}
