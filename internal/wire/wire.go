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
	"cmp"
	"fmt"
	"slices"
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

	egress map[topology.ASN]*egress // set by SetEgress
}

// egress is a work-conserving server with one drop-tail buffer per
// class. Only its AS's data node touches it (admission in the receive
// handler, completions as timers on the node), so it is lane-local.
type egress struct {
	service netsim.Time       // time to serve one packet
	buffer  int               // packets per class
	queue   [2][]*packet.IPv4 // by class: 0 verified, 1 the rest
	serving *packet.IPv4      // in service; nil when idle
	done    func()            // completes the packet in service
}

// New builds data nodes and links for every AS and adjacency of the
// system's topology. Each data node joins its border node's shard.
func New(sys *core.System, cfg Config) (*DataNet, error) {
	dn := &DataNet{
		sys:    sys,
		nodes:  make(map[topology.ASN]*netsim.Node),
		egress: make(map[topology.ASN]*egress),
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

// link returns the data link between two adjacent ASes so tests and
// experiments can tune its bandwidth/buffer (e.g. the victim's uplink).
func (dn *DataNet) link(a, b topology.ASN) *netsim.Link {
	if na := dn.nodes[a]; na != nil {
		return na.LinkTo(dn.nodes[b])
	}
	return nil
}

// SetEgress puts behind asn's border the "prioritized queues" that §I
// says an MEF victim cannot enforce: packets that pass the border are
// served at pps packets per second, those whose marks verified first;
// each class buffers up to buffer packets and drops an arrival beyond
// that into droppedNet. Set it while the simulator is parked. A data
// plane with an egress cannot be checkpointed.
func (dn *DataNet) SetEgress(asn topology.ASN, pps float64, buffer int) error {
	if pps <= 0 || buffer <= 0 || dn.nodes[asn] == nil {
		return fmt.Errorf("wire: egress of AS%d needs a known AS, a positive rate and a positive buffer, got %v pps and %d packets", asn, pps, buffer)
	}
	e := &egress{service: netsim.Time(float64(time.Second) / pps), buffer: buffer}
	e.done = func() {
		now, _ := dn.nodeNow(asn)
		dn.deliver(asn, e.serving, now)
		e.serving = nil
		for c := range e.queue {
			if q := e.queue[c]; len(q) > 0 {
				e.queue[c] = q[1:]
				dn.serve(asn, e, q[0])
				return
			}
		}
	}
	dn.egress[asn] = e
	return nil
}

// egressClass is the egress class of a packet with verdict v. Only a
// verified mark proves it comes from a collaborator DAS (class 0); the
// victim cannot vouch for the rest (class 1).
func egressClass(v core.Verdict) int {
	if v == core.VerdictPassVerified {
		return 0
	}
	return 1
}

// admit serves a packet that passed asn's border with verdict v, or
// queues it in its class or drops it.
func (dn *DataNet) admit(asn topology.ASN, e *egress, p *packet.IPv4, v core.Verdict) {
	class := egressClass(v)
	switch {
	case e.serving == nil:
		dn.serve(asn, e, p)
	case len(e.queue[class]) < e.buffer:
		e.queue[class] = append(e.queue[class], p)
	default:
		dn.slot(asn).droppedNet++
	}
}

func (dn *DataNet) serve(asn topology.ASN, e *egress, p *packet.IPv4) {
	e.serving = p
	dn.nodes[asn].After(e.service, e.done)
}

// delivered returns the number of packets that reached their
// destination AS.
func (dn *DataNet) delivered() uint64 {
	var n uint64
	for i := range dn.sc {
		n += dn.sc[i].delivered
	}
	return n
}

// droppedDISCS returns the number of packets dropped by DISCS
// processing (outbound at the source border or inbound at the
// destination border).
func (dn *DataNet) droppedDISCS() uint64 {
	var n uint64
	for i := range dn.sc {
		n += dn.sc[i].droppedDISCS
	}
	return n
}

// droppedNet returns the number of packets tail-dropped by congested
// links or a full egress buffer, dead of TTL, or lacking a route.
func (dn *DataNet) droppedNet() uint64 {
	var n uint64
	for i := range dn.sc {
		n += dn.sc[i].droppedNet
	}
	return n
}

// linkBytes returns the bytes that crossed the directed link a→b.
func (dn *DataNet) linkBytes(a, b topology.ASN) uint64 {
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

// inject enters a packet at fromAS. The source border applies DISCS
// outbound processing (if fromAS deployed), then the packet rides the
// data links hop by hop toward the owner of its destination address.
// Injection happens at the current simulated time; run the simulator
// to progress deliveries.
func (dn *DataNet) inject(fromAS topology.ASN, p *packet.IPv4) {
	dstAS, ok := dn.sys.Net.Topo.OwnerOf(p.Dst)
	if !ok {
		dn.slot(fromAS).droppedNet++
		return
	}
	at, wall := dn.nodeNow(fromAS)
	if r := dn.sys.Router(fromAS); r != nil {
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
		// Destination border: inbound DISCS processing, then the
		// egress if one is set.
		now, wall := dn.nodeNow(at)
		verdict := core.VerdictPass
		if r := dn.sys.Router(at); r != nil {
			if verdict = r.ProcessInbound(core.V4{P: m.pkt}, wall); verdict.Dropped() {
				dn.slot(at).droppedDISCS++
				return
			}
		}
		if e := dn.egress[at]; e != nil {
			dn.admit(at, e, m.pkt, verdict)
			return
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

// deliveries returns all deliveries so far, ordered by delivery time
// (ties broken by destination then source address, so the order is
// stable across worker counts).
func (dn *DataNet) deliveries() []Delivery {
	var out []Delivery
	for i := range dn.sc {
		out = append(out, dn.sc[i].deliveries...)
	}
	slices.SortStableFunc(out, func(a, b Delivery) int {
		return cmp.Or(cmp.Compare(a.At, b.At), a.Pkt.Dst.Compare(b.Pkt.Dst), a.Pkt.Src.Compare(b.Pkt.Src))
	})
	return out
}

// resetCounters clears delivery/drop/byte counters (links keep their
// configuration) so experiments can measure phases independently.
func (dn *DataNet) resetCounters() {
	dn.sc = newShardCounters(len(dn.sc))
}
