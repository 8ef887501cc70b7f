// Package attack generates the spoofing-attack workloads the DISCS
// evaluation runs against (§VI of the paper).
//
// A spoofing flow is the triple (a, i, v) of §VI-A: agent AS a sends
// the traffic, victim AS v is attacked, and innocent AS i is abused —
// as the spoofed source in a d-DDoS, or as the reflector destination
// in an s-DDoS. Following the paper (and the literature it cites),
// every routable address is equally likely to be the agent, innocent
// or victim, so ASes are sampled with probability proportional to
// their routable address space.
package attack

import (
	"fmt"
	"math/rand"
	"sort"

	"discs/internal/packet"
	"discs/internal/topology"
)

// Kind distinguishes the two spoofing-DDoS families (§I).
type Kind int

const (
	// DDDoS: agents send packets directly to the victim with spoofed
	// (innocent) source addresses for anonymity.
	DDDoS Kind = iota
	// SDDoS: agents send requests to innocent reflectors with the
	// victim's source address; the replies flood the victim.
	SDDoS
)

func (k Kind) String() string {
	if k == DDDoS {
		return "d-DDoS"
	}
	return "s-DDoS"
}

// Flow is one spoofing flow (a, i, v).
type Flow struct {
	Kind     Kind
	Agent    topology.ASN // a — where the packets originate
	Innocent topology.ASN // i — spoofed source (d-DDoS) or reflector (s-DDoS)
	Victim   topology.ASN // v — the attacked AS
}

func (f Flow) String() string {
	return fmt.Sprintf("%v(a=AS%d, i=AS%d, v=AS%d)", f.Kind, f.Agent, f.Innocent, f.Victim)
}

// Sampler draws ASes with probability proportional to their routable
// address space (the paper's r_j weights).
type Sampler struct {
	topo *topology.Topology
	asns []topology.ASN
	cum  []float64 // cumulative weights
}

// NewSampler builds a weighted sampler over all ASes of the topology.
func NewSampler(topo *topology.Topology) *Sampler {
	asns := append([]topology.ASN(nil), topo.ASNs()...)
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	cum := make([]float64, len(asns))
	var total float64
	for i, asn := range asns {
		total += topo.Ratio(asn)
		cum[i] = total
	}
	return &Sampler{topo: topo, asns: asns, cum: cum}
}

// Draw samples one AS.
func (s *Sampler) Draw(rng *rand.Rand) topology.ASN {
	if len(s.asns) == 0 {
		return 0
	}
	x := rng.Float64() * s.cum[len(s.cum)-1]
	i := sort.SearchFloat64s(s.cum, x)
	if i >= len(s.asns) {
		i = len(s.asns) - 1
	}
	return s.asns[i]
}

// DrawFlow samples a spoofing flow of the given kind with the
// constraints of §VI-A: a ≠ v and i ∉ {a, v} would bias the model, so
// the paper only requires a ≠ v and i ≠ a for d-DDoS incentives; we
// enforce a, i, v pairwise distinct, which is the regime all the
// closed forms quantify over (a = v or i = v terms carry zero or
// excluded weight).
func (s *Sampler) DrawFlow(kind Kind, rng *rand.Rand) Flow {
	for {
		a, i, v := s.Draw(rng), s.Draw(rng), s.Draw(rng)
		if a == 0 || i == 0 || v == 0 {
			return Flow{Kind: kind}
		}
		if a != v && i != v && a != i {
			return Flow{Kind: kind, Agent: a, Innocent: i, Victim: v}
		}
	}
}

// DrawFlowForVictim samples a flow attacking a fixed victim.
func (s *Sampler) DrawFlowForVictim(kind Kind, victim topology.ASN, rng *rand.Rand) Flow {
	for {
		a, i := s.Draw(rng), s.Draw(rng)
		if a == 0 || i == 0 {
			return Flow{Kind: kind, Victim: victim}
		}
		if a != victim && i != victim && a != i {
			return Flow{Kind: kind, Agent: a, Innocent: i, Victim: victim}
		}
	}
}

// countError reports a negative packet count handed to Packets, Run
// or RunPaced.
type countError struct{ N int }

func (e *countError) Error() string {
	return fmt.Sprintf("attack: negative packet count %d", e.N)
}

// PayloadLen is the size of every generated packet's random payload.
const PayloadLen = 24

// Packets materializes n IPv4 packets for the flow: d-DDoS packets go
// agent→victim with the innocent's source; s-DDoS requests go
// agent→innocent with the victim's source. It allocates the storage
// and fills it with Fill, so the packets of one call share two backing
// arrays (the structs and the payload bytes) and are collected
// together.
func (f Flow) Packets(topo *topology.Topology, n int, rng *rand.Rand) ([]*packet.IPv4, error) {
	return f.packets(topo, nil, n, rng)
}

// endpoints returns the ASes whose space the packets' source and
// destination addresses come from.
func (f Flow) endpoints() (srcAS, dstAS topology.ASN, err error) {
	switch f.Kind {
	case DDDoS:
		return f.Innocent, f.Victim, nil
	case SDDoS:
		return f.Victim, f.Innocent, nil
	}
	return 0, 0, fmt.Errorf("attack: unknown kind %d", f.Kind)
}

// packets allocates n packets with their payloads, fills them and
// returns pointers to them.
func (f Flow) packets(topo *topology.Topology, target *topology.AddrIndex, n int, rng *rand.Rand) ([]*packet.IPv4, error) {
	if _, _, err := f.endpoints(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, &countError{N: n}
	}
	slab := make([]packet.IPv4, n)
	if err := f.Fill(topo, target, slab, make([]byte, n*PayloadLen), rng); err != nil {
		return nil, err
	}
	out := make([]*packet.IPv4, n)
	for k := range slab {
		out[k] = &slab[k]
	}
	return out, nil
}

// Fill is the packet generator: it draws len(pkts) packets for the flow
// into caller-owned storage, so a caller that keeps pkts and payloads
// generates without allocating. Every field of every pkts[k] is
// overwritten. Packet k's payload is payloads[k*PayloadLen :
// (k+1)*PayloadLen], with its capacity clamped to its length so that
// appending to it copies instead of running into the next packet's
// bytes; payloads must hold len(pkts)*PayloadLen bytes. A non-nil
// target replaces the destination AS's space (the carpet-bombing
// shape).
//
// Per packet the rng yields, in this order, one Uint64 for the source
// address, one for the destination and one Read of the payload; every
// seeded campaign, dataset and differential in the repository depends
// on that order. An AS without IPv4 space is reported when its draw
// comes up, so a failed call leaves the rng where the per-packet walk
// always left it (callers such as the scenario's legit phase skip the
// flow and keep drawing from the same stream).
func (f Flow) Fill(topo *topology.Topology, target *topology.AddrIndex, pkts []packet.IPv4, payloads []byte, rng *rand.Rand) error {
	srcAS, dstAS, err := f.endpoints()
	if err != nil {
		return err
	}
	if len(pkts) == 0 {
		return nil
	}
	src := topo.V4Index(srcAS)
	if src == nil {
		return fmt.Errorf("attack: AS%d has no IPv4 space", srcAS)
	}
	dst := target
	if dst == nil {
		dst = topo.V4Index(dstAS)
	}
	if dst == nil {
		rng.Uint64() // the first packet's source draw
		return fmt.Errorf("attack: AS%d has no IPv4 space", dstAS)
	}
	srcN, dstN := src.Total(), dst.Total()
	for k := range pkts {
		p := &pkts[k]
		p.TOS, p.ID, p.Flags, p.FragOff = 0, 0, 0, 0
		p.TTL, p.Protocol, p.Checksum = 64, packet.ProtoUDP, 0
		p.Src = src.At(rng.Uint64() % srcN)
		p.Dst = dst.At(rng.Uint64() % dstN)
		p.Options = nil
		p.Payload = payloads[k*PayloadLen : (k+1)*PayloadLen : (k+1)*PayloadLen]
		rng.Read(p.Payload)
	}
	return nil
}

// AmplificationFactor models the s-DDoS volume multiplier; §I cites a
// 73× factor for DNS amplification (60-byte request → 4000-byte
// response).
const AmplificationFactor = 73.0
