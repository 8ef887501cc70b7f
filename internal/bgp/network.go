package bgp

import (
	"fmt"
	"strconv"
	"time"

	"discs/internal/netsim"
	"discs/internal/slab"
	"discs/internal/topology"
)

// Network bundles a simulator, a topology, and one speaker per AS with
// eBGP sessions along every topology link. It is the starting point for
// the DISCS control-plane simulations and the examples.
type Network struct {
	Sim      *netsim.Simulator
	Topo     *topology.Topology
	Speakers map[topology.ASN]*Speaker

	tabs *tables
}

// BuildNetwork creates a netsim node ("borderN") and speaker for every
// AS and connects neighbors with the given link delay. The build is
// O(V+E) and takes its state from a few arrays rather than objects per
// AS or link: the simulator is sized for every node and link
// (Simulator.Reserve), each node's link list for its AS's degree, the
// speakers are one array, and their neighbour slots and export lists
// are carved from two more. Each physical link is created exactly once
// — transit from the customer side (each relationship appears in
// exactly one Providers list), peering from the lower-ASN side — which
// topology.Link's duplicate guard makes safe without any linked()
// re-scan.
func BuildNetwork(topo *topology.Topology, linkDelay time.Duration) (*Network, error) {
	sim := netsim.New()
	asns := topo.ASNs()
	nLinks, transit, maxDegree := topo.NumLinks(), 0, 0
	for _, asn := range asns {
		a := topo.AS(asn)
		transit += len(a.Providers)
		maxDegree = max(maxDegree, a.Degree())
	}
	sim.Reserve(len(asns), nLinks)
	net := &Network{Sim: sim, Topo: topo, Speakers: make(map[topology.ASN]*Speaker, len(asns)), tabs: newTables()}
	speakers := make([]Speaker, len(asns))
	var nbrs slab.Slab[neighbor]
	nbrs.Reserve(2 * nLinks)
	for i, name := range borderNames(asns) {
		node, err := sim.AddNode(name)
		if err != nil {
			return nil, err
		}
		degree := topo.AS(asns[i]).Degree()
		node.ReserveLinks(degree)
		sp := &speakers[i]
		sp.init(asns[i], node, net.tabs, nbrs.Take(degree)[:0])
		net.Speakers[asns[i]] = sp
	}
	for i, asn := range asns {
		a := topo.AS(asn)
		sp := &speakers[i]
		for _, prov := range a.Providers {
			other := net.Speakers[prov]
			l, err := sim.Connect(sp.node, other.node, linkDelay)
			if err != nil {
				return nil, err
			}
			sp.addNeighbor(prov, l, topology.CustomerToProvider)
			other.addNeighbor(asn, l, topology.ProviderToCustomer)
		}
		for _, peer := range a.Peers {
			if peer < asn {
				continue // the lower side created it
			}
			other := net.Speakers[peer]
			l, err := sim.Connect(sp.node, other.node, linkDelay)
			if err != nil {
				return nil, err
			}
			sp.addNeighbor(peer, l, topology.PeerToPeer)
			other.addNeighbor(asn, l, topology.PeerToPeer)
		}
	}
	// Every speaker's toAll is a prefix of one 0, 1, 2, ... list, and
	// the customer slots, one per transit link, share one array.
	all := make([]int32, maxDegree)
	for i := range all {
		all[i] = int32(i)
	}
	var customers slab.Slab[int32]
	customers.Reserve(transit)
	for i := range speakers {
		speakers[i].finishNeighbors(all, &customers)
	}
	return net, nil
}

// borderNames returns "border<ASN>" for every AS in asns, as
// substrings of one string.
func borderNames(asns []topology.ASN) []string {
	const prefix = "border"
	buf := make([]byte, 0, len(asns)*(len(prefix)+10))
	ends := make([]int, len(asns))
	for i, asn := range asns {
		buf = strconv.AppendUint(append(buf, prefix...), uint64(asn), 10)
		ends[i] = len(buf)
	}
	all := string(buf)
	names := make([]string, len(asns))
	start := 0
	for i, end := range ends {
		names[i] = all[start:end]
		start = end
	}
	return names
}

// AssignShards partitions the topology into k customer-cone shards
// (topology.PartitionCones) and stamps every border node with its
// shard, preparing the network for a parallel engine install
// (Simulator.Relane). Call it after BuildNetwork and before re-laning;
// nodes created later (controller and data-plane nodes) take their AS's
// shard from its border node. Each shard gets its own AS-path arena,
// written only by the lane that runs the shard. It panics if any
// speaker already holds a route, whose path handles would point into
// the wrong arena.
func (n *Network) AssignShards(k int) {
	for _, sp := range n.Speakers {
		if len(sp.rows) > 0 {
			panic(fmt.Sprintf("bgp: AssignShards after AS%d learned routes", sp.ASN))
		}
	}
	shard := n.Topo.PartitionCones(k)
	arenas := make([]*pathArena, max(k, 1))
	for i := range arenas {
		arenas[i] = newPathArena(uint32(i))
	}
	for i, asn := range n.Topo.ASNs() {
		sp := n.Speakers[asn]
		sp.Node().SetShard(shard[i])
		sp.paths = arenas[shard[i]]
	}
	n.tabs.arenas = arenas
}

// OriginateAll makes every AS originate all of its prefixes.
func (n *Network) OriginateAll() {
	for _, asn := range n.Topo.ASNs() {
		sp := n.Speakers[asn]
		for _, p := range n.Topo.AS(asn).Prefixes {
			sp.Originate(p)
		}
	}
}

// OriginateFirst makes each given AS originate its first prefix only.
// Paper-scale runs use this: DISCS needs BGP solely as the Ad
// dissemination substrate, and one prefix per deploying AS keeps
// convergence event counts linear in the topology instead of linear
// in the 442k-prefix table.
func (n *Network) OriginateFirst(asns ...topology.ASN) {
	for _, asn := range asns {
		sp := n.Speakers[asn]
		if sp == nil {
			continue
		}
		if pfx := n.Topo.AS(asn).Prefixes; len(pfx) > 0 {
			sp.Originate(pfx[0])
		}
	}
}

// Converge runs the simulator until no BGP events remain.
func (n *Network) Converge() error {
	_, err := n.Sim.RunAll()
	return err
}

// FailLink takes the physical link between two neighboring ASes down
// and signals the session loss to both speakers, triggering withdraws
// and reroutes. It reports whether a link existed.
func (n *Network) FailLink(a, b topology.ASN) bool {
	sa, sb := n.Speakers[a], n.Speakers[b]
	if sa == nil || sb == nil {
		return false
	}
	found := false
	for _, l := range sa.Node().Links() {
		if l.Neighbor(sa.Node()) == sb.Node() {
			l.SetUp(false)
			found = true
		}
	}
	if !found {
		return false
	}
	sa.sessionDown(b)
	sb.sessionDown(a)
	return true
}

// RestoreLink brings the link back up and replays full routing tables
// over the restored session.
func (n *Network) RestoreLink(a, b topology.ASN) bool {
	sa, sb := n.Speakers[a], n.Speakers[b]
	if sa == nil || sb == nil {
		return false
	}
	found := false
	for _, l := range sa.Node().Links() {
		if l.Neighbor(sa.Node()) == sb.Node() {
			l.SetUp(true)
			found = true
		}
	}
	if !found {
		return false
	}
	sa.sessionUp(b)
	sb.sessionUp(a)
	return true
}
