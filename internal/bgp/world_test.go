package bgp_test

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"
	"time"

	"discs/internal/bgp"
	"discs/internal/netsim"
	"discs/internal/snapshot"
	"discs/internal/topology"
)

// worldDigest is the structure digest of the paper world
// (topology.DefaultGenConfig, 1 ms links, netsim.DefaultShards shards).
// It pins every structural order the event order rests on.
const worldDigest = 0x9465633b35e58929

// TestWorldStructureDigest pins what the paper world is built of: each
// AS's prefixes and neighbour lists in order, the border nodes in
// creation order with their shards, every link's id, endpoints and
// delay, and every speaker's neighbour slots. The world snapshot.Restore
// rebuilds from an image of it has the same digest.
func TestWorldStructureDigest(t *testing.T) {
	topo, err := topology.GenerateInternet(topology.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	net, err := bgp.BuildNetwork(topo, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	net.AssignShards(netsim.DefaultShards)
	eng, err := net.Sim.Relane(netsim.Options{Shards: netsim.DefaultShards, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if got := structureDigest(t, net); got != worldDigest {
		t.Fatalf("built world: digest %#x, want %#x", got, uint64(worldDigest))
	}

	var buf bytes.Buffer
	if err := snapshot.Write(&buf, &snapshot.World{Net: net, Eng: eng}); err != nil {
		t.Fatal(err)
	}
	img, err := snapshot.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := snapshot.Restore(img, snapshot.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Eng.Close()
	if got := structureDigest(t, restored.Net); got != worldDigest {
		t.Fatalf("restored world: digest %#x, want %#x", got, uint64(worldDigest))
	}
}

// structureDigest hashes net's structure. BuildNetwork creates one
// border node per AS in topology order, so the speakers walked in that
// order give the node names in creation order.
func structureDigest(t *testing.T, net *bgp.Network) uint64 {
	t.Helper()
	h := fnv.New64a()
	topo := net.Topo
	for _, asn := range topo.ASNs() {
		a := topo.AS(asn)
		put(h, uint64(asn), a.AddrSpace, uint64(len(a.Prefixes)))
		for _, p := range a.Prefixes {
			b, _ := p.MarshalBinary()
			h.Write(b)
		}
		for _, list := range [][]topology.ASN{a.Providers, a.Customers, a.Peers} {
			put(h, uint64(len(list)))
			for _, n := range list {
				put(h, uint64(n))
			}
		}
	}
	put(h, uint64(net.Sim.NumNodes()))
	for _, asn := range topo.ASNs() {
		n := net.Speakers[asn].Node()
		if net.Sim.Node(n.Name) != n {
			t.Fatalf("AS%d: node %q is not the simulator's", asn, n.Name)
		}
		h.Write([]byte(n.Name))
		put(h, uint64(n.Shard()))
	}
	links := net.Sim.Links()
	ids := make(map[*netsim.Link]int, len(links))
	put(h, uint64(len(links)))
	for id, l := range links {
		a, b := l.Endpoints()
		h.Write([]byte(a.Name))
		h.Write([]byte{0})
		h.Write([]byte(b.Name))
		put(h, uint64(id), uint64(l.Delay))
		ids[l] = id
	}
	for _, asn := range topo.ASNs() {
		for _, s := range bgp.Sessions(net.Speakers[asn]) {
			id, ok := ids[s.Link]
			if !ok {
				t.Fatalf("AS%d: session to AS%d runs over a link the simulator does not list", asn, s.ASN)
			}
			put(h, uint64(s.ASN), uint64(s.Rel), uint64(id))
		}
	}
	return h.Sum64()
}

func put(h hash.Hash64, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}
