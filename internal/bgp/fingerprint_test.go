package bgp

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
	"time"

	"discs/internal/netsim"
	"discs/internal/topology"
)

// ribFingerprint is the hash TestRIBFingerprint pins. It was recorded
// on the map-based RIB (per-speaker adjIn and locRib maps); any change
// to which UPDATEs are sent, in which order, or to what the speakers
// end up holding changes it.
const ribFingerprint = 0x83a23d7ce0287266

// TestRIBFingerprint pins BGP behaviour on a 2,000-AS generated
// Internet: the 20 largest ASes originate their first prefix, the
// largest re-originates it with a DISCS-Ad, and its link to its first
// neighbour (providers, then peers, then customers) fails and comes
// back. Every speaker's Loc-RIB, update counters and KnownAds, plus the
// engine's event count, are hashed at 1 and 2 workers.
func TestRIBFingerprint(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			if got := fingerprintRun(t, workers); got != ribFingerprint {
				t.Fatalf("fingerprint %#x, want %#x", got, uint64(ribFingerprint))
			}
		})
	}
}

func fingerprintRun(t *testing.T, workers int) uint64 {
	t.Helper()
	topo, err := topology.GenerateInternet(topology.GenConfig{
		NumASes: 2000, NumPrefixes: 6000, ZipfExponent: 1.0, Seed: 11, TierOneCount: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildNetwork(topo, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	net.AssignShards(netsim.DefaultShards)
	eng, err := net.Sim.Relane(netsim.Options{Shards: netsim.DefaultShards, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	converge := func() {
		t.Helper()
		if err := net.Converge(); err != nil {
			t.Fatal(err)
		}
	}
	top := topo.BySizeDesc()[:20]
	net.OriginateFirst(top...)
	converge()

	origin := top[0]
	ad := DISCSAd{Origin: origin, Controller: "ctrl.fingerprint"}
	if err := net.Speakers[origin].ReOriginate(topo.AS(origin).Prefixes[0], NewDISCSAdAttr(ad)); err != nil {
		t.Fatal(err)
	}
	converge()

	a := topo.AS(origin)
	nbr := append(append(append([]topology.ASN(nil), a.Providers...), a.Peers...), a.Customers...)[0]
	if !net.FailLink(origin, nbr) {
		t.Fatalf("no link AS%d-AS%d", origin, nbr)
	}
	converge()
	if !net.RestoreLink(origin, nbr) {
		t.Fatalf("no link AS%d-AS%d", origin, nbr)
	}
	converge()

	h := fnv.New64a()
	for _, asn := range topo.ASNs() {
		sp := net.Speakers[asn]
		putU64(h, uint64(asn), sp.UpdatesSent, sp.UpdatesRecv)
		for _, p := range sp.Routes() {
			r, ok := sp.LocRib(p)
			if !ok {
				t.Fatalf("AS%d lists %v but has no Loc-RIB entry", asn, p)
			}
			h.Write([]byte(p.String()))
			putU64(h, uint64(r.From), uint64(len(r.ASPath)))
			for _, hop := range r.ASPath {
				putU64(h, uint64(hop))
			}
			putU64(h, uint64(len(r.Attrs)))
			for _, a := range r.Attrs {
				h.Write([]byte{a.Flags, a.Code})
				h.Write(a.Data)
			}
		}
		for _, ad := range sp.KnownAds() {
			putU64(h, uint64(ad.Origin))
			h.Write([]byte(ad.Controller))
		}
	}
	putU64(h, net.Sim.Registry().Snapshot().Get(netsim.MetricEvents))
	return h.Sum64()
}

func putU64(h hash.Hash64, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}
