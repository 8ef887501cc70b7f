package snapshot

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"time"

	"discs/internal/bgp"
	"discs/internal/core"
	"discs/internal/netsim"
	"discs/internal/obs"
	"discs/internal/snapcodec"
	"discs/internal/topology"
)

// meshWorld is a 300-AS world converged on the sharded engine at 2
// workers, with DISCS deployed on its 6 largest ASes. The caller
// closes its engine.
func meshWorld(t *testing.T) *World {
	t.Helper()
	topo, err := topology.GenerateInternet(topology.GenConfig{
		NumASes: 300, NumPrefixes: 900, ZipfExponent: 1.0, Seed: 1, TierOneCount: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := bgp.BuildNetwork(topo, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	net.AssignShards(netsim.DefaultShards)
	eng, err := net.Sim.Relane(netsim.Options{Shards: netsim.DefaultShards, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	net.OriginateAll()
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystemWithOptions(core.SystemOptions{Net: net, Config: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for i, asn := range topo.BySizeDesc()[:6] {
		if _, err := sys.Deploy(asn, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Settle(); err != nil {
		t.Fatal(err)
	}
	return &World{Net: net, Eng: eng, Sys: sys}
}

// TestImageIsDeterministic: the obs section carries none of the
// engine's scheduling metrics, and two builds of one seeded world write
// the same image, byte for byte.
func TestImageIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 300-AS world twice")
	}
	var images [2][]byte
	for i := range images {
		w := meshWorld(t)
		images[i] = encode(t, w)
		w.Eng.Close()
	}
	img, err := Read(bytes.NewReader(images[0]))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := readObs(snapcodec.NewReader(img.raw(secObs)))
	if err != nil {
		t.Fatal(err)
	}
	for name := range snap.Counters {
		if strings.HasPrefix(name, "parsim.") {
			t.Errorf("the obs section carries the engine counter %s", name)
		}
	}
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "parsim.") {
			t.Errorf("the obs section carries the engine gauge %s", name)
		}
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Errorf("two builds of one seeded world wrote different images (%d and %d bytes)", len(images[0]), len(images[1]))
	}
}

// TestRestoreAcceptsEngineMetrics: an image whose obs section carries
// the engine's metrics, as images written before they were left out
// do, still restores, and its metrics are absorbed.
func TestRestoreAcceptsEngineMetrics(t *testing.T) {
	world := buildWorld(t, 2, 2)
	img, err := Read(bytes.NewReader(encode(t, world)))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := readObs(snapcodec.NewReader(img.raw(secObs)))
	if err != nil {
		t.Fatal(err)
	}
	snap.Counters[netsim.MetricEpochs] = 41
	snap.Counters[netsim.MetricWorkerEvents(0)] = 7
	var sec []byte
	for _, b := range mustSection(t, func(w *snapcodec.Writer) error { writeObsAll(w, snap); return nil }) {
		sec = append(sec, b...)
	}
	img.sections[secObs] = sec
	got, err := Restore(img, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Eng.Close()
	if n := got.Net.Sim.Registry().Snapshot().Get(netsim.MetricEpochs); n < 41 {
		t.Fatalf("restored %s = %d, want at least the image's 41", netsim.MetricEpochs, n)
	}
}

func mustSection(t *testing.T, fill func(*snapcodec.Writer) error) [][]byte {
	t.Helper()
	p, err := section(fill)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// writeObsAll is writeObs as it stood before the engine's metrics were
// left out: every counter and gauge, sorted.
func writeObsAll(w *snapcodec.Writer, s obs.Snapshot) {
	var cnames, gnames []string
	for name := range s.Counters {
		cnames = append(cnames, name)
	}
	for name := range s.Gauges {
		gnames = append(gnames, name)
	}
	sort.Strings(cnames)
	sort.Strings(gnames)
	w.Uvarint(uint64(len(cnames)))
	for _, name := range cnames {
		w.String(name)
		w.Uvarint(s.Counters[name])
	}
	w.Uvarint(uint64(len(gnames)))
	for _, name := range gnames {
		w.String(name)
		w.Varint(s.Gauges[name])
	}
}
