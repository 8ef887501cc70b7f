package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"discs/internal/bgp"
	"discs/internal/core"
	"discs/internal/netsim"
	"discs/internal/parsim"
	"discs/internal/topology"
)

// buildWorld constructs a small converged network: a 3-tier chain with
// a peering edge, every AS originating its prefixes.
//
//	1 (tier-1) ─ customers 2, 3; 2 ─ customer 4; 2 ~ 3 peers
func buildWorld(t testing.TB, shards, workers int) *World {
	t.Helper()
	topo := topology.New()
	prefixes := map[topology.ASN]string{
		1: "10.1.0.0/16", 2: "10.2.0.0/16", 3: "10.3.0.0/16", 4: "10.4.0.0/16",
	}
	for _, asn := range []topology.ASN{1, 2, 3, 4} {
		if _, err := topo.AddAS(asn); err != nil {
			t.Fatal(err)
		}
		if err := topo.AddPrefix(asn, netip.MustParsePrefix(prefixes[asn])); err != nil {
			t.Fatal(err)
		}
	}
	link := func(a, b topology.ASN, rel topology.Relationship) {
		t.Helper()
		if err := topo.Link(a, b, rel); err != nil {
			t.Fatal(err)
		}
	}
	link(2, 1, topology.CustomerToProvider)
	link(3, 1, topology.CustomerToProvider)
	link(4, 2, topology.CustomerToProvider)
	link(2, 3, topology.PeerToPeer)

	net, err := bgp.BuildNetwork(topo, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	world := &World{Net: net}
	if shards > 0 {
		net.AssignShards(shards)
		eng, err := parsim.New(net.Sim, parsim.Options{Shards: shards, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		world.Eng = eng
	}
	net.Sim.SeedFaults(7)
	net.OriginateAll()
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}
	return world
}

func encode(t testing.TB, world *World) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, world); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestNetworkRoundTrip(t *testing.T) {
	world := buildWorld(t, 0, 0)
	img, err := Read(bytes.NewReader(encode(t, world)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Restore(img, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Structural identity.
	if got.Net.Sim.NumNodes() != world.Net.Sim.NumNodes() {
		t.Fatalf("nodes %d, want %d", got.Net.Sim.NumNodes(), world.Net.Sim.NumNodes())
	}
	if got.Net.Sim.Now() != world.Net.Sim.Now() {
		t.Fatalf("clock %v, want %v", got.Net.Sim.Now(), world.Net.Sim.Now())
	}
	// Routing state: every speaker's KnownAds and Loc-RIB agree.
	for _, asn := range world.Net.Topo.ASNs() {
		a, b := world.Net.Speakers[asn], got.Net.Speakers[asn]
		for _, p := range world.Net.Topo.AS(asn).Prefixes {
			_, okA := a.LocRib(p)
			_, okB := b.LocRib(p)
			if okA != okB {
				t.Fatalf("AS%d LocRib(%v) presence differs", asn, p)
			}
		}
		if len(a.KnownAds()) != len(b.KnownAds()) {
			t.Fatalf("AS%d KnownAds %d, want %d", asn, len(b.KnownAds()), len(a.KnownAds()))
		}
	}
	// NextHop works on the restored topology.
	if _, ok := got.Net.Topo.NextHop(4, 3); !ok {
		t.Fatal("restored topology has no route 4->3")
	}
	// Counters carried over.
	a, b := world.Net.Sim.Stats(), got.Net.Sim.Stats()
	if a.Get("delivered") != b.Get("delivered") {
		t.Fatalf("delivered %d, want %d", b.Get("delivered"), a.Get("delivered"))
	}
}

func TestSystemRoundTrip(t *testing.T) {
	world := buildWorld(t, 2, 2)
	cfg := core.DefaultConfig()
	sys, err := core.NewSystemWithOptions(core.SystemOptions{Net: world.Net, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i, asn := range []topology.ASN{2, 3} {
		if _, err := sys.Deploy(asn, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Settle(); err != nil {
		t.Fatal(err)
	}
	vc := sys.Controllers[3]
	if _, err := vc.Invoke(core.Invocation{
		Prefixes: vc.OwnPrefixes(), Function: core.DP, Duration: time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Settle(); err != nil {
		t.Fatal(err)
	}
	world.Sys = sys

	img, err := Read(bytes.NewReader(encode(t, world)))
	if err != nil {
		t.Fatal(err)
	}
	if !img.Has(SecCore) || !img.Has(SecNetsim) {
		t.Fatal("system image missing core/netsim sections")
	}
	got, err := Restore(img, Options{Workers: 2, Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if got.Eng != nil {
		defer got.Eng.Close()
	}
	if len(got.Sys.Controllers) != 2 {
		t.Fatalf("restored %d controllers, want 2", len(got.Sys.Controllers))
	}
	// The invoked DP window survived in the member router's Out-Dst
	// table (DP schedules destination-side stamping at the members).
	rt := got.Sys.Routers[2]
	if rt == nil || rt.Tables.In[core.TableOutDst].Len() == 0 {
		t.Fatal("restored member router lost its Out-Dst window")
	}
	// Recovery composes: restart + settle runs the journal replay.
	if err := got.Sys.RestartAll(); err != nil {
		t.Fatal(err)
	}
	if err := got.Sys.Settle(); err != nil {
		t.Fatal(err)
	}
	if got := got.Sys.Stats().GetGauge("as3." + core.MetricCtrlPeersEstablished); got == 0 {
		t.Fatalf("victim controller re-established no peers after restore")
	}
}

// TestShardCountRejected: an image naming more shards than an event key
// can order is refused before any engine is built.
func TestShardCountRejected(t *testing.T) {
	img, err := Read(bytes.NewReader(encode(t, buildWorld(t, 2, 1))))
	if err != nil {
		t.Fatal(err)
	}
	good := img.Section(SecNetsim)
	if good[0] != 2 {
		t.Fatalf("netsim section starts %#x, want the shard count 2", good[0])
	}
	for _, shards := range []uint64{netsim.MaxShards + 1, 1 << 40} {
		img.sections[SecNetsim] = append(binary.AppendUvarint(nil, shards), good[1:]...)
		var fe *FormatError
		if w, err := Restore(img, Options{}); !errors.As(err, &fe) || fe.Section != "netsim" {
			if w != nil && w.Eng != nil {
				w.Eng.Close()
			}
			t.Fatalf("%d shards: err = %v, want a netsim FormatError", shards, err)
		}
	}
}

// TestWriteWithoutEng: the lanes belong to the simulator, so a sharded
// world handed to Write without its engine handle still refuses an
// event pending on a shard lane, and its image restores with its
// shards.
func TestWriteWithoutEng(t *testing.T) {
	world := buildWorld(t, 2, 1)
	world.Eng = nil
	tm := world.Net.Speakers[4].Node().After(time.Second, func() {})
	var buf bytes.Buffer
	if err := Write(&buf, world); !errors.Is(err, netsim.ErrNotQuiescent) {
		t.Fatalf("event pending on a shard lane: err = %v, want ErrNotQuiescent", err)
	}
	tm.Stop()
	img, err := Read(bytes.NewReader(encode(t, world)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Restore(img, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Eng.Close()
	if got.Eng.Shards() != 2 {
		t.Fatalf("restored %d shards, want 2", got.Eng.Shards())
	}
}

func TestNotQuiescent(t *testing.T) {
	world := buildWorld(t, 0, 0)
	world.Net.Sim.After(time.Second, func() {})
	var buf bytes.Buffer
	if err := Write(&buf, world); !errors.Is(err, netsim.ErrNotQuiescent) {
		t.Fatalf("err = %v, want ErrNotQuiescent", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("refused checkpoint still wrote %d bytes", buf.Len())
	}
}

func TestWriteFileAtomic(t *testing.T) {
	world := buildWorld(t, 0, 0)
	path := filepath.Join(t.TempDir(), "world.snap")
	if err := WriteFile(path, world); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A crash between write and rename must leave the old image whole.
	boom := errors.New("injected crash")
	writeFailpoint = func() error { return boom }
	defer func() { writeFailpoint = nil }()
	if err := WriteFile(path, world); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected crash", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prev, after) {
		t.Fatal("crashed checkpoint clobbered the previous image")
	}
	// No temp litter.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory has %d entries after crashed write, want 1", len(ents))
	}
}

func TestCorruptionRejected(t *testing.T) {
	world := buildWorld(t, 0, 0)
	good := encode(t, world)

	t.Run("magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xff
		if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[8] = 0xff
		var ve *VersionError
		if _, err := Read(bytes.NewReader(bad)); !errors.As(err, &ve) {
			t.Fatalf("err = %v, want VersionError", err)
		} else if ve.Got != 0xff {
			t.Fatalf("VersionError.Got = %d", ve.Got)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{5, 11, 13, len(good) / 2, len(good) - 1} {
			if _, err := Read(bytes.NewReader(good[:cut])); !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut %d: err = %v, want ErrTruncated", cut, err)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		// Flip a byte inside a section payload: checksum must catch it.
		bad := append([]byte(nil), good...)
		bad[len(bad)/2] ^= 0x10
		var ce *ChecksumError
		if _, err := Read(bytes.NewReader(bad)); !errors.As(err, &ce) {
			t.Fatalf("err = %v, want ChecksumError", err)
		}
	})
	t.Run("oversized-length", func(t *testing.T) {
		// Forge the first section's length to a huge value: must fail
		// as truncated/format error without a giant allocation.
		bad := append([]byte(nil), good...)
		for i := 0; i < 8; i++ {
			bad[14+i] = 0xff
		}
		_, err := Read(bytes.NewReader(bad))
		var fe *FormatError
		if !errors.Is(err, ErrTruncated) && !errors.As(err, &fe) {
			t.Fatalf("err = %v, want ErrTruncated or FormatError", err)
		}
	})
}
