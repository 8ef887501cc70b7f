package flowexport

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"discs/internal/topology"
)

var tbase = time.Unix(1000, 0).UTC()

func key(src, dst string, proto uint8, as topology.ASN) Key {
	return Key{
		Src: netip.MustParseAddr(src), Dst: netip.MustParseAddr(dst),
		Proto: proto, SrcAS: as,
	}
}

func TestCollectorSampling(t *testing.T) {
	c, err := NewCollector(4)
	if err != nil {
		t.Fatal(err)
	}
	k := key("10.0.0.1", "10.1.0.1", 17, 100)
	sampled := 0
	for i := 0; i < 100; i++ {
		if c.observe(k, 100, tbase) {
			sampled++
		}
	}
	if sampled != 25 || c.Sampled != 25 {
		t.Fatalf("sampled %d (counter %d), want 25", sampled, c.Sampled)
	}
	recs := c.Export(tbase, true)
	if len(recs) != 1 || recs[0].Packets != 25 || recs[0].Bytes != 2500 {
		t.Fatalf("records = %+v", recs)
	}
}

func TestCollectorSampleEverything(t *testing.T) {
	c, _ := NewCollector(1)
	k := key("10.0.0.1", "10.1.0.1", 6, 1)
	for i := 0; i < 10; i++ {
		if !c.observe(k, 1, tbase) {
			t.Fatal("rate-1 sampler skipped a packet")
		}
	}
}

func TestCollectorValidation(t *testing.T) {
	if _, err := NewCollector(0); err == nil {
		t.Fatal("rate 0 accepted")
	}
}

func TestCollectorTimeouts(t *testing.T) {
	c, _ := NewCollector(1)
	c.ActiveTimeout = 10 * time.Second
	c.InactiveTimeout = 5 * time.Second

	busy := key("10.0.0.1", "10.1.0.1", 17, 1)
	idle := key("10.0.0.2", "10.1.0.1", 17, 2)
	c.observe(idle, 1, tbase)
	for i := 0; i < 8; i++ {
		c.observe(busy, 1, tbase.Add(time.Duration(i)*time.Second))
	}
	// At +8s: idle flow idle for 8s (> 5s) → exported; busy flow is 8s
	// old (< 10s active) and fresh → kept.
	recs := c.Export(tbase.Add(8*time.Second), false)
	if len(recs) != 1 || recs[0].SrcAS != 2 {
		t.Fatalf("export = %+v", recs)
	}
	if len(c.flows) != 1 {
		t.Fatalf("pending = %d", len(c.flows))
	}
	// At +11s: busy flow crosses the active timeout.
	recs = c.Export(tbase.Add(11*time.Second), false)
	if len(recs) != 1 || recs[0].SrcAS != 1 || recs[0].Packets != 8 {
		t.Fatalf("export = %+v", recs)
	}
}

func TestCollectorCacheBound(t *testing.T) {
	c, _ := NewCollector(1)
	c.MaxFlows = 3
	for i := 0; i < 10; i++ {
		k := key("10.0.0.1", "10.1.0.1", uint8(i), topology.ASN(i+1))
		c.observe(k, 1, tbase)
	}
	if len(c.flows) != 3 {
		t.Fatalf("pending = %d, want cap 3", len(c.flows))
	}
	if c.EvictedNew != 7 {
		t.Fatalf("evicted = %d", c.EvictedNew)
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	recs := []Record{
		{
			Key:     key("10.0.0.1", "192.0.2.9", 17, 64500),
			Packets: 123, Bytes: 45678,
			First: tbase, Last: tbase.Add(7 * time.Second),
		},
		{
			Key:     key("2001:db8::1", "2001:db8::2", 6, 1),
			Packets: 1, Bytes: 40,
			First: tbase, Last: tbase,
		},
		{
			// Mixed families.
			Key:     key("10.0.0.1", "2001:db8::2", 58, 7),
			Packets: 9, Bytes: 900,
			First: tbase, Last: tbase.Add(time.Millisecond),
		},
	}
	b, err := marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("count = %d", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], recs[i])
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := unmarshal([]byte("xx")); err == nil {
		t.Fatal("short datagram accepted")
	}
	if _, err := unmarshal([]byte("XXXX\x00\x00")); err == nil {
		t.Fatal("bad magic accepted")
	}
	b, _ := marshal([]Record{{
		Key: key("10.0.0.1", "10.0.0.2", 1, 1), First: tbase, Last: tbase,
	}})
	if _, err := unmarshal(b[:len(b)-1]); err == nil {
		t.Fatal("truncated datagram accepted")
	}
}

func TestMarshalInvalid(t *testing.T) {
	if _, err := marshal([]Record{{}}); err == nil {
		t.Fatal("record with zero addresses accepted")
	}
}

func TestTopTalkers(t *testing.T) {
	recs := []Record{
		{Key: key("10.0.0.1", "10.9.0.1", 17, 100), Packets: 10},
		{Key: key("10.0.0.2", "10.9.0.1", 17, 100), Packets: 15},
		{Key: key("10.1.0.1", "10.9.0.1", 17, 200), Packets: 20},
		{Key: key("10.2.0.1", "10.9.0.1", 17, 300), Packets: 1},
	}
	top := TopTalkers(recs, 2)
	if len(top) != 2 || top[0].AS != 100 || top[0].Packets != 25 || top[1].AS != 200 {
		t.Fatalf("top = %+v", top)
	}
	// n larger than distinct ASes.
	if got := TopTalkers(recs, 10); len(got) != 3 {
		t.Fatalf("top-10 = %+v", got)
	}
}

// Property: Marshal/Unmarshal round-trips arbitrary v4 records.
func TestPropertyWireRoundTrip(t *testing.T) {
	f := func(src, dst [4]byte, proto uint8, as uint32, pkts, bytesN uint64, firstSec, durSec uint16) bool {
		r := Record{
			Key: Key{
				Src: netip.AddrFrom4(src), Dst: netip.AddrFrom4(dst),
				Proto: proto, SrcAS: topology.ASN(as),
			},
			Packets: pkts, Bytes: bytesN,
			First: time.Unix(int64(firstSec), 0).UTC(),
			Last:  time.Unix(int64(firstSec)+int64(durSec), 0).UTC(),
		}
		b, err := marshal([]Record{r})
		if err != nil {
			return false
		}
		got, err := unmarshal(b)
		return err == nil && len(got) == 1 && got[0] == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExportDeterministicOrder(t *testing.T) {
	c, _ := NewCollector(1)
	keys := []Key{
		key("10.0.0.3", "10.9.0.1", 17, 3),
		key("10.0.0.1", "10.9.0.1", 17, 1),
		key("10.0.0.2", "10.9.0.1", 17, 2),
	}
	for _, k := range keys {
		c.observe(k, 1, tbase)
	}
	recs := c.Export(tbase, true)
	for i := 1; i < len(recs); i++ {
		if !recs[i-1].Src.Less(recs[i].Src) {
			t.Fatalf("export not sorted: %+v", recs)
		}
	}
}
