package pulse

import (
	"net/netip"
	"testing"
	"time"

	"discs/internal/bgp"
	"discs/internal/core"
	"discs/internal/packet"
	"discs/internal/topology"
)

// matrix builds a per-flow packet matrix with the given row lengths;
// flow i's packets are distinct pointers.
func matrix(lens ...int) [][]*packet.IPv4 {
	pkts := make([][]*packet.IPv4, len(lens))
	for i, n := range lens {
		for k := 0; k < n; k++ {
			pkts[i] = append(pkts[i], &packet.IPv4{ID: uint16(i*1000 + k)})
		}
	}
	return pkts
}

// from maps flow i to AS 100+i.
func from(i int) topology.ASN { return topology.ASN(100 + i) }

// TestTrainSchedulesEveryPacketOnce checks, over ragged matrices and
// every pulses × subWaves shape up to 5 × 4: each packet is scheduled
// exactly once, a flow's packets keep their order across the train,
// bursts are flow-major, From/Flow are the flow's, and burst w takes
// the floor split [w·n/W, (w+1)·n/W) of each flow's n packets.
func TestTrainSchedulesEveryPacketOnce(t *testing.T) {
	for _, lens := range [][]int{{12, 12, 12}, {7, 0, 3, 1}, {2}, {0, 0}, {}} {
		for pulses := 1; pulses <= 5; pulses++ {
			for sub := 1; sub <= 4; sub++ {
				pkts := matrix(lens...)
				bursts := Train(from, pkts, pulses, sub, time.Millisecond, time.Second)
				waves := pulses * sub
				if len(bursts) != waves {
					t.Fatalf("lens %v %dx%d: %d bursts, want %d", lens, pulses, sub, len(bursts), waves)
				}
				next := make([]int, len(lens)) // next expected packet index per flow
				for w, b := range bursts {
					lastFlow := -1
					perFlow := make([]int, len(lens))
					for _, p := range b.Packets {
						if p.Flow < lastFlow {
							t.Fatalf("lens %v %dx%d burst %d: flow %d after flow %d, want flow-major", lens, pulses, sub, w, p.Flow, lastFlow)
						}
						lastFlow = p.Flow
						if p.From != from(p.Flow) {
							t.Fatalf("burst %d: packet of flow %d enters at AS%d", w, p.Flow, p.From)
						}
						if next[p.Flow] >= lens[p.Flow] || p.Pkt != pkts[p.Flow][next[p.Flow]] {
							t.Fatalf("lens %v %dx%d burst %d: flow %d out of order or repeated", lens, pulses, sub, w, p.Flow)
						}
						next[p.Flow]++
						perFlow[p.Flow]++
					}
					for i, n := range lens {
						if want := (w+1)*n/waves - w*n/waves; perFlow[i] != want {
							t.Fatalf("lens %v %dx%d burst %d: %d packets of flow %d, want %d", lens, pulses, sub, w, perFlow[i], i, want)
						}
					}
				}
				for i, n := range lens {
					if next[i] != n {
						t.Fatalf("lens %v %dx%d: flow %d scheduled %d of %d packets", lens, pulses, sub, i, next[i], n)
					}
				}
			}
		}
	}
}

// TestTrainRemainders pins where a flow's packets go when they do not
// divide evenly: the floor split hands the surplus to the later bursts.
func TestTrainRemainders(t *testing.T) {
	for _, tc := range []struct {
		n, pulses, sub int
		want           []int
	}{
		{7, 3, 1, []int{2, 2, 3}},
		{2, 5, 1, []int{0, 0, 1, 0, 1}},
		{7, 2, 2, []int{1, 2, 2, 2}},
		{12, 4, 1, []int{3, 3, 3, 3}},
	} {
		bursts := Train(from, matrix(tc.n), tc.pulses, tc.sub, 0, 0)
		for w, b := range bursts {
			if len(b.Packets) != tc.want[w] {
				t.Errorf("%d packets over %dx%d: burst %d holds %d, want %v", tc.n, tc.pulses, tc.sub, w, len(b.Packets), tc.want)
			}
		}
	}
}

func TestTrainGaps(t *testing.T) {
	const intra, inter = 3 * time.Millisecond, 2 * time.Second
	bursts := Train(from, matrix(24), 3, 4, intra, inter)
	for w, b := range bursts {
		want := intra
		switch {
		case w == len(bursts)-1:
			want = 0 // the train ends at its last injection
		case (w+1)%4 == 0:
			want = inter // last sub-wave of a pulse
		}
		if b.Gap != want {
			t.Errorf("burst %d gap %v, want %v", w, b.Gap, want)
		}
	}
}

func TestTrainClampsShape(t *testing.T) {
	for _, shape := range [][2]int{{0, 0}, {-3, 1}, {1, -2}} {
		bursts := Train(from, matrix(5, 2), shape[0], shape[1], time.Millisecond, time.Second)
		if len(bursts) != 1 || len(bursts[0].Packets) != 7 || bursts[0].Gap != 0 {
			t.Errorf("pulses %d subWaves %d: %d bursts %+v, want one gapless burst of 7", shape[0], shape[1], len(bursts), bursts)
		}
	}
}

// TestRunInjectsInOrderAndAdvancesClock drives a two-AS system: the
// sink sees every packet in burst order, and the clock moves by the
// gaps between bursts only.
func TestRunInjectsInOrderAndAdvancesClock(t *testing.T) {
	tp := topology.New()
	for i, p := range []string{"10.1.0.0/16", "10.2.0.0/16"} {
		asn := topology.ASN(i + 1)
		if _, err := tp.AddAS(asn); err != nil {
			t.Fatal(err)
		}
		if err := tp.AddPrefix(asn, netip.MustParsePrefix(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.Link(2, 1, topology.CustomerToProvider); err != nil {
		t.Fatal(err)
	}
	net, err := bgp.BuildNetwork(tp, time.Millisecond)
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

	pkts := make([][]*packet.IPv4, 1)
	for k := 0; k < 6; k++ {
		pkts[0] = append(pkts[0], &packet.IPv4{
			ID: uint16(k), TTL: 64, Protocol: packet.ProtoUDP,
			Src: netip.MustParseAddr("10.1.0.1"), Dst: netip.MustParseAddr("10.2.0.1"),
		})
	}
	const intra, inter = 5 * time.Millisecond, 40 * time.Millisecond
	bursts := Train(func(int) topology.ASN { return 1 }, pkts, 2, 3, intra, inter)
	start := sys.Net.Sim.Now()
	var seen []uint16
	var at []time.Duration
	Run(sys, bursts, func(p Packet, d core.DeliveryResult) {
		if !d.Delivered {
			t.Errorf("packet %d not delivered: %+v", p.Pkt.ID, d)
		}
		seen = append(seen, p.Pkt.ID)
		at = append(at, sys.Net.Sim.Now()-start)
	})
	wantAt := []time.Duration{0, intra, 2 * intra, 2*intra + inter, 3*intra + inter, 4*intra + inter}
	for k := range wantAt {
		if k >= len(seen) || seen[k] != uint16(k) || at[k] != wantAt[k] {
			t.Fatalf("injections %v at %v, want 0..5 at %v", seen, at, wantAt)
		}
	}
	if got := sys.Net.Sim.Now() - start; got != wantAt[5] {
		t.Errorf("clock advanced %v, want %v (no gap after the last burst)", got, wantAt[5])
	}
	Run(sys, bursts[:1], nil) // a nil sink is allowed
}
