package service

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"discs/internal/core"
	"discs/internal/packet"
	"discs/internal/transport"
)

// trainOf packs packets into a FrameKindDataBurst payload.
func trainOf(tb testing.TB, pkts ...*packet.IPv4) []byte {
	tb.Helper()
	var b []byte
	for _, p := range pkts {
		raw, err := p.Marshal()
		if err != nil {
			tb.Fatal(err)
		}
		b = binary.BigEndian.AppendUint16(b, uint16(len(raw)))
		b = append(b, raw...)
	}
	return b
}

// testPackets builds n UDP packets from src's prefix to dst's, each
// with a distinct payload of the given size.
func testPackets(n, src, dst, payload int) []*packet.IPv4 {
	pkts := make([]*packet.IPv4, n)
	for k := range pkts {
		pl := bytes.Repeat([]byte{byte(k)}, payload)
		pkts[k] = &packet.IPv4{
			TTL: 64, Protocol: packet.ProtoUDP, ID: uint16(k),
			Src:     FleetAddr(src, byte(20+k%200)),
			Dst:     FleetAddr(dst, byte(10+k%200)),
			Payload: pl,
		}
	}
	return pkts
}

// samePacket compares every parsed field, nil and empty slices alike.
func samePacket(a, b *packet.IPv4) bool {
	return a.TOS == b.TOS && a.ID == b.ID && a.Flags == b.Flags && a.FragOff == b.FragOff &&
		a.TTL == b.TTL && a.Protocol == b.Protocol && a.Checksum == b.Checksum &&
		a.Src == b.Src && a.Dst == b.Dst &&
		bytes.Equal(a.Options, b.Options) && bytes.Equal(a.Payload, b.Payload)
}

// FuzzTrain: the train decoder faces the network. Whatever the bytes,
// it must not panic; every record must become exactly one carrier or
// exactly one malformed count (records framed independently here);
// each carrier must equal a fresh parse of its record; and decoding
// the same train again into a slab dirtied by other packets must give
// identical packets.
func FuzzTrain(f *testing.F) {
	withOpts := &packet.IPv4{
		TTL: 64, Protocol: packet.ProtoUDP,
		Src: FleetAddr(0, 1), Dst: FleetAddr(1, 1),
		Options: []byte{7, 8, 1, 2, 3, 4, 5, 6}, Payload: []byte("options"),
	}
	good := trainOf(f, testPackets(3, 0, 1, 20)...)
	f.Add(good)
	f.Add(trainOf(f, withOpts))
	f.Add(append(bytes.Clone(good), 0x00))             // lone trailing byte
	f.Add(append(bytes.Clone(good), 0x00, 0x00))       // zero length
	f.Add(append(bytes.Clone(good), 0x01, 0x00, 0x45)) // length overruns the train
	badVersion := bytes.Clone(good)
	badVersion[2] = 0x65 // first record is not IPv4; the rest still decode
	f.Add(badVersion)
	f.Add([]byte{})
	dirtier := trainOf(f, withOpts, withOpts, withOpts, withOpts, withOpts)

	f.Fuzz(func(t *testing.T, data []byte) {
		var records int
		var want []*packet.IPv4
		for rest := data; len(rest) > 0; {
			records++
			if len(rest) < 2 {
				break
			}
			l := int(binary.BigEndian.Uint16(rest))
			if l == 0 || 2+l > len(rest) {
				break
			}
			if p, err := packet.ParseIPv4(rest[2 : 2+l]); err == nil {
				want = append(want, p)
			}
			rest = rest[2+l:]
		}

		var rx rxBatch
		rx.addTrain(data)
		if len(rx.carriers) != len(want) || len(rx.carriers)+int(rx.malformed) != records {
			t.Fatalf("%d records: %d carriers + %d malformed, want %d well-formed",
				records, len(rx.carriers), rx.malformed, len(want))
		}
		first := make([]*packet.IPv4, len(rx.carriers))
		for i, c := range rx.carriers {
			p := c.(core.V4).P
			if !samePacket(p, want[i]) {
				t.Fatalf("carrier %d = %+v, fresh parse %+v", i, *p, *want[i])
			}
			first[i] = p.Clone()
		}

		rx.reset()
		rx.addTrain(dirtier)
		rx.reset()
		rx.addTrain(data)
		if len(rx.carriers) != len(first) || len(rx.carriers)+int(rx.malformed) != records {
			t.Fatalf("second decode: %d carriers + %d malformed, first had %d of %d records",
				len(rx.carriers), rx.malformed, len(first), records)
		}
		for i, c := range rx.carriers {
			if p := c.(core.V4).P; !samePacket(p, first[i]) {
				t.Fatalf("second decode of record %d = %+v, first %+v", i, *p, *first[i])
			}
		}
	})
}

// sinkListener accepts connections on loopback and hands each to
// serve; it stops with the test.
func sinkListener(tb testing.TB, serve func(net.Conn)) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				serve(c)
			}()
		}
	}()
	return ln.Addr().String()
}

// sinkNode builds an unstarted node (AS 1, 10.1.0.0/16) whose one peer,
// "sink" (AS 2, 10.2.0.0/16), is the given address. Unstarted, its
// controller sends nothing, so the sink sees only the data frames the
// test sends; with no invocation every packet passes unchanged.
func sinkNode(tb testing.TB, addr string) *Node {
	tb.Helper()
	id, err := NodeIdentity("sink", 2)
	if err != nil {
		tb.Fatal(err)
	}
	n, err := NewNode(Config{
		Name: "ctrl.as1", AS: 1, Listen: "127.0.0.1:0", Seed: 1,
		Prefixes: map[string][]string{"1": {"10.1.0.0/16"}, "2": {"10.2.0.0/16"}},
		Peers:    []PeerConfig{{Name: "sink", AS: 2, Addr: addr, Pub: PubHex(id)}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { n.Close() })
	return n
}

// TestDataFrameWireGolden pins the wire bytes of every data frame a
// node emits — a train, a train split where a record overflows
// maxTrainBytes, a SendPacket frame and an InjectRaw frame — to the
// bytes of the Marshal-and-copy implementation that preceded
// marshalling in place.
func TestDataFrameWireGolden(t *testing.T) {
	frames := make(chan []byte, 16)
	addr := sinkListener(t, func(c net.Conn) {
		r := bufio.NewReader(c)
		for {
			f, err := transport.ReadFrame(r)
			if err != nil {
				return
			}
			b, _ := transport.AppendFrame(nil, f)
			frames <- b
		}
	})
	n := sinkNode(t, addr)

	small := testPackets(3, 1, 2, 5)
	small[1].Options = []byte{7, 3, 1} // padded to 4 on the wire
	small[2].Flags, small[2].TOS = packet.FlagDF, 0x10
	big := testPackets(3, 1, 2, 20000) // the third record overflows the first train
	single := &packet.IPv4{TTL: 9, Protocol: packet.ProtoTCP,
		Src: netip.MustParseAddr("10.1.3.4"), Dst: netip.MustParseAddr("10.2.5.6"), Payload: []byte("single")}
	raw := &packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, ID: 0xbeef,
		Src: netip.MustParseAddr("10.1.7.8"), Dst: netip.MustParseAddr("10.2.9.10"), Payload: []byte("raw")}

	if _, sent := n.SendPacketBatch("sink", small); sent != len(small) {
		t.Fatalf("small train: %d of %d sent", sent, len(small))
	}
	if _, sent := n.SendPacketBatch("sink", big); sent != len(big) {
		t.Fatalf("big trains: %d of %d sent", sent, len(big))
	}
	if _, ok := n.SendPacket("sink", single); !ok {
		t.Fatal("SendPacket refused")
	}
	if !n.InjectRaw("sink", raw) {
		t.Fatal("InjectRaw refused")
	}

	var got [][]byte
	timeout := time.After(10 * time.Second)
	for len(got) < 5 {
		select {
		case b := <-frames:
			got = append(got, b)
		case <-timeout:
			t.Fatalf("sink got %d of 5 frames", len(got))
		}
	}
	const (
		wantSmall = "0000005f" + "81" + "08" + "6374726c2e617331" + // length, FrameKindDataBurst, "ctrl.as1"
			"0019" + "4500001900000000401166b40a0100140a02000a0000000000" +
			"001d" + "4600001d0001000040115daa0a0100150a02000b" + "07030100" + "0101010101" +
			"0019" + "45100019000240004011269e0a0100160a02000c0202020202"
		wantBigSum = "3010d614a78291485b385eaa7f3033ffeb93d864400f6a71b99b5a5e35e3cc4b"
		wantSingle = "00000024" + "80" + "08" + "6374726c2e617331" + // FrameKindData
			"4500001a00000000090695d20a0103040a02050673696e676c65"
		wantRaw = "00000021" + "80" + "08" + "6374726c2e617331" +
			"45000017beef0000401197d20a0107080a02090a726177"
	)
	if h := hex.EncodeToString(got[0]); h != wantSmall {
		t.Errorf("train frame:\n got %s\nwant %s", h, wantSmall)
	}
	if len(got[1]) != 40058 || len(got[2]) != 20036 {
		t.Errorf("overflowing train split into %d + %d bytes, want 40058 + 20036", len(got[1]), len(got[2]))
	}
	if sum := sha256.Sum256(append(bytes.Clone(got[1]), got[2]...)); hex.EncodeToString(sum[:]) != wantBigSum {
		t.Errorf("split train frames hash to %x, want %s", sum, wantBigSum)
	}
	if h := hex.EncodeToString(got[3]); h != wantSingle {
		t.Errorf("SendPacket frame:\n got %s\nwant %s", h, wantSingle)
	}
	if h := hex.EncodeToString(got[4]); h != wantRaw {
		t.Errorf("InjectRaw frame:\n got %s\nwant %s", h, wantRaw)
	}
}

// TestServiceSendZeroAlloc holds the steady-state send path to zero
// allocations per train: SendPacketBatch's outbound pass, marshalling
// into a pooled train buffer, and the transport's pooled frame copy
// and write.
func TestServiceSendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; allocation counts are meaningless")
	}
	addr := sinkListener(t, func(c net.Conn) { io.Copy(io.Discard, c) })
	n := sinkNode(t, addr)
	pkts := testPackets(256, 1, 2, 32)
	// A closed loop, as in the fleet: the next train goes once the
	// transport has taken the last off its queue, so pooled frames come
	// back instead of piling up in flight.
	send := func() {
		n.SendPacketBatch("sink", pkts)
		for {
			if st, _ := n.Transport().PeerStats("sink"); st.QueueDepth == 0 {
				return
			}
			runtime.Gosched()
		}
	}
	for i := 0; i < 16; i++ { // dial, warm every pool
		send()
	}
	allocs := testing.AllocsPerRun(100, send)
	if allocs != 0 {
		t.Fatalf("send path: %v allocations per %d-packet train, want 0", allocs, len(pkts))
	}
	if st, _ := n.Transport().PeerStats("sink"); st.FramesSent == 0 {
		t.Fatalf("no train reached the sink: %+v", st)
	}
}

// TestServiceReceiveZeroAlloc holds the steady-state receive path to
// zero allocations per train: a train of stamped packets decoded into
// the worker's slab and verified by ProcessInboundBatch.
func TestServiceReceiveZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; allocation counts are meaningless")
	}
	f, err := NewFleet(FleetOptions{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := f.Protect(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // the grace interval lapses: strict verification

	pkts := testPackets(256, 0, 1, 32)
	carriers := make([]core.MarkCarrier, len(pkts))
	for i, p := range pkts {
		carriers[i] = core.V4{P: p}
	}
	src, victim := f.Nodes[0], f.Nodes[1]
	src.Do(func(_ *core.Controller, r *core.BorderRouter) {
		for i, v := range r.ProcessOutboundBatch(carriers, src.Now(), nil) {
			if v != core.VerdictPassStamped {
				t.Fatalf("packet %d: outbound verdict %v, want stamped", i, v)
			}
		}
	})
	items := []inboundItem{{b: trainOf(t, pkts...), train: true}}

	var rx rxBatch
	victim.processInbound(&rx, items)
	for i, v := range rx.verdicts {
		if v != core.VerdictPassVerified {
			t.Fatalf("packet %d: inbound verdict %v, want verified", i, v)
		}
	}
	if len(rx.verdicts) != len(pkts) {
		t.Fatalf("%d verdicts for %d packets", len(rx.verdicts), len(pkts))
	}
	allocs := testing.AllocsPerRun(100, func() { victim.processInbound(&rx, items) })
	if allocs != 0 {
		t.Fatalf("receive path: %v allocations per %d-packet train, want 0", allocs, len(pkts))
	}
}
