package transport

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Kind: 0, From: "ctrl.as1", Data: []byte("hello")},
		{Kind: 5, From: "", Data: nil},
		{Kind: 0xff, From: "x", Data: bytes.Repeat([]byte{0xaa}, 4096)},
		{Kind: 7, From: strings.Repeat("n", maxFromLen), Data: []byte{1}},
		{Kind: 1, From: "ctrl.as1", Data: []byte("again")},
		{Kind: 2, From: "ctrl.as1", Data: []byte("same sender")},
	}
	var wire []byte
	for _, f := range frames {
		var err error
		wire, err = AppendFrame(wire, f)
		if err != nil {
			t.Fatal(err)
		}
	}
	// One-shot ReadFrame calls, and one connection's frameReader, which
	// keeps the sender name from frame to frame.
	r := bytes.NewReader(wire)
	fr := newFrameReader(bytes.NewReader(wire))
	for _, read := range []func() (Frame, error){
		func() (Frame, error) { return ReadFrame(r) },
		fr.next,
	} {
		for i, want := range frames {
			got, err := read()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if got.Kind != want.Kind || got.From != want.From || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("frame %d = %+v, want %+v", i, got, want)
			}
		}
		if _, err := read(); err == nil {
			t.Fatal("read past the last frame succeeded")
		}
	}
}

func TestFrameLimits(t *testing.T) {
	if _, err := AppendFrame(nil, Frame{From: strings.Repeat("n", maxFromLen+1)}); !errors.Is(err, errFrameTooBig) {
		t.Fatalf("oversized name: %v", err)
	}
	if _, err := AppendFrame(nil, Frame{Data: make([]byte, maxFrameSize)}); !errors.Is(err, errFrameTooBig) {
		t.Fatalf("oversized payload: %v", err)
	}
	// A forged length prefix must be rejected before allocation.
	var hdr [4]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xff, 0xff, 0xff, 0xff
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, errFrameTooBig) {
		t.Fatalf("forged length: %v", err)
	}
	// A fromLen overrunning the payload must error, not panic.
	bad := []byte{0, 0, 0, 2, 9, 200}
	if _, err := ReadFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("overrunning fromLen accepted")
	}
}

// collector gathers frames delivered to a transport handler.
type collector struct {
	mu     sync.Mutex
	frames []Frame
}

func (c *collector) handle(f Frame) {
	c.mu.Lock()
	c.frames = append(c.frames, f)
	c.mu.Unlock()
}

func (c *collector) wait(t *testing.T, n int) []Frame {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		got := len(c.frames)
		out := append([]Frame(nil), c.frames...)
		c.mu.Unlock()
		if got >= n {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %d/%d frames", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func tcpPair(t *testing.T, useTLS bool) (a, b *TCP, recvA, recvB *collector) {
	t.Helper()
	a, err := NewTCP(TCPOptions{Addr: "127.0.0.1:0", TLS: useTLS})
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewTCP(TCPOptions{Addr: "127.0.0.1:0", TLS: useTLS})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	a.SetPeer("b", b.Addr())
	b.SetPeer("a", a.Addr())
	recvA, recvB = &collector{}, &collector{}
	if err := a.Start(recvA.handle); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(recvB.handle); err != nil {
		t.Fatal(err)
	}
	return a, b, recvA, recvB
}

func testTCPDelivery(t *testing.T, useTLS bool) {
	a, b, recvA, recvB := tcpPair(t, useTLS)
	for i := 0; i < 10; i++ {
		if !a.Send("b", Frame{Kind: uint8(i), From: "a", Data: []byte{byte(i)}}) {
			t.Fatalf("send %d dropped", i)
		}
	}
	got := recvB.wait(t, 10)
	for i, f := range got {
		if f.Kind != uint8(i) || f.From != "a" || len(f.Data) != 1 || f.Data[0] != byte(i) {
			t.Fatalf("frame %d = %+v", i, f)
		}
	}
	// Both directions work simultaneously.
	if !b.Send("a", Frame{Kind: 9, From: "b", Data: []byte("pong")}) {
		t.Fatal("reverse send dropped")
	}
	if f := recvA.wait(t, 1)[0]; f.From != "b" || string(f.Data) != "pong" {
		t.Fatalf("reverse frame = %+v", f)
	}
}

func TestTCPDelivery(t *testing.T)    { testTCPDelivery(t, false) }
func TestTCPTLSDelivery(t *testing.T) { testTCPDelivery(t, true) }

func TestTCPDropSemantics(t *testing.T) {
	a, b, _, recvB := tcpPair(t, false)

	// Unknown peer: reported dropped, not an error.
	if a.Send("nobody", Frame{Kind: 1, From: "a"}) {
		t.Fatal("send to unknown peer claimed delivery")
	}
	// Peer listener gone: first Send may succeed into the dead socket's
	// buffer, but the transport must recover to reporting drops, and
	// must never block.
	b.Close()
	dropped := false
	for i := 0; i < 10 && !dropped; i++ {
		dropped = !a.Send("b", Frame{Kind: 2, From: "a"})
		time.Sleep(10 * time.Millisecond)
	}
	if !dropped {
		t.Fatal("sends to a closed peer never reported a drop")
	}
	// Closed transport: everything drops.
	a.Close()
	if a.Send("b", Frame{Kind: 3, From: "a"}) {
		t.Fatal("send on closed transport claimed delivery")
	}
	_ = recvB
}

func TestTCPStartTwice(t *testing.T) {
	a, err := NewTCP(TCPOptions{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Start(func(Frame) {}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(func(Frame) {}); err == nil {
		t.Fatal("second Start accepted")
	}
}

func TestTCPSetPeerRedial(t *testing.T) {
	a, b, _, recvB := tcpPair(t, false)
	if !a.Send("b", Frame{Kind: 1, From: "a"}) {
		t.Fatal("initial send dropped")
	}
	recvB.wait(t, 1)
	// Repointing the peer must drop the cached connection and dial the
	// new address on the next send.
	c, err := NewTCP(TCPOptions{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recvC := &collector{}
	if err := c.Start(recvC.handle); err != nil {
		t.Fatal(err)
	}
	a.SetPeer("b", c.Addr())
	if !a.Send("b", Frame{Kind: 2, From: "a"}) {
		t.Fatal("post-repoint send dropped")
	}
	if f := recvC.wait(t, 1)[0]; f.Kind != 2 {
		t.Fatalf("repointed frame = %+v", f)
	}
	_ = b
}
