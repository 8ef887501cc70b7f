package transport

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// flakyListener fails the first `failures` Accept calls with a
// transient error before delegating — the shape of an EMFILE burst.
type flakyListener struct {
	net.Listener
	mu       sync.Mutex
	failures int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	fail := l.failures > 0
	if fail {
		l.failures--
	}
	l.mu.Unlock()
	if fail {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: errors.New("too many open files")}
	}
	return l.Listener.Accept()
}

// TestAcceptLoopRecovers pins the accept-loop bugfix: a transient
// Accept error (EMFILE and friends) must not permanently stop the
// node from receiving — the loop backs off, retries, and later
// connections still deliver frames.
func TestAcceptLoopRecovers(t *testing.T) {
	a, err := NewTCP(TCPOptions{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Swap in the flaky wrapper before Start spawns the accept loop.
	a.ln = &flakyListener{Listener: a.ln, failures: 5}
	recv := &collector{}
	if err := a.Start(recv.handle); err != nil {
		t.Fatal(err)
	}

	b, err := NewTCP(TCPOptions{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.SetPeer("a", a.Addr())
	if err := b.Start(func(Frame) {}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(recv.wait(t, 0)) == 0 {
		b.Send("a", Frame{Kind: 1, From: "b", Data: []byte("hi")})
		if time.Now().After(deadline) {
			t.Fatal("no frame delivered after transient accept errors")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := a.acceptRetries.Value(); got != 5 {
		t.Fatalf("accept_retries = %d, want 5", got)
	}
}

// blackholeListener accepts connections and never reads them: the
// remote's TCP buffers fill and its writes block — the worst kind of
// sick peer, alive at the socket layer and dead above it.
func blackholeListener(t *testing.T) (addr string, done func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	}
}

// TestSendNotBlockedByBlackholedPeer pins the head-of-line fix: one
// peer whose connection is up but wedged (never reads) must cost only
// its own bounded queue. Sends to it stay non-blocking (drop when the
// queue fills), sends to a healthy peer deliver at full speed, and
// Close returns promptly even with the worker stuck in a write.
func TestSendNotBlockedByBlackholedPeer(t *testing.T) {
	black, stopBlack := blackholeListener(t)
	defer stopBlack()

	a, err := NewTCP(TCPOptions{Addr: "127.0.0.1:0", DialTimeout: 500 * time.Millisecond, SendQueue: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(func(Frame) {}); err != nil {
		t.Fatal(err)
	}
	good, err := NewTCP(TCPOptions{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	recvGood := &collector{}
	if err := good.Start(recvGood.handle); err != nil {
		t.Fatal(err)
	}
	a.SetPeer("black", black)
	a.SetPeer("good", good.Addr())

	// Large frames wedge the blackholed worker fast: socket buffers
	// fill, the write blocks until its deadline, the queue fills behind
	// it. Every Send must return quickly regardless.
	payload := bytes.Repeat([]byte{0xee}, 32<<10)
	sawDrop := false
	for i := 0; i < 200; i++ {
		begin := time.Now()
		ok := a.Send("black", Frame{Kind: 1, From: "a", Data: payload})
		if d := time.Since(begin); d > 100*time.Millisecond {
			t.Fatalf("Send to blackholed peer blocked %v", d)
		}
		sawDrop = sawDrop || !ok
	}
	if !sawDrop {
		t.Fatal("queue to a blackholed peer never filled — Send is not bounded")
	}
	if st, ok := a.PeerStats("black"); !ok || st.FramesDropped == 0 {
		t.Fatalf("blackholed peer stats = %+v, want queue-overflow drops", st)
	}

	// The healthy peer is unaffected.
	for i := 0; i < 5; i++ {
		begin := time.Now()
		if !a.Send("good", Frame{Kind: 2, From: "a", Data: []byte{byte(i)}}) {
			t.Fatalf("send %d to healthy peer dropped", i)
		}
		if d := time.Since(begin); d > 100*time.Millisecond {
			t.Fatalf("Send to healthy peer took %v", d)
		}
	}
	recvGood.wait(t, 5)

	// Close must not wait out the blackholed worker's write deadline
	// chain: closing the conn errors the blocked write out.
	begin := time.Now()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(begin); d > 2*time.Second {
		t.Fatalf("Close took %v with a blackholed peer", d)
	}
}

// TestChurnCounters kills and revives a peer mid-traffic and checks
// the per-peer accounting invariant: once the queue drains, every
// frame ever accepted or rejected by Send is visible as exactly one of
// frames_sent or frames_dropped, and the revival shows up in redials.
// Run under -race this also exercises Send/worker/SetPeer interleaving.
func TestChurnCounters(t *testing.T) {
	a, err := NewTCP(TCPOptions{Addr: "127.0.0.1:0", DialTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Start(func(Frame) {}); err != nil {
		t.Fatal(err)
	}
	b, err := NewTCP(TCPOptions{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	recvB := &collector{}
	if err := b.Start(recvB.handle); err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	a.SetPeer("b", addr)

	received := func(c *collector) int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.frames)
	}
	var total uint64
	send := func() {
		a.Send("b", Frame{Kind: 1, From: "a", Data: []byte{byte(total)}})
		total++
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		send()
	}
	b.Close() // peer dies mid-traffic
	for i := 0; i < 100; i++ {
		send()
	}
	// Peer revives on the same address (Go listeners set SO_REUSEADDR,
	// so the rebind races nothing).
	b2, err := NewTCP(TCPOptions{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	recvB2 := &collector{}
	if err := b2.Start(recvB2.handle); err != nil {
		t.Fatal(err)
	}
	// Send until a frame reaches the revived peer. A fixed count could
	// all be dropped first: the dial backoff doubles from 50 ms with
	// every failed dial while the peer was down.
	revived := time.Now().Add(10 * time.Second)
	for received(recvB2) == 0 {
		if time.Now().After(revived) {
			st, _ := a.PeerStats("b")
			t.Fatalf("no frames delivered after the peer revived: %+v", st)
		}
		send()
	}

	// Wait for the worker to drain so the accounting is quiescent.
	deadline := time.Now().Add(5 * time.Second)
	var st PeerStats
	for {
		var ok bool
		st, ok = a.PeerStats("b")
		if !ok {
			t.Fatal("peer b unregistered")
		}
		if st.QueueDepth == 0 && st.FramesSent+st.FramesDropped == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accounting never quiesced: %+v (sent+dropped=%d, want %d)",
				st, st.FramesSent+st.FramesDropped, total)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Redials == 0 {
		t.Fatalf("peer revived but redials = 0: %+v", st)
	}
	got := received(recvB) + received(recvB2)
	if got == 0 || uint64(got) > st.FramesSent {
		t.Fatalf("received %d frames, frames_sent %d — received must be positive and ≤ sent", got, st.FramesSent)
	}
	if received(recvB2) == 0 {
		t.Fatal("no frames delivered after the peer revived")
	}
}
