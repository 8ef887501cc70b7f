package transport

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"time"

	"discs/internal/obs"
)

// Per-peer transport metric names, registered under the configured
// scope with a ".peer.<name>" suffix (PeerMetric); the obs Prometheus
// exposition lifts that suffix into a {peer="<name>"} label, so a
// scrape sees e.g. discs_transport_bytes_sent{as="7",peer="ctrl.as9"}.
const (
	// MetricDialFailures counts failed dial attempts to the peer.
	MetricDialFailures = "transport.dial_failures"
	// MetricRedials counts connections re-established after a loss —
	// the first successful dial is not a redial.
	MetricRedials = "transport.redials"
	// MetricFramesDropped counts frames the transport knows it did not
	// deliver: queue overflow, dial failure, write failure, shutdown.
	MetricFramesDropped = "transport.frames_dropped"
	// MetricFramesSent counts frames written to the peer's connection.
	MetricFramesSent = "transport.frames_sent"
	// MetricBytesSent counts wire bytes written to the peer.
	MetricBytesSent = "transport.bytes_sent"
	// MetricQueueDepth gauges the peer's outbound queue occupancy.
	MetricQueueDepth = "transport.queue_depth"

	// MetricAcceptRetries counts transient Accept errors survived by
	// the accept loop (not per-peer: inbound conns have no peer name
	// until their first frame arrives).
	MetricAcceptRetries = "transport.accept_retries"
)

// PeerMetric returns the registry name of a per-peer metric: the base
// family plus the ".peer.<name>" suffix the Prometheus exposition
// turns into a peer label.
func PeerMetric(base, peer string) string { return base + ".peer." + peer }

// TCPOptions configures a TCP transport endpoint.
type TCPOptions struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port; the
	// bound address is available from Addr() immediately after NewTCP).
	Addr string
	// TLS wraps every connection in TLS. Certificates are ephemeral and
	// self-signed: the transport provides confidentiality on the wire,
	// while authentication rides on the securechan X25519 handshake the
	// controllers run inside it — a man in the middle can drop or
	// corrupt frames (which the control plane already tolerates) but
	// cannot forge or read control messages.
	TLS bool
	// DialTimeout bounds connection establishment and per-batch writes;
	// 0 means 3s. A slow or dead peer costs its own worker one timeout
	// — never the callers of Send, which only ever enqueue.
	DialTimeout time.Duration
	// SendQueue caps each peer's outbound frame queue; 0 means 256.
	// When the queue is full, Send drops the frame and reports false —
	// the bounded-memory spelling of the package's loss tolerance.
	SendQueue int
	// Registry receives the transport's metrics (per-peer families
	// under Scope). Nil means a private registry: counters still count,
	// nobody scrapes them.
	Registry *obs.Registry
	// Scope prefixes every transport metric (e.g. "as7.").
	Scope string
	// Dial overrides connection establishment (tests inject hanging or
	// flaky dials; proxies substitute their own). Nil means TCP, or
	// TLS-over-TCP when TLS is set. The context is canceled when the
	// transport closes, so a hung dial never outlives Close.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
}

// TCP is the real-socket Transport: length-prefixed frames over
// TCP (optionally TLS), with one dedicated send worker and bounded
// outbound queue per registered peer. Send never blocks and never
// dials: it enqueues to the peer's worker, which owns dialing, write
// batching, teardown and redial. A dead or blackholed peer therefore
// costs only its own queue — Sends to healthy peers and Close proceed
// at full speed. Peers are named endpoints registered in an address
// book (SetPeer); Send to an unregistered peer reports a drop.
type TCP struct {
	opts    TCPOptions
	ln      net.Listener
	tlsConf *tls.Config

	handler  Handler
	handlerM sync.RWMutex

	ctx    context.Context
	cancel context.CancelFunc
	dialFn func(ctx context.Context, addr string) (net.Conn, error)

	sc            obs.Scope
	acceptRetries *obs.Counter

	mu      sync.RWMutex
	peers   map[string]*tcpPeer
	inbound map[net.Conn]bool // accepted conns, closed with the transport
	closed  bool

	wg sync.WaitGroup
}

// tcpPeer is one peer's outbound half: address, bounded frame queue,
// and the connection its worker currently owns. All mutable state is
// under mu; the queue hands encoded frames from Send to the worker.
type tcpPeer struct {
	t    *TCP
	name string

	q    chan *[]byte // encoded frames from framePool
	stop chan struct{}

	mu            sync.Mutex
	addr          string
	conn          net.Conn // worker-owned; closed by SetPeer/Close to interrupt
	down          bool     // last dial or write failed; cleared by a successful dial
	everConnected bool
	lastDialFail  time.Time
	backoff       time.Duration

	dialFailures  *obs.Counter
	redials       *obs.Counter
	framesDropped *obs.Counter
	framesSent    *obs.Counter
	bytesSent     *obs.Counter
	queueDepth    *obs.Gauge
}

const (
	defaultSendQueue = 256
	// maxWriteBatch caps how many queued bytes one conn.Write carries;
	// coalescing frames into one write is where the burst throughput
	// comes from (a syscall per train instead of per frame).
	maxWriteBatch = 64 << 10
	// Dial backoff to a failing peer: exponential between these bounds,
	// reset by a successful dial or an address change.
	dialBackoffMin = 50 * time.Millisecond
	dialBackoffMax = time.Second
	// Accept backoff after a transient Accept error (EMFILE, ...).
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// NewTCP binds the listen address and returns the endpoint. The
// listener is live (so Addr() is concrete and peers can already dial
// in), but inbound frames are not consumed until Start.
func NewTCP(o TCPOptions) (*TCP, error) {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.SendQueue <= 0 {
		o.SendQueue = defaultSendQueue
	}
	reg := o.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	t := &TCP{
		opts:    o,
		peers:   make(map[string]*tcpPeer),
		inbound: make(map[net.Conn]bool),
		sc:      reg.Scope(o.Scope),
	}
	t.ctx, t.cancel = context.WithCancel(context.Background())
	t.acceptRetries = t.sc.Counter(MetricAcceptRetries)
	ln, err := net.Listen("tcp", o.Addr)
	if err != nil {
		t.cancel()
		return nil, fmt.Errorf("transport: listen %s: %w", o.Addr, err)
	}
	if o.TLS {
		cert, err := ephemeralCert()
		if err != nil {
			ln.Close()
			t.cancel()
			return nil, err
		}
		t.tlsConf = &tls.Config{
			Certificates: []tls.Certificate{cert},
			// Self-signed by design: endpoint authentication happens in
			// the securechan handshake riding on this transport.
			InsecureSkipVerify: true,
			MinVersion:         tls.VersionTLS13,
		}
		ln = tls.NewListener(ln, t.tlsConf)
	}
	t.ln = ln
	t.dialFn = o.Dial
	if t.dialFn == nil {
		t.dialFn = t.defaultDial
	}
	return t, nil
}

// Addr returns the bound listen address (concrete port even when the
// options said ":0").
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// SetPeer registers (or updates) the dial address for a named peer,
// spawning the peer's send worker on first registration. Repointing an
// existing peer tears its cached connection down (a stale connection
// to the old address would silently eat frames) and resets its dial
// backoff; the worker redials the new address on the next frame.
func (t *TCP) SetPeer(name, addr string) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	p, ok := t.peers[name]
	if !ok {
		p = t.newPeer(name)
		t.peers[name] = p
		t.wg.Add(1)
		go p.run()
	}
	t.mu.Unlock()

	p.mu.Lock()
	if p.addr != addr {
		p.addr = addr
		p.down = false
		p.backoff = 0
		p.lastDialFail = time.Time{}
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
	}
	p.mu.Unlock()
}

func (t *TCP) newPeer(name string) *tcpPeer {
	return &tcpPeer{
		t:             t,
		name:          name,
		q:             make(chan *[]byte, t.opts.SendQueue),
		stop:          make(chan struct{}),
		dialFailures:  t.sc.Counter(PeerMetric(MetricDialFailures, name)),
		redials:       t.sc.Counter(PeerMetric(MetricRedials, name)),
		framesDropped: t.sc.Counter(PeerMetric(MetricFramesDropped, name)),
		framesSent:    t.sc.Counter(PeerMetric(MetricFramesSent, name)),
		bytesSent:     t.sc.Counter(PeerMetric(MetricBytesSent, name)),
		queueDepth:    t.sc.Gauge(PeerMetric(MetricQueueDepth, name)),
	}
}

// PeerStats is a point-in-time view of one peer's transport counters,
// for tests and programmatic health checks; scrapes read the same
// numbers from the registry.
type PeerStats struct {
	DialFailures  uint64
	Redials       uint64
	FramesDropped uint64
	FramesSent    uint64
	BytesSent     uint64
	QueueDepth    int64
	Down          bool
}

// PeerStats returns the named peer's counters; ok is false for an
// unregistered peer.
func (t *TCP) PeerStats(name string) (PeerStats, bool) {
	t.mu.RLock()
	p := t.peers[name]
	t.mu.RUnlock()
	if p == nil {
		return PeerStats{}, false
	}
	p.mu.Lock()
	down := p.down
	p.mu.Unlock()
	return PeerStats{
		DialFailures:  p.dialFailures.Value(),
		Redials:       p.redials.Value(),
		FramesDropped: p.framesDropped.Value(),
		FramesSent:    p.framesSent.Value(),
		BytesSent:     p.bytesSent.Value(),
		QueueDepth:    int64(len(p.q)),
		Down:          down,
	}, true
}

// Start begins accepting connections and delivering inbound frames to
// h. Frames are handed to h from per-connection goroutines; the host
// serializes them onto its event loop. Transient Accept errors
// (EMFILE and friends) are survived with capped backoff — the loop
// exits only when the transport closes.
func (t *TCP) Start(h Handler) error {
	t.handlerM.Lock()
	if t.handler != nil {
		t.handlerM.Unlock()
		return fmt.Errorf("transport: Start called twice")
	}
	t.handler = h
	t.handlerM.Unlock()

	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		backoff := time.Duration(0)
		for {
			conn, err := t.ln.Accept()
			if err != nil {
				if t.isClosed() || errors.Is(err, net.ErrClosed) {
					return
				}
				// Transient (out of fds, aborted handshake, ...): the
				// node must not silently stop receiving forever.
				t.acceptRetries.Inc()
				if backoff == 0 {
					backoff = acceptBackoffMin
				} else if backoff *= 2; backoff > acceptBackoffMax {
					backoff = acceptBackoffMax
				}
				select {
				case <-t.ctx.Done():
					return
				case <-time.After(backoff):
				}
				continue
			}
			backoff = 0
			t.mu.Lock()
			if t.closed {
				t.mu.Unlock()
				conn.Close()
				return
			}
			t.inbound[conn] = true
			t.mu.Unlock()
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				t.serve(conn)
			}()
		}
	}()
	return nil
}

func (t *TCP) isClosed() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.closed
}

// serve drains one inbound connection until EOF or error. Errors are
// not reported anywhere: a torn connection is indistinguishable from
// frame loss, which the control plane tolerates by design. The reader
// is buffered so a train of coalesced frames costs one syscall, not
// two per frame.
func (t *TCP) serve(conn net.Conn) {
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	r := newFrameReader(conn)
	for {
		f, err := r.next()
		if err != nil {
			return
		}
		t.handlerM.RLock()
		h := t.handler
		t.handlerM.RUnlock()
		if h != nil {
			h(f)
		}
	}
}

// Send enqueues f for delivery to the named peer's send worker and
// never blocks. False means the frame was dropped (unknown peer, full
// queue, transport closed) or the peer is currently down (its last
// dial or write failed) — the caller's retry machinery owns recovery
// either way. True means the frame was accepted by a healthy peer's
// queue; delivery remains best-effort. Send copies f, so the caller
// owns f.Data again as soon as it returns.
func (t *TCP) Send(peer string, f Frame) bool {
	buf := framePool.Get().(*[]byte)
	b, err := AppendFrame((*buf)[:0], f)
	*buf = b
	if err != nil {
		framePool.Put(buf)
		return false
	}
	t.mu.RLock()
	p := t.peers[peer]
	closed := t.closed
	t.mu.RUnlock()
	if closed || p == nil {
		framePool.Put(buf)
		return false
	}
	select {
	case p.q <- buf:
		p.queueDepth.Set(int64(len(p.q)))
		p.mu.Lock()
		down := p.down
		p.mu.Unlock()
		return !down
	default:
		framePool.Put(buf)
		p.framesDropped.Inc()
		return false
	}
}

// framePool recycles encoded frames. Send encodes the caller's frame
// into a pooled buffer, so the caller may reuse its Data as soon as
// Send returns; the buffer belongs to the peer's queue until its worker
// has written (or dropped) it and puts it back.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// run is the peer's send worker: it drains the queue, coalesces
// frames into batched writes, and owns the connection lifecycle
// (dial, teardown, redial with backoff). One worker per peer keeps
// frame order FIFO and confines every slow operation — dial timeouts,
// blocked writes — to the peer that earned them.
func (p *tcpPeer) run() {
	defer p.t.wg.Done()
	batch := make([]*[]byte, 0, 64)
	var wbuf []byte
	for {
		var first *[]byte
		select {
		case first = <-p.q:
		case <-p.stop:
			p.drainOnStop()
			return
		}
		batch = append(batch[:0], first)
		total := len(*first)
	coalesce:
		for total < maxWriteBatch {
			select {
			case b := <-p.q:
				batch = append(batch, b)
				total += len(*b)
			default:
				break coalesce
			}
		}
		p.queueDepth.Set(int64(len(p.q)))
		wbuf = p.flush(batch, wbuf[:0])
		for _, b := range batch {
			framePool.Put(b)
		}
	}
}

// drainOnStop counts every undelivered queued frame as dropped and
// zeroes the depth gauge.
func (p *tcpPeer) drainOnStop() {
	for {
		select {
		case b := <-p.q:
			framePool.Put(b)
			p.framesDropped.Inc()
		default:
			p.queueDepth.Set(0)
			return
		}
	}
}

// flush writes one coalesced batch, dialing first if the peer has no
// connection. Several frames are copied into wbuf for one write; a
// lone frame is written from its own buffer. Failures drop the whole
// batch (a partially written frame tears the stream anyway) and mark
// the peer down until a dial succeeds.
func (p *tcpPeer) flush(batch []*[]byte, wbuf []byte) []byte {
	conn := p.currentConn()
	if conn == nil {
		conn = p.dial()
		if conn == nil {
			p.framesDropped.Add(uint64(len(batch)))
			return wbuf
		}
	}
	out := *batch[0]
	if len(batch) > 1 {
		for _, b := range batch {
			wbuf = append(wbuf, *b...)
		}
		out = wbuf
	}
	conn.SetWriteDeadline(time.Now().Add(p.t.opts.DialTimeout))
	if _, err := conn.Write(out); err != nil {
		p.teardown(conn)
		p.framesDropped.Add(uint64(len(batch)))
		return wbuf
	}
	p.framesSent.Add(uint64(len(batch)))
	p.bytesSent.Add(uint64(len(out)))
	return wbuf
}

func (p *tcpPeer) currentConn() net.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn
}

// dial establishes the peer connection, honoring the failure backoff.
// It runs outside p.mu (a dial may take DialTimeout), so SetPeer and
// Close stay responsive while it is in flight; the transport context
// cancels it on Close.
func (p *tcpPeer) dial() net.Conn {
	p.mu.Lock()
	addr := p.addr
	inBackoff := p.backoff > 0 && time.Since(p.lastDialFail) < p.backoff
	p.mu.Unlock()
	if addr == "" || inBackoff {
		return nil
	}
	c, err := p.t.dialFn(p.t.ctx, addr)

	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.dialFailures.Inc()
		p.down = true
		p.lastDialFail = time.Now()
		if p.backoff == 0 {
			p.backoff = dialBackoffMin
		} else if p.backoff *= 2; p.backoff > dialBackoffMax {
			p.backoff = dialBackoffMax
		}
		return nil
	}
	select {
	case <-p.stop:
		c.Close()
		return nil
	default:
	}
	if p.addr != addr {
		// Repointed while dialing; the old address's conn is stale.
		c.Close()
		return nil
	}
	if p.everConnected {
		p.redials.Inc()
	}
	p.everConnected = true
	p.down = false
	p.backoff = 0
	p.conn = c
	return c
}

// teardown discards a failed connection and marks the peer down; the
// next batch redials immediately (write failures carry no dial
// backoff — the address may be fine and the connection merely stale).
func (p *tcpPeer) teardown(conn net.Conn) {
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
	}
	p.down = true
	p.mu.Unlock()
	conn.Close()
}

func (t *TCP) defaultDial(ctx context.Context, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: t.opts.DialTimeout}
	if t.tlsConf != nil {
		td := tls.Dialer{NetDialer: &d, Config: t.tlsConf}
		return td.DialContext(ctx, "tcp", addr)
	}
	return d.DialContext(ctx, "tcp", addr)
}

// Close shuts the listener, every peer worker and every connection
// down and waits for all goroutines to drain. It is bounded even with
// peers mid-dial or mid-write: the dial context is canceled and live
// connections are closed under it, which errors the blocked calls
// out. Subsequent Sends report false.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	err := t.ln.Close()
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	conns := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	t.cancel() // interrupt in-flight dials
	for _, p := range peers {
		close(p.stop)
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close() // interrupt a blocked write
			p.conn = nil
		}
		p.mu.Unlock()
	}
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	return err
}

// ephemeralCert builds a throwaway self-signed certificate for the
// TLS record layer (see TCPOptions.TLS for why self-signed is sound
// here).
func ephemeralCert() (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, err
	}
	tmpl := x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "discs-node"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(24 * time.Hour),
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, err
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}, nil
}
