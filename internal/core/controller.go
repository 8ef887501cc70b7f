package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"discs/internal/bgp"
	"discs/internal/cmac"
	"discs/internal/netsim"
	"discs/internal/obs"
	"discs/internal/securechan"
	"discs/internal/topology"
	"discs/internal/transport"
)

// Directory maps controller names to their static public keys and
// network locations. It models the out-of-band trust anchor (RPKI plus
// DNS) that lets controllers authenticate each other; the name itself
// travels in the DISCS-Ad.
type Directory struct {
	entries map[string]*DirEntry
}

// DirEntry is one registered controller.
type DirEntry struct {
	Name string
	ASN  topology.ASN
	Pub  []byte
	node *netsim.Node
}

// NewDirectory creates an empty directory.
func NewDirectory() *Directory { return &Directory{entries: make(map[string]*DirEntry)} }

// Register adds a controller.
func (d *Directory) Register(e *DirEntry) error {
	if _, dup := d.entries[e.Name]; dup {
		return fmt.Errorf("core: duplicate controller name %q", e.Name)
	}
	d.entries[e.Name] = e
	return nil
}

// Lookup returns the entry for name, or nil.
func (d *Directory) Lookup(name string) *DirEntry { return d.entries[name] }

// sorted returns all registered controllers sorted by name, so
// callers iterating the mesh (e.g. the deploy-time preconnect) do
// so in a deterministic order.
func (d *Directory) sorted() []*DirEntry {
	out := make([]*DirEntry, 0, len(d.entries))
	for _, e := range d.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PeerStatus tracks the lifecycle of a DISCS peering (§IV, steps 1-3).
type PeerStatus int

const (
	// peerDiscovered: we saw the DAS's Ad but have not peered yet.
	peerDiscovered PeerStatus = iota
	// peerRequested: we sent a peering request and await the answer.
	peerRequested
	// peerEstablished: both sides agreed; key negotiation proceeds.
	peerEstablished
	// peerRejected: the remote side declined (or we blacklisted it).
	peerRejected
	// peerDead: the peer missed enough heartbeats to be declared down;
	// its keys and table entries are purged and reconnection probes run
	// until it answers again.
	peerDead
)

func (s PeerStatus) String() string {
	switch s {
	case peerDiscovered:
		return "discovered"
	case peerRequested:
		return "requested"
	case peerEstablished:
		return "established"
	case peerRejected:
		return "rejected"
	case peerDead:
		return "dead"
	}
	return "unknown"
}

// peerState is everything a controller tracks per remote DAS.
type peerState struct {
	asn      topology.ASN
	ctrlName string
	status   PeerStatus

	// Secure channel: out is the session we initiated (we send on it);
	// in is the responder side of the peer's session toward us.
	out        *securechan.Session
	in         *securechan.Session
	initiator  *securechan.Initiator
	resumer    *securechan.Resumer // abbreviated handshake in flight
	pendingOut [][]byte            // encoded ControlMsgs awaiting session

	// Key negotiation: serial of the last stamping key we generated and
	// whether the peer acked it.
	stampSerial uint64
	stampKey    []byte
	stampActive bool
	verifySeen  uint64 // serial of the verify key currently deployed

	// Retry machinery.
	retryArmed bool
	retries    int

	// Liveness: lastSeen is the simulated time of the last
	// authenticated message from the peer; missed counts consecutive
	// silent heartbeat intervals.
	lastSeen   netsim.Time
	missed     int
	hbArmed    bool
	probeArmed bool

	// campaignSeen is the serial of the newest defense campaign this
	// peer has been asked to execute; campaignAcked is the newest one
	// it has acknowledged (see Controller.campaigns). A gap between the
	// two marks an invoke in flight, which the retry timer re-drives.
	campaignSeen  uint64
	campaignAcked uint64
	// installed tracks the function-table entries this peer asked us to
	// install, so declaring it dead can withdraw them.
	installed map[installedEntry]struct{}
}

// installedEntry identifies one peer-requested function-table install.
type installedEntry struct {
	table TableKind
	pfx   netip.Prefix
	op    Op
}

// Config tunes controller behaviour.
type Config struct {
	// PeeringDelayMax bounds the random delay before sending a peering
	// request after discovery (§IV-C: prevents request storms).
	PeeringDelayMax time.Duration
	// CtrlLinkDelay is the one-way latency of on-demand con-con links.
	CtrlLinkDelay time.Duration
	// Grace is the verification tolerance interval (§IV-E1).
	Grace time.Duration
	// RekeyOverlap is how long the previous verification key stays
	// valid after a new key is deployed (§IV-D).
	RekeyOverlap time.Duration
	// AlarmThreshold is the number of alarm samples within AlarmWindow
	// that makes the controller declare an attack (§IV-F).
	AlarmThreshold int
	// AlarmWindow bounds the sample-counting window.
	AlarmWindow time.Duration
	// RetryInterval is how long the controller waits for handshake or
	// key-deployment progress before re-driving the exchange. The
	// con-con channel would run over TCP in a real deployment; in the
	// simulator frames can be lost when links flap, so the state
	// machine re-sends idempotent messages.
	RetryInterval time.Duration
	// MaxRetries bounds re-drives per peer so a permanently
	// unreachable controller cannot busy-loop the simulator.
	MaxRetries int
	// RetryJitter adds a uniform random extra delay in [0, RetryJitter]
	// to every retry timer. §IV-C's randomized-peering-delay rationale
	// applies here too: fixed retry intervals synchronize the re-drives
	// of every DAS that lost frames to the same outage, recreating the
	// request storm.
	RetryJitter time.Duration
	// HeartbeatInterval is the keepalive period on established
	// peerings; zero disables liveness detection entirely.
	HeartbeatInterval time.Duration
	// DeadAfterMisses is how many consecutive silent heartbeat
	// intervals declare the peer dead.
	DeadAfterMisses int
	// ReconnectInterval paces re-peering probes toward a dead peer
	// (plus up to 50% jitter); zero disables probing.
	ReconnectInterval time.Duration
	// PurgeInterval paces the periodic purgeExpired sweep; zero falls
	// back to the old behaviour of purging only on invocations.
	PurgeInterval time.Duration

	// Observability. Registry receives every subsystem's metrics and
	// trace events; nil means each layer creates (or shares the
	// simulator's) registry. TraceCapacity sizes the event ring (0 uses
	// obs.DefaultTraceCapacity); TraceSampleEvery enables sampled
	// data-plane packet tracing on routers built by System.Deploy (0
	// disables it, keeping the forwarding hot path untouched). Seed is
	// mixed into every per-deploy seed so whole-system runs can be
	// re-randomized from one knob without changing call sites.
	Registry         *obs.Registry
	TraceCapacity    int
	TraceSampleEvery int
	Seed             int64
}

// DefaultConfig returns sensible simulation defaults.
func DefaultConfig() Config {
	return Config{
		PeeringDelayMax:   2 * time.Second,
		CtrlLinkDelay:     20 * time.Millisecond,
		Grace:             DefaultGrace,
		RekeyOverlap:      time.Minute,
		AlarmThreshold:    100,
		AlarmWindow:       10 * time.Second,
		RetryInterval:     5 * time.Second,
		MaxRetries:        8,
		RetryJitter:       2 * time.Second,
		HeartbeatInterval: 15 * time.Second,
		DeadAfterMisses:   4,
		ReconnectInterval: 30 * time.Second,
		PurgeInterval:     time.Minute,
	}
}

// Controller is the DISCS controller of one DAS (§IV-B): it discovers
// other DASes from BGP, manages peering and keys, and invokes/accepts
// defense functions. It connects to local border routers "via iBGP
// like a route reflector"; in this implementation it holds direct
// references to them.
type Controller struct {
	AS   topology.ASN
	name string

	// I/O seam: conn carries outbound frames to peer controllers, rt
	// provides the clock and timers. In simulations they are simConn
	// and nodeRuntime over the netsim node below; in service mode they
	// are a real transport and the wall clock, and sim/node are nil.
	conn FrameSender
	rt   Runtime

	sim     *netsim.Simulator
	node    *netsim.Node
	id      *securechan.Identity
	dir     *Directory
	topo    *topology.Topology // RPKI ownership oracle
	routers []*BorderRouter
	rng     *rand.Rand
	cfg     Config

	// blacklist holds ASes this controller refuses to peer with
	// (conflict of interest, §IV-C).
	blacklist map[topology.ASN]bool

	peers map[topology.ASN]*peerState

	// encBuf is send's reusable control-message encoding buffer.
	encBuf []byte

	// resumeCache holds the con-con resumption secret per peer — the
	// paper's SSL session cache (§VI-C). It models durable state: a
	// real deployment persists it, so it survives Crash, and a
	// restarted controller reconnects via the abbreviated handshake.
	resumeCache map[topology.ASN][16]byte

	// campaigns journals active defense invocations so the controller
	// can re-drive them to a peer that died and came back (or after its
	// own crash, to every re-established peer). Durable like
	// resumeCache.
	campaigns      []campaign
	campaignSerial uint64

	purgeArmed bool

	// OnAttackDetected fires when alarm-mode samples cross the
	// threshold; the argument is the offending source AS (0 if mixed).
	OnAttackDetected func(src topology.ASN)

	alarmTimes []time.Time

	// AutoDefend, when non-nil, closes the alarm loop: the moment the
	// alarm threshold is crossed the controller invokes these functions
	// for its own prefixes (in enforcing mode) in addition to telling
	// everyone to quit alarm mode.
	AutoDefend *AutoDefendPolicy

	// Observability: every tally lives in reg under scope+"ctrl.*"; m
	// caches the handles and trace records control-plane events.
	reg   *obs.Registry
	scope string
	m     ctrlMetrics
	trace *obs.Tracer
}

// Metric names (relative to the controller's scope) for the
// control-plane tallies; a controller scoped "as7." publishes e.g.
// "as7.ctrl.msgs_sent". The names read outside core are exported, so
// consumers of registry snapshots do not hard-code them.
const (
	MetricCtrlMsgsSent             = "ctrl.msgs_sent"
	MetricCtrlMsgsRecv             = "ctrl.msgs_recv"
	MetricCtrlRetries              = "ctrl.retries"
	metricCtrlInvokesSent          = "ctrl.invokes_sent"
	metricCtrlInvokesAccepted      = "ctrl.invokes_accepted"
	metricCtrlInvokesRejected      = "ctrl.invokes_rejected"
	metricCtrlHandshakesInitiated  = "ctrl.handshakes_initiated"
	metricCtrlHandshakesResponded  = "ctrl.handshakes_responded"
	metricCtrlAdsSeen              = "ctrl.ads_seen"
	metricCtrlPeeringRequestsSent  = "ctrl.peering_requests_sent"
	metricCtrlPeeringRequestsRecvd = "ctrl.peering_requests_recvd"
	metricCtrlHeartbeatsSent       = "ctrl.heartbeats_sent"
	MetricCtrlHeartbeatMisses      = "ctrl.heartbeat_misses"
	MetricCtrlPeersDeclaredDead    = "ctrl.peers_declared_dead"
	metricCtrlResumesInitiated     = "ctrl.resumes_initiated"
	metricCtrlResumesResponded     = "ctrl.resumes_responded"
	metricCtrlResumeFallbacks      = "ctrl.resume_fallbacks"
	metricCtrlCampaignResyncs      = "ctrl.campaign_resyncs"
	metricCtrlPurged               = "ctrl.purged"
	metricCtrlCrashes              = "ctrl.crashes"
	metricCtrlAttacksDetected      = "ctrl.attacks_detected"
	MetricCtrlBytesSealed          = "ctrl.bytes_sealed"
	MetricCtrlBytesOpened          = "ctrl.bytes_opened"
	metricCtrlPeersEstablished     = "ctrl.peers_established" // gauge
)

// ctrlMetrics holds the controller's pre-resolved registry handles.
type ctrlMetrics struct {
	msgsSent, msgsRecv   *obs.Counter
	retries              *obs.Counter
	invokesSent          *obs.Counter
	invokesAccepted      *obs.Counter
	invokesRejected      *obs.Counter
	handshakesInitiated  *obs.Counter
	handshakesResponded  *obs.Counter
	adsSeen              *obs.Counter
	peeringRequestsSent  *obs.Counter
	peeringRequestsRecvd *obs.Counter
	heartbeatsSent       *obs.Counter
	heartbeatMisses      *obs.Counter
	peersDeclaredDead    *obs.Counter
	resumesInitiated     *obs.Counter
	resumesResponded     *obs.Counter
	resumeFallbacks      *obs.Counter
	campaignResyncs      *obs.Counter
	purged               *obs.Counter
	crashes              *obs.Counter
	attacksDetected      *obs.Counter
	bytesSealed          *obs.Counter
	bytesOpened          *obs.Counter
	peersEstablished     *obs.Gauge
}

func newCtrlMetrics(sc obs.Scope) ctrlMetrics {
	return ctrlMetrics{
		msgsSent:             sc.Counter(MetricCtrlMsgsSent),
		msgsRecv:             sc.Counter(MetricCtrlMsgsRecv),
		retries:              sc.Counter(MetricCtrlRetries),
		invokesSent:          sc.Counter(metricCtrlInvokesSent),
		invokesAccepted:      sc.Counter(metricCtrlInvokesAccepted),
		invokesRejected:      sc.Counter(metricCtrlInvokesRejected),
		handshakesInitiated:  sc.Counter(metricCtrlHandshakesInitiated),
		handshakesResponded:  sc.Counter(metricCtrlHandshakesResponded),
		adsSeen:              sc.Counter(metricCtrlAdsSeen),
		peeringRequestsSent:  sc.Counter(metricCtrlPeeringRequestsSent),
		peeringRequestsRecvd: sc.Counter(metricCtrlPeeringRequestsRecvd),
		heartbeatsSent:       sc.Counter(metricCtrlHeartbeatsSent),
		heartbeatMisses:      sc.Counter(MetricCtrlHeartbeatMisses),
		peersDeclaredDead:    sc.Counter(MetricCtrlPeersDeclaredDead),
		resumesInitiated:     sc.Counter(metricCtrlResumesInitiated),
		resumesResponded:     sc.Counter(metricCtrlResumesResponded),
		resumeFallbacks:      sc.Counter(metricCtrlResumeFallbacks),
		campaignResyncs:      sc.Counter(metricCtrlCampaignResyncs),
		purged:               sc.Counter(metricCtrlPurged),
		crashes:              sc.Counter(metricCtrlCrashes),
		attacksDetected:      sc.Counter(metricCtrlAttacksDetected),
		bytesSealed:          sc.Counter(MetricCtrlBytesSealed),
		bytesOpened:          sc.Counter(MetricCtrlBytesOpened),
		peersEstablished:     sc.Gauge(metricCtrlPeersEstablished),
	}
}

// campaign is one journaled Invoke call: the invocations plus the
// wall-clock end of the longest window, after which re-driving it to
// recovered peers is pointless.
type campaign struct {
	serial uint64
	invs   []Invocation
	end    time.Time
}

// ControllerOptions configures a Controller. AS, Name, Dir and Topo
// are always required, plus exactly one I/O binding: Sim+Node for
// simulation mode, or Conn+Runtime for service mode. Everything else
// has a usable zero value. A validation failure names the offending
// field.
type ControllerOptions struct {
	AS   topology.ASN
	Name string
	// Sim is the simulator the controller schedules on; Node must be a
	// dedicated netsim node — its handler is taken over. Both are
	// required in simulation mode (Conn nil) and ignored otherwise.
	Sim  *netsim.Simulator
	Node *netsim.Node
	// Conn and Runtime bind the controller to a real transport and the
	// wall clock instead of a simulator (service mode). The host owns
	// serialization: Runtime callbacks and HandleFrame must never run
	// concurrently with each other or with API calls.
	Conn    FrameSender
	Runtime Runtime
	Dir     *Directory
	// Topo is the RPKI ownership oracle.
	Topo *topology.Topology
	// Config tunes protocol behaviour (DefaultConfig when zero values
	// are not intended, pass explicitly).
	Config Config
	// Seed drives all randomized delays and key generation
	// deterministically.
	Seed int64
	// Identity overrides the rng-derived securechan identity; service
	// mode passes a persistent identity so peers can pin the public key
	// out of band. Nil derives one from Seed.
	Identity *securechan.Identity
	// Registry receives the controller's metrics and trace events; nil
	// falls back to Config.Registry, then to the simulator's registry.
	// In service mode one of the first two must be set.
	Registry *obs.Registry
	// Scope prefixes the controller's metric names (e.g. "as7."
	// publishes "as7.ctrl.msgs_sent"). Empty derives "as<N>." from AS.
	Scope string
}

// NewControllerWithOptions creates a controller from an options struct.
func NewControllerWithOptions(o ControllerOptions) (*Controller, error) {
	if o.Name == "" {
		return nil, optErr("ControllerOptions", "Name", "required")
	}
	if o.Dir == nil {
		return nil, optErr("ControllerOptions", "Dir", "required")
	}
	if o.Topo == nil {
		return nil, optErr("ControllerOptions", "Topo", "required")
	}
	if o.Conn == nil {
		if o.Sim == nil {
			return nil, optErr("ControllerOptions", "Sim", "required in simulation mode (Conn nil)")
		}
		if o.Node == nil {
			return nil, optErr("ControllerOptions", "Node", "required in simulation mode (Conn nil)")
		}
		if o.Runtime != nil {
			return nil, optErr("ControllerOptions", "Runtime", "set without Conn: bind both or neither")
		}
	} else if o.Runtime == nil {
		return nil, optErr("ControllerOptions", "Runtime", "required in service mode (Conn set)")
	}
	rng := rand.New(rand.NewSource(o.Seed))
	id := o.Identity
	if id == nil {
		var err error
		id, err = securechan.NewIdentity(o.Name, rng)
		if err != nil {
			return nil, err
		}
	}
	reg := o.Registry
	if reg == nil {
		reg = o.Config.Registry
	}
	if reg == nil && o.Sim != nil {
		reg = o.Sim.Registry()
	}
	if reg == nil {
		return nil, optErr("ControllerOptions", "Registry", "required in service mode (no simulator to fall back to)")
	}
	scope := o.Scope
	if scope == "" {
		scope = fmt.Sprintf("as%d.", o.AS)
	}
	if o.Config.TraceCapacity > 0 {
		reg.SetTraceCapacity(o.Config.TraceCapacity)
	}
	c := &Controller{
		AS: o.AS, name: o.Name,
		conn: o.Conn, rt: o.Runtime,
		id: id, dir: o.Dir, topo: o.Topo,
		rng: rng, cfg: o.Config,
		blacklist:   make(map[topology.ASN]bool),
		peers:       make(map[topology.ASN]*peerState),
		resumeCache: make(map[topology.ASN][16]byte),
		reg:         reg,
		scope:       scope,
		m:           newCtrlMetrics(reg.Scope(scope)),
		trace:       reg.Tracer(),
	}
	var dirNode *netsim.Node
	if o.Conn == nil {
		c.sim, c.node = o.Sim, o.Node
		c.conn, c.rt = simConn{c}, nodeRuntime{o.Node}
		o.Node.SetHandler(netsim.HandlerFunc(c.receive))
		dirNode = o.Node
	}
	if err := o.Dir.Register(&DirEntry{Name: o.Name, ASN: o.AS, Pub: id.Public(), node: dirNode}); err != nil {
		return nil, err
	}
	return c, nil
}

// Stats returns the controller's unified metrics snapshot, with the
// scope prefix trimmed so keys read "ctrl.msgs_sent" regardless of
// which AS the controller serves. It replaces the removed public
// counter fields.
func (c *Controller) Stats() obs.Snapshot {
	return c.reg.SnapshotPrefix(c.scope+"ctrl.", c.scope)
}

// setStatus centralizes peer-status transitions: it maintains the
// peers_established gauge and emits the matching trace event, so every
// lifecycle change is observable from one place.
func (c *Controller) setStatus(p *peerState, s PeerStatus) {
	if p.status == s {
		return
	}
	if p.status == peerEstablished {
		c.m.peersEstablished.Add(-1)
	}
	p.status = s
	kind := ""
	switch s {
	case peerDiscovered:
		kind = obs.EvPeerDiscovered
	case peerRequested:
		kind = obs.EvPeerRequested
	case peerEstablished:
		kind = obs.EvPeerEstablished
		c.m.peersEstablished.Add(1)
	case peerRejected:
		kind = obs.EvPeerRejected
	case peerDead:
		kind = obs.EvPeerDead
	}
	c.trace.Emit(obs.Event{Kind: kind, AS: uint32(c.AS), Peer: uint32(p.asn)})
}

// newPeer creates and registers peer state in Discovered status.
func (c *Controller) newPeer(asn topology.ASN, ctrlName string) *peerState {
	p := &peerState{asn: asn, ctrlName: ctrlName, status: peerDiscovered}
	c.peers[asn] = p
	c.trace.Emit(obs.Event{Kind: obs.EvPeerDiscovered, AS: uint32(c.AS), Peer: uint32(asn)})
	return p
}

// AttachRouter registers a local border router with the controller.
func (c *Controller) AttachRouter(r *BorderRouter) {
	c.routers = append(c.routers, r)
	r.OnAlarm = c.handleAlarmSample
}

// Ad returns this DAS's DISCS advertisement.
func (c *Controller) ad() bgp.DISCSAd { return bgp.DISCSAd{Origin: c.AS, Controller: c.name} }

// PeerStatusOf returns the peering status toward asn.
func (c *Controller) PeerStatusOf(asn topology.ASN) (PeerStatus, bool) {
	p, ok := c.peers[asn]
	if !ok {
		return 0, false
	}
	return p.status, true
}

// Peers returns the ASNs of established peers, sorted.
func (c *Controller) Peers() []topology.ASN {
	var out []topology.ASN
	for asn, p := range c.peers {
		if p.status == peerEstablished {
			out = append(out, asn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// now converts the runtime clock to the wall-clock domain used by the
// data-plane tables. In simulations it reads the node clock, not the
// global simulator clock: the two can differ by up to one lookahead
// window while an event executes.
func (c *Controller) now() time.Time { return time.Unix(0, 0).UTC().Add(c.rt.Now()) }

// after arms a runtime timer. In simulations timers are node-scoped:
// crashing the controller kills them, as a real process crash would.
// All controller timers go through this (or the background variants)
// so crash leaves nothing armed.
func (c *Controller) after(d time.Duration, fn func()) { c.rt.After(d, fn) }

// crash models a controller process crash: the netsim node goes down
// (in-flight frames toward it are discarded, every armed timer dies)
// and all in-memory state is lost — peering state machines, secure
// sessions, alarm counters. What survives is what a real deployment
// persists to disk: the resumption-secret cache (§VI-C's SSL session
// cache) and the campaign journal. Border routers are separate boxes:
// their key and function tables keep enforcing installed windows.
func (c *Controller) crash() {
	if c.node != nil {
		c.node.Crash()
	}
	c.m.crashes.Inc()
	c.m.peersEstablished.Set(0)
	c.trace.Emit(obs.Event{Kind: obs.EvCtrlCrash, AS: uint32(c.AS)})
	c.peers = make(map[topology.ASN]*peerState)
	c.alarmTimes = nil
	c.purgeArmed = false
}

// restart brings a crashed controller back up with empty volatile
// state. Rediscovery is driven by the BGP layer replaying known
// DISCS-Ads (System.Restart does that); peerings then re-establish
// over the abbreviated resumption handshake and active campaigns are
// re-driven from the journal.
func (c *Controller) restart() {
	if c.node != nil {
		c.node.Restart()
	}
	c.trace.Emit(obs.Event{Kind: obs.EvCtrlRestart, AS: uint32(c.AS)})
	if c.anyTableEntries() {
		c.armPurge()
	}
}

func (c *Controller) anyTableEntries() bool {
	for _, r := range c.routers {
		for _, ft := range r.Tables.In {
			if ft.numPrefixes() > 0 {
				return true
			}
		}
	}
	return false
}

// HandleAd implements step 1+2 of §IV: upon seeing a DISCS-Ad, check
// the blacklist and schedule a peering request after a random delay.
func (c *Controller) HandleAd(ad bgp.DISCSAd) {
	if ad.Origin == c.AS {
		return
	}
	c.m.adsSeen.Inc()
	if c.blacklist[ad.Origin] {
		return
	}
	p, exists := c.peers[ad.Origin]
	if exists && p.status != peerRejected {
		// Controller name change: update the pointer but keep state.
		p.ctrlName = ad.Controller
		// A reappearing Ad is evidence the peer's control plane is
		// alive: refresh the retry budget so a state machine that gave
		// up after MaxRetries gets to try again.
		p.retries = 0
		if p.status == peerDead {
			// The peer is back from the dead: re-run discovery.
			c.setStatus(p, peerDiscovered)
			c.after(c.peeringDelay(), func() { c.sendPeeringRequest(p) })
			return
		}
		if c.stalled(p) {
			c.armRetry(p)
		}
		return
	}
	p = c.newPeer(ad.Origin, ad.Controller)
	c.after(c.peeringDelay(), func() { c.sendPeeringRequest(p) })
}

// peeringDelay draws the §IV-C randomized delay before a peering
// request.
func (c *Controller) peeringDelay() time.Duration {
	return time.Duration(c.rng.Int63n(int64(c.cfg.PeeringDelayMax) + 1))
}

func (c *Controller) sendPeeringRequest(p *peerState) {
	if p.status != peerDiscovered {
		return
	}
	c.setStatus(p, peerRequested)
	c.m.peeringRequestsSent.Inc()
	c.sendMsg(p, &controlMsg{Type: msgPeeringRequest, From: c.AS})
}

// --- transport ----------------------------------------------------------

// linkTo finds or creates the on-demand link to a peer controller
// node; it stands in for the routed Internet path between controllers.
// System.Deploy preconnects the mesh, so the lazy Connect below only
// runs for controllers built outside a System.
func (c *Controller) linkTo(node *netsim.Node) *netsim.Link {
	if l := c.node.LinkTo(node); l != nil {
		return l
	}
	l, err := c.sim.Connect(c.node, node, c.cfg.CtrlLinkDelay)
	if err != nil {
		return nil
	}
	return l
}

// sendMsg encodes and sends a control message to the peer, running the
// secure-channel handshake first if needed. Messages queue during the
// handshake, and a retry timer re-drives the exchange if it stalls
// (e.g. frames lost to a flapping link).
func (c *Controller) sendMsg(p *peerState, m *controlMsg) {
	c.send(p, m)
	c.armRetry(p)
}

// send encodes m and sends it (or queues it behind the handshake)
// without arming the retry timer. The encoding goes to the controller's
// reused buffer, so a sealed message costs only its record.
func (c *Controller) send(p *peerState, m *controlMsg) {
	data, err := m.appendBinary(c.encBuf[:0])
	if err != nil {
		panic("core: control message encode failed: " + err.Error())
	}
	c.encBuf = data[:0]
	if p.out != nil {
		c.sendRecord(p, p.out.Seal(data))
		return
	}
	p.pendingOut = append(p.pendingOut, bytes.Clone(data))
	c.startHandshake(p, false)
}

// startHandshake opens the con-con transport toward p unless one is
// already in flight. With a cached resumption secret the abbreviated
// exchange is tried first (§VI-C); full forces the asymmetric
// handshake (used after the peer rejected a resumption).
func (c *Controller) startHandshake(p *peerState, full bool) {
	if p.initiator != nil || p.resumer != nil {
		return // handshake already in flight
	}
	if !full {
		if secret, ok := c.resumeCache[p.asn]; ok {
			res, err := securechan.NewResumer(secret, c.rng)
			if err == nil {
				p.resumer = res
				c.m.resumesInitiated.Inc()
				c.trace.Emit(obs.Event{Kind: obs.EvHandshakeResume, AS: uint32(c.AS), Peer: uint32(p.asn)})
				c.sendFrame(p, frameResumeHello, res.Hello())
				return
			}
		}
	}
	ent := c.dir.Lookup(p.ctrlName)
	if ent == nil {
		return // controller unknown; Ad will refresh the name
	}
	ini, err := securechan.NewInitiator(c.id, ent.Pub, c.rng)
	if err != nil {
		return
	}
	p.initiator = ini
	c.m.handshakesInitiated.Inc()
	c.trace.Emit(obs.Event{Kind: obs.EvHandshakeFull, AS: uint32(c.AS), Peer: uint32(p.asn)})
	c.sendFrame(p, frameHello, ini.Hello())
}

// stalled reports whether the peer state machine is waiting on remote
// progress that a lost frame could block forever.
func (c *Controller) stalled(p *peerState) bool {
	if p.status == peerRejected || p.status == peerDead {
		// Dead peers are the reconnect prober's job, not the retry
		// timer's.
		return false
	}
	if len(p.pendingOut) > 0 && p.out == nil {
		return true // handshake in flight (or dead)
	}
	if p.status == peerRequested {
		return true // request unanswered
	}
	if p.status == peerEstablished && p.stampKey != nil && !p.stampActive {
		return true // key deploy unacked
	}
	if p.status == peerEstablished && c.unackedCampaign(p) {
		return true // invoke unacked
	}
	return false
}

// unackedCampaign reports whether a still-live campaign was sent to p
// but never acknowledged (the invoke or its ack was lost).
func (c *Controller) unackedCampaign(p *peerState) bool {
	if p.campaignAcked >= p.campaignSeen {
		return false
	}
	now := c.now()
	for _, cp := range c.campaigns {
		if cp.serial > p.campaignAcked && cp.serial <= p.campaignSeen && now.Before(cp.end) {
			return true
		}
	}
	return false
}

func (c *Controller) armRetry(p *peerState) {
	if p.retryArmed || c.cfg.RetryInterval <= 0 || p.retries >= c.cfg.MaxRetries {
		return
	}
	p.retryArmed = true
	c.after(c.retryDelay(), func() { c.retry(p) })
}

// retryDelay is RetryInterval plus a seeded uniform jitter in
// [0, RetryJitter], desynchronizing the retries of DASes that lost
// frames to the same outage (the §IV-C request-storm argument).
func (c *Controller) retryDelay() time.Duration {
	d := c.cfg.RetryInterval
	if c.cfg.RetryJitter > 0 {
		d += time.Duration(c.rng.Int63n(int64(c.cfg.RetryJitter) + 1))
	}
	return d
}

// retry re-drives a stalled exchange: it abandons any half-open
// session, restarts the handshake, and re-sends the idempotent
// state-machine messages (peering request / key deploy).
func (c *Controller) retry(p *peerState) {
	p.retryArmed = false
	if !c.stalled(p) {
		p.retries = 0
		return
	}
	p.retries++
	c.m.retries.Inc()
	// Restart transport: a fresh handshake replaces any wedged session.
	p.initiator = nil
	p.resumer = nil
	p.out = nil
	p.pendingOut = nil
	if p.status == peerRequested {
		c.send(p, &controlMsg{Type: msgPeeringRequest, From: c.AS})
	}
	if p.status == peerEstablished && p.stampKey != nil && !p.stampActive {
		c.send(p, &controlMsg{
			Type: msgKeyDeploy, From: c.AS, Key: p.stampKey, Serial: p.stampSerial,
		})
	}
	if p.status == peerEstablished && c.unackedCampaign(p) {
		now := c.now()
		for _, cp := range c.campaigns {
			if cp.serial > p.campaignAcked && cp.serial <= p.campaignSeen && now.Before(cp.end) {
				c.send(p, &controlMsg{
					Type: msgInvoke, From: c.AS, Invocations: cp.invs, Serial: cp.serial,
				})
			}
		}
	}
	c.armRetry(p)
}

// sendFrame pushes one control frame toward p over the I/O seam.
// Delivery is best-effort (false from Send mirrors a frame dropped on
// a netsim link); the retry machinery owns recovery.
func (c *Controller) sendFrame(p *peerState, kind frameKind, data []byte) {
	if c.conn.Send(p.ctrlName, transport.Frame{Kind: uint8(kind), From: c.name, Data: data}) {
		c.m.msgsSent.Inc()
	}
}

func (c *Controller) sendRecord(p *peerState, record []byte) {
	c.sendFrame(p, frameRecord, record)
}

// receive dispatches incoming controller frames in simulation mode; it
// is the netsim node handler. Service mode enters the same dispatch
// through HandleFrame.
func (c *Controller) receive(_ *netsim.Node, _ *netsim.Link, msg netsim.Message) {
	f, ok := msg.(*ctrlFrame)
	if !ok {
		return
	}
	c.handleFrame(f.Kind, f.From, f.Data)
}

// handleFrame is the transport-independent inbound dispatch: one frame
// from the named peer controller, already deframed by the host.
func (c *Controller) handleFrame(kind frameKind, from string, data []byte) {
	c.m.msgsRecv.Inc()
	ent := c.dir.Lookup(from)
	if ent == nil {
		return
	}
	p := c.peers[ent.ASN]
	switch kind {
	case frameHello:
		// Respond even if we have not yet decided to peer: transport
		// security is independent of the peering policy decision.
		if p == nil {
			p = c.newPeer(ent.ASN, from)
		}
		reply, sess, err := securechan.Respond(c.id, ent.Pub, data, c.rng)
		if err != nil {
			return
		}
		c.m.handshakesResponded.Inc()
		sess.SetMeter(c.m.bytesSealed, c.m.bytesOpened)
		p.in = sess
		// Cache the resumption secret from full handshakes only: both
		// ends of one handshake cache the same value, so later
		// abbreviated exchanges agree (§VI-C session cache).
		c.resumeCache[ent.ASN] = sess.ResumptionSecret()
		c.sendFrame(p, frameReply, reply)
	case frameReply:
		if p == nil || p.initiator == nil {
			return
		}
		sess, err := p.initiator.Finish(data)
		if err != nil {
			// A stale or forged reply (e.g. for a handshake we already
			// abandoned): keep waiting for the right one.
			return
		}
		p.initiator = nil
		sess.SetMeter(c.m.bytesSealed, c.m.bytesOpened)
		p.out = sess
		c.resumeCache[p.asn] = sess.ResumptionSecret()
		for _, d := range p.pendingOut {
			c.sendRecord(p, p.out.Seal(d))
		}
		p.pendingOut = nil
	case frameResumeHello:
		if p == nil {
			p = c.newPeer(ent.ASN, from)
		}
		secret, ok := c.resumeCache[ent.ASN]
		if !ok {
			// Secret stale (lost with a crash that predates the cache
			// entry, or never established): make the peer fall back.
			c.sendFrame(p, frameResumeReject, nil)
			return
		}
		reply, sess, err := securechan.ResumeRespond(secret, data, c.rng)
		if err != nil {
			c.sendFrame(p, frameResumeReject, nil)
			return
		}
		c.m.resumesResponded.Inc()
		sess.SetMeter(c.m.bytesSealed, c.m.bytesOpened)
		p.in = sess
		c.sendFrame(p, frameResumeReply, reply)
	case frameResumeReply:
		if p == nil || p.resumer == nil {
			return
		}
		sess, err := p.resumer.Finish(data)
		if err != nil {
			return // corrupted or forged; retry machinery re-drives
		}
		p.resumer = nil
		sess.SetMeter(c.m.bytesSealed, c.m.bytesOpened)
		p.out = sess
		for _, d := range p.pendingOut {
			c.sendRecord(p, p.out.Seal(d))
		}
		p.pendingOut = nil
	case frameResumeReject:
		if p == nil || p.resumer == nil {
			return
		}
		// The peer no longer holds the secret: drop ours and run the
		// full handshake, which refreshes the cache on both ends.
		p.resumer = nil
		delete(c.resumeCache, p.asn)
		c.m.resumeFallbacks.Inc()
		c.trace.Emit(obs.Event{Kind: obs.EvResumeFallback, AS: uint32(c.AS), Peer: uint32(p.asn)})
		if len(p.pendingOut) > 0 {
			c.startHandshake(p, true)
		}
	case frameRecord:
		if p == nil || p.in == nil {
			return
		}
		plain, err := p.in.Open(data)
		if err != nil {
			return
		}
		var m controlMsg
		if m.decode(plain) != nil {
			return
		}
		c.handleMsg(p, &m)
	}
}

// --- control-plane state machine -----------------------------------------

func (c *Controller) handleMsg(p *peerState, m *controlMsg) {
	if m.From != p.asn {
		return // sender identity must match the authenticated channel
	}
	// Any authenticated message proves the peer alive.
	c.markAlive(p)
	switch m.Type {
	case msgPeeringRequest:
		c.m.peeringRequestsRecvd.Inc()
		if c.blacklist[p.asn] {
			c.setStatus(p, peerRejected)
			c.sendMsg(p, &controlMsg{Type: msgPeeringReject, From: c.AS, Reason: "blacklisted"})
			return
		}
		if p.status == peerEstablished {
			// A peer we consider established does not re-request peering
			// unless it lost its state: it declared us dead (purging its
			// inbound session and our keys) or crashed and restarted.
			// Our outbound session and deployed key are stale on its side
			// — keeping them would livelock: we would keep sending
			// records it cannot decrypt while happily receiving its.
			// Reset the transport and re-drive keys and campaigns.
			p.out, p.initiator, p.resumer = nil, nil, nil
			p.pendingOut = nil
			p.stampActive = false
			p.campaignSeen, p.campaignAcked = 0, 0
		}
		c.setStatus(p, peerEstablished)
		c.sendMsg(p, &controlMsg{Type: msgPeeringAccept, From: c.AS})
		c.armHeartbeat(p)
		c.negotiateKey(p)
	case msgPeeringAccept:
		if p.status == peerRequested {
			c.setStatus(p, peerEstablished)
			c.armHeartbeat(p)
			c.negotiateKey(p)
		}
	case msgPeeringReject:
		c.setStatus(p, peerRejected)
	case msgKeyDeploy:
		c.handleKeyDeploy(p, m)
	case msgKeyAck:
		c.handleKeyAck(p, m)
	case msgInvoke:
		c.handleInvoke(p, m)
	case msgInvokeAck:
		c.m.invokesAccepted.Inc()
		c.trace.Emit(obs.Event{Kind: obs.EvCampaignAck, AS: uint32(c.AS), Peer: uint32(p.asn), Serial: m.Serial})
		if m.Serial > p.campaignAcked {
			p.campaignAcked = m.Serial
		}
	case msgInvokeReject:
		c.m.invokesRejected.Inc()
		// A rejection settles the exchange too: retrying a request the
		// peer refuses would loop forever.
		if m.Serial > p.campaignAcked {
			p.campaignAcked = m.Serial
		}
	case msgQuitAlarm:
		if p.status == peerEstablished {
			for _, r := range c.routers {
				r.SetAlarmMode(false)
			}
		}
	case msgHeartbeat:
		if p.status == peerEstablished {
			// Answer outside sendMsg: keepalives must not arm retry
			// timers (liveness has its own clock).
			c.send(p, &controlMsg{Type: msgHeartbeatAck, From: c.AS})
		}
	case msgHeartbeatAck:
		// markAlive above already did the work.
	}
}

// --- liveness (heartbeats, dead-peer detection, recovery) -----------------

func (c *Controller) markAlive(p *peerState) {
	p.lastSeen = c.rt.Now() // node clock: exact in the executing lane
	p.missed = 0
}

// armHeartbeat starts the keepalive loop toward an established peer.
// The loop runs on background events: it keeps a live deployment
// ticking without preventing run-to-quiescence tests from settling.
func (c *Controller) armHeartbeat(p *peerState) {
	if p.hbArmed || c.cfg.HeartbeatInterval <= 0 {
		return
	}
	p.hbArmed = true
	c.markAlive(p)
	c.rt.AfterBackground(c.cfg.HeartbeatInterval, func() { c.heartbeatTick(p) })
}

func (c *Controller) heartbeatTick(p *peerState) {
	if p.status != peerEstablished {
		p.hbArmed = false
		return
	}
	if c.rt.Now()-p.lastSeen >= c.cfg.HeartbeatInterval {
		p.missed++
		c.m.heartbeatMisses.Inc()
		c.trace.Emit(obs.Event{Kind: obs.EvHeartbeatMiss, AS: uint32(c.AS), Peer: uint32(p.asn)})
		if c.cfg.DeadAfterMisses > 0 && p.missed >= c.cfg.DeadAfterMisses {
			p.hbArmed = false
			c.declarePeerDead(p)
			return
		}
	}
	c.m.heartbeatsSent.Inc()
	c.send(p, &controlMsg{Type: msgHeartbeat, From: c.AS})
	if p.out == nil {
		// The keepalive queued behind a handshake. If that handshake's
		// frames were lost nothing else may be scheduled to re-drive it —
		// arm the retry timer so the channel cannot wedge silently until
		// the peer declares us dead.
		c.armRetry(p)
	}
	c.rt.AfterBackground(c.cfg.HeartbeatInterval, func() { c.heartbeatTick(p) })
}

// declarePeerDead executes graceful degradation: the peer's key state
// is purged from every router (stamping toward a dead DAS buys nothing
// and verification against it would drop legitimate unstamped
// traffic), the function-table entries it requested are withdrawn to
// free table slots, and the secure sessions are torn down. A
// reconnection prober then takes over from the heartbeat loop.
func (c *Controller) declarePeerDead(p *peerState) {
	c.setStatus(p, peerDead)
	c.m.peersDeclaredDead.Inc()
	for _, r := range c.routers {
		r.Tables.Keys.removePeer(p.asn)
	}
	var withdraw tableBatch
	for e := range p.installed {
		withdraw[e.table] = append(withdraw[e.table], tableChange{pfx: e.pfx, op: e.op, remove: true})
	}
	c.applyTables(&withdraw)
	p.installed = nil
	p.out, p.in = nil, nil
	p.initiator, p.resumer = nil, nil
	p.pendingOut = nil
	p.stampKey = nil
	p.stampActive = false
	p.verifySeen = 0
	p.retries = 0
	p.missed = 0
	p.campaignSeen = 0
	p.campaignAcked = 0
	c.armReconnect(p)
}

// armReconnect schedules a re-peering probe toward a dead (or stuck)
// peer, paced by ReconnectInterval plus up to 50% jitter.
func (c *Controller) armReconnect(p *peerState) {
	if p.probeArmed || c.cfg.ReconnectInterval <= 0 {
		return
	}
	p.probeArmed = true
	d := c.cfg.ReconnectInterval +
		time.Duration(c.rng.Int63n(int64(c.cfg.ReconnectInterval)/2+1))
	c.rt.AfterBackground(d, func() { c.reconnectTick(p) })
}

// reconnectTick probes a dead peer: the peering request doubles as the
// liveness probe — a restarted peer answers it and the normal
// establishment path (resumption handshake, key negotiation, campaign
// resync) takes it from there. Each probe gets a fresh retry budget.
func (c *Controller) reconnectTick(p *peerState) {
	p.probeArmed = false
	switch p.status {
	case peerEstablished, peerRejected:
		return // recovered (or a policy decision ended the peering)
	case peerDead:
		c.setStatus(p, peerDiscovered)
		p.retries = 0
		c.sendPeeringRequest(p)
	case peerDiscovered:
		p.retries = 0
		c.sendPeeringRequest(p)
	case peerRequested:
		p.retries = 0
		c.send(p, &controlMsg{Type: msgPeeringRequest, From: c.AS})
	}
	c.armReconnect(p)
}

// --- key negotiation (§IV-D) ---------------------------------------------

// negotiateKey generates key_{c.AS, peer} and deploys it to the peer.
func (c *Controller) negotiateKey(p *peerState) {
	key := make([]byte, 16)
	c.rng.Read(key)
	p.stampSerial++
	p.stampKey = key
	p.stampActive = false
	c.sendMsg(p, &controlMsg{Type: msgKeyDeploy, From: c.AS, Key: key, Serial: p.stampSerial})
}

// establishedPeers returns established peer states in ascending ASN
// order. Every fan-out walks peers through this: map iteration order
// would otherwise leak into send order, RNG draw order and therefore
// the whole fault schedule, breaking the determinism contract.
func (c *Controller) establishedPeers() []*peerState {
	var out []*peerState
	for _, p := range c.peers {
		if p.status == peerEstablished {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].asn < out[j].asn })
	return out
}

func (c *Controller) handleKeyDeploy(p *peerState, m *controlMsg) {
	if p.status != peerEstablished {
		return
	}
	if m.Serial == p.verifySeen {
		// Duplicate (retransmission): the earlier ack was lost, re-ack.
		c.sendMsg(p, &controlMsg{Type: msgKeyAck, From: c.AS, Serial: m.Serial})
		return
	}
	// Any other serial — higher or lower — is a genuine new deploy: a
	// crashed controller restarts its serial counter at 1, and the
	// con-con channel is replay-protected, so a regressed serial cannot
	// be a replayed old deploy.
	p.verifySeen = m.Serial
	c.trace.Emit(obs.Event{Kind: obs.EvKeyDeploy, AS: uint32(c.AS), Peer: uint32(p.asn), Serial: m.Serial})
	// Deploy to all local border routers as the verification key for
	// packets from this peer. The previous key stays valid for the
	// rekey overlap window, whose timer drops exactly the key this
	// deploy demoted: if a newer deploy lands first, the previous key is
	// by then the one the peer stamps with until our ack reaches it, and
	// it gets an overlap of its own.
	demoted := make([]*cmac.CMAC, len(c.routers))
	for i, r := range c.routers {
		var err error
		if demoted[i], err = r.Tables.Keys.setVerifyKey(p.asn, m.Key); err != nil {
			return
		}
	}
	peer := p.asn
	routers := c.routers
	c.after(c.cfg.RekeyOverlap, func() {
		for i, r := range routers {
			r.Tables.Keys.dropVerifyKey(peer, demoted[i])
		}
	})
	c.sendMsg(p, &controlMsg{Type: msgKeyAck, From: c.AS, Serial: m.Serial})
}

func (c *Controller) handleKeyAck(p *peerState, m *controlMsg) {
	if m.Serial != p.stampSerial || p.stampKey == nil {
		return
	}
	// Peer finished deploying: switch stamping to the new key.
	for _, r := range c.routers {
		r.Tables.Keys.SetStampKey(p.asn, p.stampKey)
	}
	p.stampActive = true
	p.retries = 0
	c.trace.Emit(obs.Event{Kind: obs.EvKeyActive, AS: uint32(c.AS), Peer: uint32(p.asn), Serial: m.Serial})
	// Keys active means the peer can enforce: re-drive any campaign it
	// has not seen (it just restarted, or we did).
	c.resyncCampaigns(p)
}

// resyncCampaigns sends the still-active journaled invocations this
// peer has not executed yet — the tail end of crash recovery: after
// re-peering and key deployment the interrupted defense campaign
// resumes without operator action.
func (c *Controller) resyncCampaigns(p *peerState) {
	now := c.now()
	for i := range c.campaigns {
		cp := &c.campaigns[i]
		if cp.serial <= p.campaignAcked || !now.Before(cp.end) {
			continue
		}
		c.sendMsg(p, &controlMsg{Type: msgInvoke, From: c.AS, Invocations: cp.invs, Serial: cp.serial})
		p.campaignSeen = cp.serial
		c.m.campaignResyncs.Inc()
		c.trace.Emit(obs.Event{Kind: obs.EvCampaignResync, AS: uint32(c.AS), Peer: uint32(p.asn), Serial: cp.serial})
	}
}

// KeysReadyWith reports whether stamping toward peer is active (the
// peer deployed our key) — useful for tests and readiness checks.
func (c *Controller) KeysReadyWith(peer topology.ASN) bool {
	p := c.peers[peer]
	return p != nil && p.stampActive
}

// --- invocation (§IV-E) ----------------------------------------------------

// purgeExpired removes fully expired function-table entries from all
// local routers (§IV-E1 windows are lazy-expiring; this reclaims the
// table slots). It returns the number of prefixes removed. Controllers
// run it opportunistically on every invocation and periodically from
// the event loop (armPurge).
func (c *Controller) purgeExpired() int {
	now := c.now()
	total := 0
	for _, r := range c.routers {
		for _, ft := range r.Tables.In {
			total += ft.purge(now)
		}
	}
	return total
}

// armPurge schedules the periodic purge sweep. It runs on background
// events (housekeeping must not keep the simulator from settling) and
// re-arms itself only while any function table still has entries, so
// an idle controller stops sweeping.
func (c *Controller) armPurge() {
	if c.purgeArmed || c.cfg.PurgeInterval <= 0 {
		return
	}
	c.purgeArmed = true
	c.rt.AfterBackground(c.cfg.PurgeInterval, func() { c.purgeTick() })
}

func (c *Controller) purgeTick() {
	c.purgeArmed = false
	c.m.purged.Add(uint64(c.purgeExpired()))
	if c.anyTableEntries() {
		c.armPurge()
	}
}

// Invoke requests protection: the victim DAS validates that it owns
// the prefixes, installs its own operations, and asks every
// established peer to execute the peer-side operations. It returns the
// number of peers asked.
func (c *Controller) Invoke(invs ...Invocation) (int, error) {
	c.purgeExpired()
	for _, inv := range invs {
		if err := inv.validate(); err != nil {
			return 0, err
		}
		for _, pfx := range inv.Prefixes {
			owner, ok := c.topo.OwnerOfPrefix(pfx)
			if !ok || owner != c.AS {
				return 0, fmt.Errorf("core: prefix %v not owned by AS%d", pfx, c.AS)
			}
		}
	}
	now := c.now()
	// Victim-side operations.
	var local tableBatch
	for _, inv := range invs {
		for _, row := range anatomy[inv.Function] {
			if row.AtPeer {
				continue
			}
			for _, pfx := range inv.Prefixes {
				local.install(row.Table, pfx, row.Op, now, inv.Duration, c.cfg.Grace)
			}
		}
	}
	if err := c.applyTables(&local); err != nil {
		return 0, err
	}
	// Journal the campaign so peers that die and recover mid-window (or
	// re-peer after our own crash) get it re-driven.
	end := now
	for _, inv := range invs {
		if e := now.Add(inv.Duration + c.cfg.Grace); e.After(end) {
			end = e
		}
	}
	c.campaignSerial++
	c.campaigns = append(c.campaigns, campaign{serial: c.campaignSerial, invs: invs, end: end})
	c.pruneCampaigns(now)
	// Peer-side request.
	n := 0
	msg := &controlMsg{Type: msgInvoke, From: c.AS, Invocations: invs, Serial: c.campaignSerial}
	for _, p := range c.establishedPeers() {
		c.sendMsg(p, msg)
		p.campaignSeen = c.campaignSerial
		n++
	}
	c.m.invokesSent.Inc()
	c.trace.Emit(obs.Event{Kind: obs.EvCampaignInvoke, AS: uint32(c.AS), Serial: c.campaignSerial})
	c.armPurge()
	return n, nil
}

// pruneCampaigns drops journal entries whose windows have fully ended.
func (c *Controller) pruneCampaigns(now time.Time) {
	kept := c.campaigns[:0]
	for _, cp := range c.campaigns {
		if now.Before(cp.end) {
			kept = append(kept, cp)
		}
	}
	c.campaigns = kept
}

// handleInvoke executes the peer side of an invocation after the RPKI
// ownership check (§IV-E3: "peer DASes check the ownership of the
// prefixes, and accept the request only if they belong to the victim").
func (c *Controller) handleInvoke(p *peerState, m *controlMsg) {
	c.purgeExpired()
	if p.status != peerEstablished {
		// Serial 0: a not-yet-a-peer reject is transient — it must not
		// settle the campaign at the sender, which re-drives it once the
		// peering establishes.
		c.sendMsg(p, &controlMsg{Type: msgInvokeReject, From: c.AS, Reason: "not a peer"})
		return
	}
	for _, inv := range m.Invocations {
		if err := inv.validate(); err != nil {
			c.sendMsg(p, &controlMsg{Type: msgInvokeReject, From: c.AS, Serial: m.Serial, Reason: err.Error()})
			return
		}
		for _, pfx := range inv.Prefixes {
			owner, ok := c.topo.OwnerOfPrefix(pfx)
			if !ok || owner != m.From {
				c.sendMsg(p, &controlMsg{Type: msgInvokeReject, From: c.AS, Serial: m.Serial,
					Reason: fmt.Sprintf("prefix %v not owned by AS%d", pfx, m.From)})
				return
			}
		}
	}
	now := c.now()
	var peerSide tableBatch
	for _, inv := range m.Invocations {
		for _, row := range anatomy[inv.Function] {
			if !row.AtPeer {
				continue
			}
			for _, pfx := range inv.Prefixes {
				peerSide.install(row.Table, pfx, row.Op, now, inv.Duration, c.cfg.Grace)
				c.recordInstall(p, row.Table, pfx, row.Op)
			}
		}
		if inv.Alarm {
			for _, r := range c.routers {
				r.SetAlarmMode(true)
			}
		}
	}
	c.applyTables(&peerSide)
	c.armPurge()
	c.trace.Emit(obs.Event{Kind: obs.EvCampaignAccept, AS: uint32(c.AS), Peer: uint32(p.asn), Serial: m.Serial})
	c.sendMsg(p, &controlMsg{Type: msgInvokeAck, From: c.AS, Serial: m.Serial})
}

// recordInstall remembers a peer-requested install so declarePeerDead
// can withdraw it. Duplicates (retransmitted invokes) are collapsed.
func (c *Controller) recordInstall(p *peerState, table TableKind, pfx netip.Prefix, op Op) {
	if p.installed == nil {
		p.installed = make(map[installedEntry]struct{})
	}
	p.installed[installedEntry{table: table, pfx: pfx, op: op}] = struct{}{}
}

// tableBatch collects one control message's function-table changes,
// per table, so that each table publishes one snapshot per message.
type tableBatch [numTables][]tableChange

func (b *tableBatch) install(table TableKind, pfx netip.Prefix, op Op, start time.Time, d, grace time.Duration) {
	b[table] = append(b[table], tableChange{pfx: pfx, op: op, win: window{start: start, end: start.Add(d), grace: grace}})
}

// applyTables applies b to every local router. A change one table
// refuses holds back no other table or router; the first refusal is
// returned.
func (c *Controller) applyTables(b *tableBatch) error {
	var refused error
	for _, r := range c.routers {
		for kind, changes := range b {
			if len(changes) == 0 {
				continue
			}
			if err := r.Tables.In[TableKind(kind)].apply(changes); err != nil && refused == nil {
				refused = err
			}
		}
	}
	return refused
}

// --- alarm mode (§IV-F) -----------------------------------------------------

// AutoDefendPolicy describes the automatic reaction to a detected
// attack: which functions to invoke and for how long. This is the
// "invoke the DISCS functions automatically" path of §IV-E1 for DASes
// that use alarm mode as their detection module.
//
// When Escalate is set, the controller re-arms alarm-mode detection
// when the enforcement windows expire; if the attack is still in
// progress the next detection re-invokes with double the previous
// duration (§IV-E1: "the victim DAS can re-invoke the functions with a
// longer duration").
type AutoDefendPolicy struct {
	Functions []Function
	Duration  time.Duration
	Escalate  bool
	// MaxDuration caps escalation growth (default 7 days).
	MaxDuration time.Duration

	lastDuration time.Duration
}

// SetAlarmMode toggles alarm mode on all local routers.
func (c *Controller) SetAlarmMode(on bool) {
	for _, r := range c.routers {
		r.SetAlarmMode(on)
	}
}

// handleAlarmSample counts samples; crossing the threshold within the
// window declares an attack: local routers quit alarm mode and all
// peers are told to quit too (i.e. start dropping).
func (c *Controller) handleAlarmSample(s AlarmSample) {
	now := c.now()
	c.alarmTimes = append(c.alarmTimes, now)
	// Discard samples outside the window.
	cut := 0
	for cut < len(c.alarmTimes) && now.Sub(c.alarmTimes[cut]) > c.cfg.AlarmWindow {
		cut++
	}
	c.alarmTimes = c.alarmTimes[cut:]
	if len(c.alarmTimes) < c.cfg.AlarmThreshold {
		return
	}
	c.alarmTimes = nil
	c.m.attacksDetected.Inc()
	c.trace.Emit(obs.Event{Kind: obs.EvAttackDetected, AS: uint32(c.AS), Peer: uint32(s.SrcAS), Src: s.Src, Dst: s.Dst})
	c.SetAlarmMode(false)
	for _, p := range c.establishedPeers() {
		c.sendMsg(p, &controlMsg{Type: msgQuitAlarm, From: c.AS})
	}
	if c.AutoDefend != nil && len(c.AutoDefend.Functions) > 0 {
		pol := c.AutoDefend
		dur := pol.Duration
		if dur <= 0 {
			dur = DefaultDuration
		}
		// Escalation: each successive detection doubles the duration
		// (§IV-E1), bounded by MaxDuration.
		if pol.lastDuration > 0 {
			dur = pol.lastDuration * 2
		}
		maxDur := pol.MaxDuration
		if maxDur <= 0 {
			maxDur = 7 * 24 * time.Hour
		}
		if dur > maxDur {
			dur = maxDur
		}
		pol.lastDuration = dur
		var invs []Invocation
		for _, f := range pol.Functions {
			invs = append(invs, Invocation{Prefixes: c.OwnPrefixes(), Function: f, Duration: dur})
		}
		c.Invoke(invs...)
		if pol.Escalate {
			// Re-arm detection when enforcement lapses: if the attack
			// persists, the alarm path fires again and re-invokes.
			c.after(dur, func() { c.SetAlarmMode(true) })
		}
	}
	if c.OnAttackDetected != nil {
		c.OnAttackDetected(s.SrcAS)
	}
}

// OwnPrefixes returns the prefixes the topology assigns to this AS.
func (c *Controller) OwnPrefixes() []netip.Prefix {
	a := c.topo.AS(c.AS)
	if a == nil {
		return nil
	}
	return a.Prefixes
}
