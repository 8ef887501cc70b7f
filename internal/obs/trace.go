package obs

import (
	"net/netip"
	"sync"
)

// defaultTraceCapacity is the trace ring size when the registry is not
// configured otherwise.
const defaultTraceCapacity = 8192

// Event is one traced occurrence, stamped in simulated time. The
// struct is flat and pointer-free so recording it is a value copy —
// no allocation on the sampled data-plane path.
type Event struct {
	At   int64  `json:"t_ns"`
	Kind string `json:"kind"`
	// AS is the acting AS (the controller or router emitting the
	// event); Peer is the remote AS when the event concerns one.
	AS   uint32 `json:"as,omitempty"`
	Peer uint32 `json:"peer,omitempty"`
	// Serial carries campaign or key serials.
	Serial uint64 `json:"serial,omitempty"`
	// Verdict is the data-plane decision for sampled packet events.
	Verdict string `json:"verdict,omitempty"`
	// Src/Dst are packet addresses for sampled data-plane decisions
	// (zero Addrs marshal as "").
	Src netip.Addr `json:"src"`
	Dst netip.Addr `json:"dst"`
	// Detail is free-form context for control-plane events.
	Detail string `json:"detail,omitempty"`
}

// Control-plane and data-plane event kinds. Subsystems define no kinds
// of their own so the exported log has one vocabulary.
const (
	EvPeerDiscovered  = "peer.discovered"
	EvPeerRequested   = "peer.requested"
	EvPeerEstablished = "peer.established"
	EvPeerRejected    = "peer.rejected"
	EvPeerDead        = "peer.dead"
	EvHeartbeatMiss   = "peer.hb_miss"
	EvHandshakeFull   = "handshake.full"
	EvHandshakeResume = "handshake.resume"
	EvResumeFallback  = "handshake.fallback"
	EvKeyDeploy       = "key.deploy"
	EvKeyActive       = "key.active"
	EvCampaignInvoke  = "campaign.invoke"
	EvCampaignAccept  = "campaign.accept"
	EvCampaignAck     = "campaign.ack"
	EvCampaignResync  = "campaign.resync"
	EvCtrlCrash       = "ctrl.crash"
	EvCtrlRestart     = "ctrl.restart"
	EvAttackDetected  = "attack.detected"
	EvPacketSample    = "packet.sample"
)

// Tracer records events into a bounded ring: when full, the oldest
// event is overwritten and counted as dropped. Control-plane events
// are recorded unconditionally (they are rare); data-plane decisions
// must be sampled by the caller — see core.RouterOptions.
type Tracer struct {
	mu      sync.Mutex
	reg     *Registry
	buf     []Event
	next    int
	total   uint64 // events ever emitted
	wrapped bool
}

func newTracer(capacity int, reg *Registry) *Tracer {
	if capacity <= 0 {
		capacity = defaultTraceCapacity
	}
	return &Tracer{buf: make([]Event, capacity), reg: reg}
}

// Emit records e, stamping e.At from the registry clock when zero.
func (t *Tracer) Emit(e Event) {
	if e.At == 0 && t.reg != nil {
		e.At = t.reg.nowNanos()
	}
	t.mu.Lock()
	t.buf[t.next] = e
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.wrapped = true
	}
	t.total++
	t.mu.Unlock()
}

// dropped returns how many events were overwritten by ring wrap.
func (t *Tracer) dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		return 0
	}
	return t.total - uint64(len(t.buf))
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		return append([]Event(nil), t.buf[:t.next]...)
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	return append(out, t.buf[:t.next]...)
}
