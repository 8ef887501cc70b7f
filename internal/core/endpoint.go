package core

import (
	"time"

	"discs/internal/netsim"
	"discs/internal/transport"
)

// The controller's I/O seam. Everything a Controller asks of its host
// environment goes through two small interfaces: FrameSender (outbound
// frames toward named peer controllers) and Runtime (clock and
// timers). In simulations both are backed by the controller's netsim
// node — exactly the wiring that existed before the seam was cut — and
// in service mode (internal/service, cmd/discs-node) they are backed
// by a TCP+TLS transport and the wall clock.

// FrameSender is the outbound half of the controller's transport: it
// delivers one frame to the named peer controller, best-effort. False
// means the frame was dropped (unknown peer, link/connection down);
// the controller's retry machinery owns recovery, exactly as it does
// for frames lost inside the simulator.
type FrameSender interface {
	Send(peer string, f transport.Frame) bool
}

// Runtime is the controller's clock and timer source. Now is the
// offset from the epoch (simulated time in simulations, wall time
// since the Unix epoch in service mode). After schedules fn on the
// controller's serialized event loop; AfterBackground is its
// housekeeping variant — in simulations background events do not keep
// the simulator from settling, in service mode the two are identical.
type Runtime interface {
	Now() time.Duration
	After(d time.Duration, fn func())
	AfterBackground(d time.Duration, fn func())
}

// nodeRuntime adapts a netsim node to the Runtime seam. netsim.Time is
// an alias of time.Duration, so the adaptation is free and the event
// schedule is bit-identical to calling the node directly.
type nodeRuntime struct{ n *netsim.Node }

func (r nodeRuntime) Now() time.Duration                         { return r.n.Now() }
func (r nodeRuntime) After(d time.Duration, fn func())           { r.n.After(d, fn) }
func (r nodeRuntime) AfterBackground(d time.Duration, fn func()) { r.n.AfterBackground(d, fn) }

// simConn adapts netsim links to the FrameSender seam: a Send is one
// link delivery of a ctrlFrame, with on-demand link creation toward
// the peer's directory node — the pre-seam wiring, verbatim, so
// simulation runs stay bit-identical.
type simConn struct{ c *Controller }

func (s simConn) Send(peer string, f transport.Frame) bool {
	ent := s.c.dir.Lookup(peer)
	if ent == nil || ent.node == nil {
		return false
	}
	l := s.c.linkTo(ent.node)
	if l == nil {
		return false
	}
	return l.Send(s.c.node, &ctrlFrame{Kind: frameKind(f.Kind), From: f.From, Data: f.Data})
}

// HandleFrame feeds one inbound transport frame into the controller's
// state machine. It is the service-mode receive path — the host
// deserializes a frame off its transport and calls this under the
// controller's event-loop lock. In simulations the node handler
// (Controller.receive) performs the same dispatch.
func (c *Controller) HandleFrame(f transport.Frame) {
	c.handleFrame(frameKind(f.Kind), f.From, f.Data)
}

// IsControlFrameKind reports whether kind is one of the control-plane
// frame kinds the controller consumes. Hosts multiplexing other
// traffic (e.g. the service data plane) onto the same transport pick
// their kinds outside this range.
func IsControlFrameKind(kind uint8) bool { return kind < uint8(numFrameKinds) }
