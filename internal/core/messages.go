package core

import (
	"fmt"
	"math"
	"net/netip"
	"time"

	"discs/internal/lpm"
	"discs/internal/netsim"
	"discs/internal/snapcodec"
	"discs/internal/topology"
)

// msgType enumerates controller-to-controller messages. On the wire it
// is the message's first byte.
type msgType uint8

// Control-plane message types (§IV). Peering setup, key negotiation,
// function invocation and alarm control.
const (
	msgPeeringRequest msgType = iota + 1
	msgPeeringAccept
	msgPeeringReject
	msgKeyDeploy
	msgKeyAck
	msgInvoke
	msgInvokeAck
	msgInvokeReject
	msgQuitAlarm
	// Liveness keepalives on established peerings: any authenticated
	// traffic proves the peer alive, the heartbeat just guarantees a
	// floor on how often such traffic exists.
	msgHeartbeat
	msgHeartbeatAck

	numMsgTypes
)

var msgTypeNames = [numMsgTypes]string{
	msgPeeringRequest: "peering-request",
	msgPeeringAccept:  "peering-accept",
	msgPeeringReject:  "peering-reject",
	msgKeyDeploy:      "key-deploy",
	msgKeyAck:         "key-ack",
	msgInvoke:         "invoke",
	msgInvokeAck:      "invoke-ack",
	msgInvokeReject:   "invoke-reject",
	msgQuitAlarm:      "quit-alarm",
	msgHeartbeat:      "heartbeat",
	msgHeartbeatAck:   "heartbeat-ack",
}

func (t msgType) valid() bool { return t > 0 && t < numMsgTypes }

func (t msgType) String() string {
	if t.valid() {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Invocation is one (v, f, duration) triple of §IV-E: the prefixes to
// protect, the function to execute on them, and how long.
type Invocation struct {
	Prefixes []netip.Prefix
	Function Function
	Duration time.Duration
	// Alarm requests the peers execute the function in alarm mode
	// (§IV-F): identified packets are sampled, not dropped.
	Alarm bool
}

// minInvocationLen is the smallest encoded invocation: no prefixes and
// one byte each for the function, the duration and the alarm flag.
const minInvocationLen = 4

// writeInvocation encodes one invocation. It is the only invocation
// codec: control messages and the campaign journal both use it.
func writeInvocation(w *snapcodec.Writer, inv Invocation) {
	w.Uvarint(uint64(len(inv.Prefixes)))
	for _, p := range inv.Prefixes {
		w.Prefix(p)
	}
	w.Uvarint(uint64(inv.Function))
	w.Duration(inv.Duration)
	w.Bool(inv.Alarm)
}

// readInvocation decodes what writeInvocation wrote; errors latch in r.
func readInvocation(r *snapcodec.Reader) Invocation {
	var inv Invocation
	if np := r.Count(6); np > 0 {
		inv.Prefixes = make([]netip.Prefix, np)
		for i := range inv.Prefixes {
			inv.Prefixes[i] = r.Prefix()
		}
	}
	inv.Function = Function(r.Uvarint())
	inv.Duration = r.Duration()
	inv.Alarm = r.Bool()
	return inv
}

// validate checks structural sanity. Every prefix must be one the
// function tables accept (lpm.Canon), so an invocation that validates
// installs in full on every router and is withdrawn in full.
func (inv Invocation) validate() error {
	if len(inv.Prefixes) == 0 {
		return fmt.Errorf("core: invocation without prefixes")
	}
	for _, p := range inv.Prefixes {
		if _, err := lpm.Canon(p); err != nil {
			return fmt.Errorf("core: invalid prefix in invocation: %w", err)
		}
	}
	if inv.Function >= numFunctions {
		return fmt.Errorf("core: invalid function %d", inv.Function)
	}
	if inv.Duration <= 0 {
		return fmt.Errorf("core: non-positive duration %v", inv.Duration)
	}
	return nil
}

// controlMsg is the payload of a protected con-con record. Which fields
// a message carries depends on its type (see the message layout below).
type controlMsg struct {
	Type msgType
	From topology.ASN

	// msgPeeringReject / msgInvokeReject
	Reason string

	// msgKeyDeploy: Key is key_{from,to}; Serial orders rekeys.
	Key    []byte
	Serial uint64

	// msgKeyAck echoes Serial.

	// msgInvoke
	Invocations []Invocation
}

// keyLen is the size of a deployed stamping key (AES-128-CMAC).
const keyLen = 16

// Message layout. Every message is its type byte and the sender's ASN
// (uvarint), then the fields its type defines, in this order:
//
//	key-deploy      serial (uvarint), key (uvarint length 16, 16 bytes)
//	key-ack         serial
//	invoke          serial, count (uvarint), that many invocations
//	invoke-ack      serial
//	invoke-reject   serial, reason (uvarint length, bytes)
//	peering-reject  reason
//
// The other types carry nothing more. An invocation is encoded exactly
// as the campaign journal writes it (writeInvocation). A message must
// be consumed exactly: trailing bytes, an unknown type, a count or
// length beyond the bytes left and a key that is not 16 bytes are
// decode errors.
const (
	hasSerial = 1 << iota
	hasReason
	hasKey
	hasInvocations
)

var msgFields = [numMsgTypes]uint8{
	msgPeeringReject: hasReason,
	msgKeyDeploy:     hasSerial | hasKey,
	msgKeyAck:        hasSerial,
	msgInvoke:        hasSerial | hasInvocations,
	msgInvokeAck:     hasSerial,
	msgInvokeReject:  hasSerial | hasReason,
}

// appendBinary appends the encoded message to b. It refuses an unknown
// type and a field the type does not carry, so nothing set on a message
// is silently lost on the wire.
func (m *controlMsg) appendBinary(b []byte) ([]byte, error) {
	if !m.Type.valid() {
		return b, fmt.Errorf("core: encode: unknown message type %d", uint8(m.Type))
	}
	f := msgFields[m.Type]
	switch {
	case f&hasSerial == 0 && m.Serial != 0,
		f&hasReason == 0 && m.Reason != "",
		f&hasKey == 0 && m.Key != nil,
		f&hasInvocations == 0 && m.Invocations != nil:
		return b, fmt.Errorf("core: encode: %v carries a field its type does not define", m.Type)
	case f&hasKey != 0 && len(m.Key) != keyLen:
		return b, fmt.Errorf("core: encode: %v key is %d bytes, want %d", m.Type, len(m.Key), keyLen)
	}
	w := snapcodec.NewAppendWriter(b)
	w.U8(uint8(m.Type))
	w.Uvarint(uint64(m.From))
	if f&hasSerial != 0 {
		w.Uvarint(m.Serial)
	}
	if f&hasKey != 0 {
		w.Bytes(m.Key)
	}
	if f&hasInvocations != 0 {
		w.Uvarint(uint64(len(m.Invocations)))
		for _, inv := range m.Invocations {
			writeInvocation(w, inv)
		}
	}
	if f&hasReason != 0 {
		w.String(m.Reason)
	}
	return w.Appended(), nil
}

// decode parses b into m; on success every field of m is overwritten.
func (m *controlMsg) decode(b []byte) error {
	r := snapcodec.NewReader(b)
	t := msgType(r.U8())
	from := r.Uvarint()
	if r.Err() != nil {
		return fmt.Errorf("core: bad control message: %w", r.Err())
	}
	if !t.valid() {
		return fmt.Errorf("core: bad control message: unknown type %d", uint8(t))
	}
	if from > math.MaxUint32 {
		return fmt.Errorf("core: bad control message: sender AS %d out of range", from)
	}
	*m = controlMsg{Type: t, From: topology.ASN(from)}
	f := msgFields[t]
	if f&hasSerial != 0 {
		m.Serial = r.Uvarint()
	}
	if f&hasKey != 0 {
		if m.Key = r.Bytes(); r.Err() == nil && len(m.Key) != keyLen {
			return fmt.Errorf("core: bad control message: %v key is %d bytes, want %d", t, len(m.Key), keyLen)
		}
	}
	if f&hasInvocations != 0 {
		if n := r.Count(minInvocationLen); n > 0 {
			m.Invocations = make([]Invocation, n)
			for i := range m.Invocations {
				m.Invocations[i] = readInvocation(r)
			}
		}
	}
	if f&hasReason != 0 {
		m.Reason = r.String()
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("core: bad control message: %w", err)
	}
	return nil
}

// frameKind distinguishes transport frames on the controller channel.
type frameKind uint8

const (
	frameHello frameKind = iota
	frameReply
	frameRecord
	// Abbreviated resumption handshake (§VI-C session cache): hello
	// carries the client nonce, reply the server nonce + transcript
	// MAC. A responder without the cached secret answers reject, which
	// makes the initiator fall back to the full handshake.
	frameResumeHello
	frameResumeReply
	frameResumeReject

	numFrameKinds
)

// ctrlFrame is the netsim message exchanged between controller nodes:
// either a handshake frame or a protected record.
type ctrlFrame struct {
	Kind frameKind
	From string // sender controller name (directory key)
	Data []byte
}

// Size implements netsim.Message.
func (f *ctrlFrame) Size() int { return 1 + len(f.From) + len(f.Data) }

// Corrupt implements netsim.Corruptible: the fault injector models bit
// errors in the frame payload (handshake material or sealed record),
// which the crypto layer must reject without panicking. The sender's
// frame is left intact.
func (f *ctrlFrame) Corrupt(r uint64) netsim.Message {
	c := &ctrlFrame{Kind: f.Kind, From: f.From, Data: append([]byte(nil), f.Data...)}
	if len(c.Data) > 0 {
		netsim.CorruptBytes(c.Data, r)
	} else {
		c.Kind = frameKind(r % uint64(numFrameKinds))
	}
	return c
}
