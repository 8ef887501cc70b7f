package packet

import (
	"encoding/binary"
	"errors"
	"net/netip"
)

// IP protocol numbers used in this repository.
const (
	ProtoICMP   = 1
	ProtoTCP    = 6
	ProtoUDP    = 17
	ProtoICMPv6 = 58
)

// IPv4 flag bits (in the 3-bit Flags field).
const (
	FlagDF = 0b010 // don't fragment
	FlagMF = 0b001 // more fragments
)

// MsgLenV4 is the length of the DISCS MAC input for IPv4 (§V-E).
const MsgLenV4 = 21

// IPv4 is a parsed IPv4 packet. Header length and total length are
// derived during Marshal; Checksum records the checksum observed at
// parse time and is recomputed on Marshal.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	Flags    uint8  // 3 bits
	FragOff  uint16 // 13 bits, in 8-byte units
	TTL      uint8
	Protocol uint8
	Checksum uint16 // as parsed; recomputed by Marshal
	Src, Dst netip.Addr
	Options  []byte // raw options, length must be a multiple of 4
	Payload  []byte
}

// Parse and marshal errors are sentinels: a flood of malformed packets
// costs a counter increment, not a formatted message per packet.
var (
	errShort     = errors.New("packet: truncated packet")
	errVersion   = errors.New("packet: wrong IP version")
	errHeaderLen = errors.New("packet: bad header length")
	errTotalLen  = errors.New("packet: total length shorter than the header or longer than the buffer")
	errNotV4     = errors.New("packet: IPv4 addresses required")
	errTooLong   = errors.New("packet: total length exceeds 65535")
)

// ParseIPv4 parses a raw IPv4 packet into a new struct; it is
// ParseIPv4Into on a fresh IPv4. The returned struct aliases b's
// payload bytes; callers that mutate the packet should treat the
// original buffer as consumed.
func ParseIPv4(b []byte) (*IPv4, error) {
	p := new(IPv4)
	if err := ParseIPv4Into(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseIPv4Into parses a raw IPv4 packet into p, overwriting every
// field, so a slab of structs can be reused packet after packet without
// allocating. Payload aliases b; Options are copied into p's existing
// Options storage (grown only when an earlier packet's was too small).
// On error p is left untouched.
func ParseIPv4Into(p *IPv4, b []byte) error {
	return parseIPv4Into(p, b, false)
}

// parseIPv4Into is the one IPv4 header parser. lenient ignores the
// Total Length bound, for packets embedded (truncated) in ICMP errors:
// the payload then runs to the end of b.
func parseIPv4Into(p *IPv4, b []byte, lenient bool) error {
	if len(b) < 20 {
		return errShort
	}
	if b[0]>>4 != 4 {
		return errVersion
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < 20 || ihl > len(b) {
		return errHeaderLen
	}
	total := len(b)
	if !lenient {
		total = int(binary.BigEndian.Uint16(b[2:4]))
		if total < ihl || total > len(b) {
			return errTotalLen
		}
	}
	// Every field, one store each: a composite-literal assignment would
	// build the struct on the stack and copy it over.
	p.TOS = b[1]
	p.ID = binary.BigEndian.Uint16(b[4:6])
	p.Flags = b[6] >> 5
	p.FragOff = binary.BigEndian.Uint16(b[6:8]) & 0x1fff
	p.TTL = b[8]
	p.Protocol = b[9]
	p.Checksum = binary.BigEndian.Uint16(b[10:12])
	p.Src = netip.AddrFrom4([4]byte(b[12:16]))
	p.Dst = netip.AddrFrom4([4]byte(b[16:20]))
	if ihl > 20 || len(p.Options) > 0 { // nothing to copy or clear: skip a barriered store
		p.Options = append(p.Options[:0], b[20:ihl]...)
	}
	p.Payload = b[ihl:total]
	return nil
}

// HeaderLen returns the header length in bytes including options.
func (p *IPv4) HeaderLen() int {
	opt := len(p.Options)
	opt = (opt + 3) &^ 3 // options are padded to 4-byte multiples
	return 20 + opt
}

// TotalLen returns the on-wire total length.
func (p *IPv4) TotalLen() int { return p.HeaderLen() + len(p.Payload) }

// Marshal serializes the packet into a new buffer; it is
// AppendMarshal(nil).
func (p *IPv4) Marshal() ([]byte, error) { return p.AppendMarshal(nil) }

// AppendMarshal appends the packet's wire bytes to dst, with a freshly
// computed header checksum that it also stores in p.Checksum, and
// returns the extended slice. Appending into a buffer with spare
// capacity allocates nothing. On error dst is returned unchanged.
func (p *IPv4) AppendMarshal(dst []byte) ([]byte, error) {
	if !p.Src.Is4() || !p.Dst.Is4() {
		return dst, errNotV4
	}
	hl := p.HeaderLen()
	if hl > 60 {
		return dst, errHeaderLen
	}
	total := hl + len(p.Payload)
	if total > 0xffff {
		return dst, errTooLong
	}
	n := len(dst)
	switch {
	case cap(dst)-n >= total:
		dst = dst[:n+total]
	case n == 0:
		dst = make([]byte, total)
	default:
		dst = append(dst, make([]byte, total)...)
	}
	b := dst[n:]
	b[0] = 4<<4 | uint8(hl/4)
	b[1] = p.TOS
	binary.BigEndian.PutUint16(b[2:4], uint16(total))
	binary.BigEndian.PutUint16(b[4:6], p.ID)
	binary.BigEndian.PutUint16(b[6:8], uint16(p.Flags&0x7)<<13|p.FragOff&0x1fff)
	b[8] = p.TTL
	b[9] = p.Protocol
	b[10], b[11] = 0, 0
	src := p.Src.As4()
	dstA := p.Dst.As4()
	copy(b[12:16], src[:])
	copy(b[16:20], dstA[:])
	if hl > 20 {
		// A reused buffer may hold stale bytes: zero the option padding.
		clear(b[20+copy(b[20:hl], p.Options) : hl])
	}
	cs := Checksum(b[:hl])
	binary.BigEndian.PutUint16(b[10:12], cs)
	p.Checksum = cs
	copy(b[hl:], p.Payload)
	return dst, nil
}

// Msg extracts the 21-byte DISCS MAC input (§V-E): Version|IHL, Total
// Length, Flags (padded with five zero bits), Protocol, source and
// destination addresses, then the first 8 bytes of the payload
// (zero-padded). IPID and Fragment Offset are deliberately excluded
// because stamping rewrites them.
func (p *IPv4) Msg() [MsgLenV4]byte {
	var m [MsgLenV4]byte
	m[0] = 4<<4 | uint8(p.HeaderLen()/4)
	binary.BigEndian.PutUint16(m[1:3], uint16(p.TotalLen()))
	m[3] = p.Flags & 0x7 << 5
	m[4] = p.Protocol
	src := p.Src.As4()
	dst := p.Dst.As4()
	copy(m[5:9], src[:])
	copy(m[9:13], dst[:])
	copy(m[13:21], p.Payload) // copies min(8, len) bytes; rest stays zero
	return m
}

// Mark reads the 29-bit DISCS mark from the IPID and Fragment Offset
// fields: the 16 IPID bits are the high bits, the 13 fragment-offset
// bits the low bits.
func (p *IPv4) Mark() uint32 {
	return uint32(p.ID)<<13 | uint32(p.FragOff&0x1fff)
}

// SetMark writes a 29-bit DISCS mark into IPID and Fragment Offset.
// Values above 2^29-1 are masked.
func (p *IPv4) SetMark(mark uint32) {
	mark &= 1<<29 - 1
	p.ID = uint16(mark >> 13)
	p.FragOff = uint16(mark & 0x1fff)
}

// ScrubMark replaces the mark fields with caller-supplied bits (the
// verification end replaces them with random bits after a successful
// verification, §V-E).
func (p *IPv4) ScrubMark(random uint32) { p.SetMark(random) }

// Clone deep-copies the packet.
func (p *IPv4) Clone() *IPv4 {
	q := *p
	q.Options = append([]byte(nil), p.Options...)
	q.Payload = append([]byte(nil), p.Payload...)
	return &q
}

// ICMPv4TimeExceeded builds the ICMP time-exceeded (type 11, code 0)
// message a router sends when a packet's TTL expires: the original IP
// header plus the first 8 payload bytes are embedded. src is the
// reporting router, orig the expired packet.
func ICMPv4TimeExceeded(src netip.Addr, orig *IPv4) (*IPv4, error) {
	ob, err := orig.Marshal()
	if err != nil {
		return nil, err
	}
	embed := orig.HeaderLen() + 8
	if embed > len(ob) {
		embed = len(ob)
	}
	body := make([]byte, 8+embed)
	body[0] = 11 // type: time exceeded
	// code 0: TTL exceeded in transit; bytes 4..8 unused.
	copy(body[8:], ob[:embed])
	binary.BigEndian.PutUint16(body[2:4], Checksum(body))
	return &IPv4{
		TTL:      64,
		Protocol: ProtoICMP,
		Src:      src,
		Dst:      orig.Src,
		Payload:  body,
	}, nil
}

// ICMPv4Embedded extracts the packet embedded in an ICMP error message
// (time exceeded, destination unreachable, ...). It returns nil, false
// when p is not an ICMP error carrying an embedded header. The embedded
// packet usually holds only the first 8 payload bytes of the original.
func ICMPv4Embedded(p *IPv4) (*IPv4, bool) {
	if p.Protocol != ProtoICMP || len(p.Payload) < 8+20 {
		return nil, false
	}
	t := p.Payload[0]
	// ICMP error types that embed the original datagram.
	if t != 3 && t != 4 && t != 5 && t != 11 && t != 12 {
		return nil, false
	}
	inner := p.Payload[8:]
	// The embedded packet's TotalLength describes the *original* packet,
	// which is longer than the embedded snippet; parse leniently.
	emb := new(IPv4)
	if parseIPv4Into(emb, inner, true) != nil {
		return nil, false
	}
	return emb, true
}

// ReplaceICMPv4Embedded writes emb's mark fields (IPID and Fragment
// Offset) back into the ICMP error message in p, patching the embedded
// bytes in place. Every other embedded field — in particular the
// original Total Length, which describes the full offending datagram
// rather than the truncated snippet carried by the error — is preserved
// exactly, so the receiving host can still match the error to the
// datagram it sent. The embedded header checksum and the outer ICMP
// checksum are recomputed. Used by the DISCS source-AS border router to
// scrub marks from returning TTL-exceeded messages (§VI-E2).
func ReplaceICMPv4Embedded(p *IPv4, emb *IPv4) error {
	if p.Protocol != ProtoICMP || len(p.Payload) < 8+20 {
		return errors.New("packet: not an ICMP error message")
	}
	inner := p.Payload[8:]
	if inner[0]>>4 != 4 {
		return errVersion
	}
	ihl := int(inner[0]&0x0f) * 4
	if ihl < 20 || ihl > len(inner) {
		return errHeaderLen
	}
	binary.BigEndian.PutUint16(inner[4:6], emb.ID)
	flags := inner[6] & 0xe0 // the flag bits carry no mark; keep them
	binary.BigEndian.PutUint16(inner[6:8], emb.FragOff&0x1fff)
	inner[6] |= flags
	// Recompute the embedded header checksum over the available header.
	inner[10], inner[11] = 0, 0
	binary.BigEndian.PutUint16(inner[10:12], Checksum(inner[:ihl]))
	// Recompute the outer ICMP checksum.
	p.Payload[2], p.Payload[3] = 0, 0
	binary.BigEndian.PutUint16(p.Payload[2:4], Checksum(p.Payload))
	return nil
}
