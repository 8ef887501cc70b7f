package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// IPv6 extension header "next header" values.
const (
	extHopByHop = 0
	extRouting  = 43
	extFragment = 44
	extDestOpts = 60
)

// optionTypeDISCS is the destination-option type carrying the DISCS
// MAC (§V-F). The first three bits are 001: the two high-order bits 00
// tell legacy nodes to skip an unrecognized option and keep processing,
// and the third bit 1 marks the option data as mutable en route, so it
// is excluded from any IPsec AH computation. The remaining five bits
// would be assigned by IANA; we use 0b00110.
const optionTypeDISCS = 0b0010_0110 // 0x26

// discsOptionLen is the option data length: a 4-byte MAC.
const discsOptionLen = 4

// MsgLenV6 is the DISCS MAC input length for IPv6 (§V-F): source and
// destination addresses plus the first 8 bytes of the payload. Payload
// Length and Next Header are excluded because stamping modifies them.
const MsgLenV6 = 40

// ExtHeader is one IPv6 extension header in the chain. Body is the
// header content after the NextHeader and HdrExtLen octets; for options
// headers it is the raw option TLV area and its length must make the
// full header a multiple of 8 bytes (len(Body) ≡ 6 mod 8).
type ExtHeader struct {
	Kind uint8 // extHopByHop, extDestOpts, extRouting, extFragment
	Body []byte
}

// IPv6 is a parsed IPv6 packet with its extension-header chain.
// NextHeader values inside the chain are recomputed during Marshal;
// Proto is the upper-layer protocol after all extension headers.
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32 // 20 bits
	HopLimit     uint8
	Proto        uint8 // upper-layer protocol (e.g. ProtoUDP)
	Src, Dst     netip.Addr
	Ext          []ExtHeader
	Payload      []byte
}

var errPayloadLen = errors.New("packet: payload length exceeds buffer")

// isKnownExt reports whether the next-header value is an extension
// header this package parses structurally.
func isKnownExt(nh uint8) bool {
	switch nh {
	case extHopByHop, extRouting, extFragment, extDestOpts:
		return true
	}
	return false
}

// ParseIPv6 parses a raw IPv6 packet including its extension chain.
func ParseIPv6(b []byte) (*IPv6, error) {
	if len(b) < 40 {
		return nil, errShort
	}
	if b[0]>>4 != 6 {
		return nil, errVersion
	}
	plen := int(binary.BigEndian.Uint16(b[4:6]))
	if 40+plen > len(b) {
		return nil, errPayloadLen
	}
	var src, dst [16]byte
	copy(src[:], b[8:24])
	copy(dst[:], b[24:40])
	p := &IPv6{
		TrafficClass: b[0]<<4 | b[1]>>4,
		FlowLabel:    uint32(b[1]&0x0f)<<16 | uint32(b[2])<<8 | uint32(b[3]),
		HopLimit:     b[7],
		Src:          netip.AddrFrom16(src),
		Dst:          netip.AddrFrom16(dst),
	}
	nh := b[6]
	rest := b[40 : 40+plen]
	for isKnownExt(nh) {
		if len(rest) < 8 {
			return nil, errShort
		}
		var hlen int
		if nh == extFragment {
			hlen = 8
		} else {
			// Widen before adding: a HdrExtLen of 255 must not wrap to 0
			// in byte arithmetic.
			hlen = (int(rest[1]) + 1) * 8
		}
		if hlen > len(rest) {
			return nil, errHeaderLen
		}
		p.Ext = append(p.Ext, ExtHeader{Kind: nh, Body: append([]byte(nil), rest[2:hlen]...)})
		nh = rest[0]
		rest = rest[hlen:]
	}
	p.Proto = nh
	p.Payload = rest
	return p, nil
}

// Marshal serializes the packet, recomputing Payload Length and the
// NextHeader chain.
func (p *IPv6) Marshal() ([]byte, error) {
	// Reject plain IPv4 addresses (a construction mistake); v4-mapped
	// IPv6 addresses are legal header bytes and round-trip via As16.
	if !p.Src.Is6() || !p.Dst.Is6() {
		return nil, errors.New("packet: IPv6 addresses required")
	}
	extLen := 0
	for _, e := range p.Ext {
		if (len(e.Body)+2)%8 != 0 {
			return nil, fmt.Errorf("packet: extension header body %d+2 not multiple of 8", len(e.Body))
		}
		extLen += len(e.Body) + 2
	}
	plen := extLen + len(p.Payload)
	if plen > 0xffff {
		return nil, fmt.Errorf("packet: payload length %d exceeds 65535", plen)
	}
	b := make([]byte, 40+plen)
	b[0] = 6<<4 | p.TrafficClass>>4
	b[1] = p.TrafficClass<<4 | uint8(p.FlowLabel>>16&0x0f)
	b[2] = byte(p.FlowLabel >> 8)
	b[3] = byte(p.FlowLabel)
	binary.BigEndian.PutUint16(b[4:6], uint16(plen))
	if len(p.Ext) > 0 {
		b[6] = p.Ext[0].Kind
	} else {
		b[6] = p.Proto
	}
	b[7] = p.HopLimit
	src := p.Src.As16()
	dst := p.Dst.As16()
	copy(b[8:24], src[:])
	copy(b[24:40], dst[:])
	off := 40
	for i, e := range p.Ext {
		next := p.Proto
		if i+1 < len(p.Ext) {
			next = p.Ext[i+1].Kind
		}
		b[off] = next
		b[off+1] = uint8((len(e.Body)+2)/8 - 1)
		copy(b[off+2:], e.Body)
		off += len(e.Body) + 2
	}
	copy(b[off:], p.Payload)
	return b, nil
}

// WireLen returns the serialized packet size in bytes without
// marshaling.
func (p *IPv6) WireLen() int {
	n := 40 + len(p.Payload)
	for _, e := range p.Ext {
		n += len(e.Body) + 2
	}
	return n
}

// Msg extracts the 40-byte DISCS MAC input (§V-F); see AppendMsg.
func (p *IPv6) Msg() [MsgLenV6]byte {
	var m [MsgLenV6]byte
	p.AppendMsg(m[:0])
	return m
}

// AppendMsg appends the 40-byte DISCS MAC input (§V-F) to dst and
// returns the extended slice: source address, destination address, and
// the first 8 bytes of the upper-layer payload, zero-padded.
func (p *IPv6) AppendMsg(dst []byte) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, MsgLenV6)...)
	m := dst[n : n+MsgLenV6]
	src := p.Src.As16()
	dstA := p.Dst.As16()
	copy(m[0:16], src[:])
	copy(m[16:32], dstA[:])
	copy(m[32:40], p.Payload)
	return dst
}

// option walks a destination-options TLV area. cb receives the option
// type, its data, and the offset of the option's first byte; returning
// false stops the walk.
func walkOptions(body []byte, cb func(typ uint8, data []byte, off int) bool) error {
	for i := 0; i < len(body); {
		t := body[i]
		if t == 0 { // Pad1
			i++
			continue
		}
		if i+1 >= len(body) {
			return errors.New("packet: truncated option")
		}
		l := int(body[i+1])
		if i+2+l > len(body) {
			return errors.New("packet: option data overruns header")
		}
		if !cb(t, body[i+2:i+2+l], i) {
			return nil
		}
		i += 2 + l
	}
	return nil
}

// padOptions pads a TLV area with Pad1/PadN so that len+2 is a multiple
// of 8.
func padOptions(body []byte) []byte {
	need := (8 - (len(body)+2)%8) % 8
	switch need {
	case 0:
		return body
	case 1:
		return append(body, 0) // Pad1
	default:
		pad := make([]byte, need)
		pad[0] = 1 // PadN
		pad[1] = byte(need - 2)
		return append(body, pad...)
	}
}

// discsInsertPos returns the index in p.Ext where a new destination
// options header carrying the DISCS option must be inserted: after any
// hop-by-hop header, before everything else (§V-F places it before the
// routing header).
func (p *IPv6) discsInsertPos() int {
	if len(p.Ext) > 0 && p.Ext[0].Kind == extHopByHop {
		return 1
	}
	return 0
}

// discsDestOpts returns the index of the destination-options header a
// DISCS option may live in: the first one not preceded by a routing or
// fragment header. Returns -1 when absent.
func (p *IPv6) discsDestOpts() int {
	for i, e := range p.Ext {
		switch e.Kind {
		case extRouting, extFragment:
			return -1
		case extDestOpts:
			return i
		}
	}
	return -1
}

// StampV6 inserts the 4-byte DISCS MAC. If a destination options header
// already lies before the routing header, only the option is inserted;
// otherwise an entire 8-byte destination options header is added
// (§V-F). It returns an error if a DISCS option is already present.
func (p *IPv6) StampV6(mac uint32) error {
	var macb [discsOptionLen]byte
	binary.BigEndian.PutUint32(macb[:], mac)
	opt := []byte{optionTypeDISCS, discsOptionLen, macb[0], macb[1], macb[2], macb[3]}

	if i := p.discsDestOpts(); i >= 0 {
		found := false
		walkOptions(p.Ext[i].Body, func(t uint8, _ []byte, _ int) bool {
			if t == optionTypeDISCS {
				found = true
				return false
			}
			return true
		})
		if found {
			return errors.New("packet: DISCS option already present")
		}
		body := append(stripPadding(p.Ext[i].Body), opt...)
		p.Ext[i].Body = padOptions(body)
		return nil
	}
	hdr := ExtHeader{Kind: extDestOpts, Body: opt} // 2+6 = 8 bytes, no padding
	pos := p.discsInsertPos()
	p.Ext = append(p.Ext, ExtHeader{})
	copy(p.Ext[pos+1:], p.Ext[pos:])
	p.Ext[pos] = hdr
	return nil
}

// stripPadding removes Pad1/PadN options from a TLV area.
func stripPadding(body []byte) []byte {
	var out []byte
	walkOptions(body, func(t uint8, data []byte, _ int) bool {
		if t != 0 && t != 1 {
			out = append(out, t, byte(len(data)))
			out = append(out, data...)
		}
		return true
	})
	return out
}

// MarkV6 reads the DISCS MAC from the packet, reporting whether one is
// present.
func (p *IPv6) MarkV6() (uint32, bool) {
	i := p.discsDestOpts()
	if i < 0 {
		return 0, false
	}
	var mac uint32
	found := false
	walkOptions(p.Ext[i].Body, func(t uint8, data []byte, _ int) bool {
		if t == optionTypeDISCS && len(data) == discsOptionLen {
			mac = binary.BigEndian.Uint32(data)
			found = true
			return false
		}
		return true
	})
	return mac, found
}

// UnstampV6 removes the DISCS option. If no other (non-padding) option
// remains in the destination options header, the entire header is
// removed (§V-F). It reports whether an option was removed.
func (p *IPv6) UnstampV6() bool {
	i := p.discsDestOpts()
	if i < 0 {
		return false
	}
	var rest []byte
	found := false
	walkOptions(p.Ext[i].Body, func(t uint8, data []byte, _ int) bool {
		switch t {
		case optionTypeDISCS:
			found = true
		case 0, 1: // padding
		default:
			rest = append(rest, t, byte(len(data)))
			rest = append(rest, data...)
		}
		return true
	})
	if !found {
		return false
	}
	if len(rest) == 0 {
		p.Ext = append(p.Ext[:i], p.Ext[i+1:]...)
		return true
	}
	p.Ext[i].Body = padOptions(rest)
	return true
}

// StampOverheadV6 returns how many bytes stamping would add to this
// packet: 8 when a whole destination options header must be inserted,
// otherwise the option size rounded to the 8-byte header granularity.
func (p *IPv6) StampOverheadV6() int {
	i := p.discsDestOpts()
	if i < 0 {
		return 8
	}
	cur := len(p.Ext[i].Body) + 2
	grown := len(stripPadding(p.Ext[i].Body)) + len([]byte{0, 0, 0, 0, 0, 0}) + 2
	grown = (grown + 7) &^ 7
	return grown - cur
}

// ICMPv6 types used by DISCS.
const (
	ICMPv6PacketTooBigType = 2
	ICMPv6TimeExceededType = 3
)

// NewICMPv6PacketTooBig builds the "packet too big" message a border
// router returns when stamping would exceed the external link MTU
// (§V-F), announcing newMTU. As much of the offending packet as fits in
// 1280 bytes is embedded.
func NewICMPv6PacketTooBig(src netip.Addr, orig *IPv6, newMTU uint32) (*IPv6, error) {
	return newICMPv6Error(src, orig, ICMPv6PacketTooBigType, newMTU)
}

// NewICMPv6TimeExceeded builds the hop-limit-exceeded message (type 3,
// code 0).
func NewICMPv6TimeExceeded(src netip.Addr, orig *IPv6) (*IPv6, error) {
	return newICMPv6Error(src, orig, ICMPv6TimeExceededType, 0)
}

func newICMPv6Error(src netip.Addr, orig *IPv6, typ uint8, word uint32) (*IPv6, error) {
	ob, err := orig.Marshal()
	if err != nil {
		return nil, err
	}
	max := 1280 - 40 - 8
	if len(ob) > max {
		ob = ob[:max]
	}
	body := make([]byte, 8+len(ob))
	body[0] = typ
	binary.BigEndian.PutUint32(body[4:8], word)
	copy(body[8:], ob)
	p := &IPv6{
		HopLimit: 64,
		Proto:    ProtoICMPv6,
		Src:      src,
		Dst:      orig.Src,
		Payload:  body,
	}
	srcb := src.As16()
	dstb := orig.Src.As16()
	binary.BigEndian.PutUint16(body[2:4], checksumWithPseudo(srcb[:], dstb[:], ProtoICMPv6, body))
	return p, nil
}

// ICMPv6Embedded extracts the packet embedded in an ICMPv6 error
// message (types 1-4). Returns nil, false when not applicable.
func ICMPv6Embedded(p *IPv6) (*IPv6, bool) {
	if p.Proto != ProtoICMPv6 || len(p.Payload) < 8+40 {
		return nil, false
	}
	if t := p.Payload[0]; t < 1 || t > 4 {
		return nil, false
	}
	emb, err := ParseIPv6(p.Payload[8:])
	if err != nil {
		return nil, false
	}
	return emb, true
}
