package packet

import "encoding/binary"

// This file implements the in-place MAC scrubbing of ICMP error
// messages described in §VI-E2: an attacker inside the source DAS can
// learn a valid mark by sending a packet whose TTL expires right after
// crossing the DAS border and reading the mark back from the embedded
// header in the returned "TTL exceeded" message. The source DAS border
// router therefore inspects inbound time-exceeded messages and erases
// the embedded marks. Scrubbing rewrites bytes in place so that every
// other field of the (possibly truncated) embedded packet is preserved
// exactly.

// ScrubICMPv4EmbeddedMark overwrites the DISCS mark fields (IPID and
// Fragment Offset) of the packet embedded in an ICMPv4 error message
// with the given replacement bits, preserving the embedded Flags bits,
// and fixes both the embedded header checksum and the ICMP checksum.
// It reports whether a scrub happened.
func ScrubICMPv4EmbeddedMark(p *IPv4, random uint32) bool {
	if p.Protocol != ProtoICMP || len(p.Payload) < 8+20 {
		return false
	}
	t := p.Payload[0]
	if t != 3 && t != 4 && t != 5 && t != 11 && t != 12 {
		return false
	}
	emb := p.Payload[8:]
	if emb[0]>>4 != 4 {
		return false
	}
	ihl := int(emb[0]&0x0f) * 4
	if ihl < 20 || ihl > len(emb) {
		return false
	}
	random &= 1<<29 - 1
	binary.BigEndian.PutUint16(emb[4:6], uint16(random>>13))
	flags := emb[6] & 0xe0
	binary.BigEndian.PutUint16(emb[6:8], uint16(random&0x1fff))
	emb[6] |= flags
	// Recompute the embedded header checksum over the available header.
	emb[10], emb[11] = 0, 0
	binary.BigEndian.PutUint16(emb[10:12], checksum(emb[:ihl]))
	// Recompute the outer ICMP checksum.
	p.Payload[2], p.Payload[3] = 0, 0
	binary.BigEndian.PutUint16(p.Payload[2:4], checksum(p.Payload))
	return true
}

// ScrubICMPv6EmbeddedMark overwrites the DISCS option data of the
// packet embedded in an ICMPv6 error message with the given bits and
// fixes the ICMPv6 checksum. It reports whether a DISCS option was
// found and scrubbed.
func ScrubICMPv6EmbeddedMark(p *IPv6, random uint32) bool {
	if p.Proto != ProtoICMPv6 || len(p.Payload) < 8+40 {
		return false
	}
	if t := p.Payload[0]; t < 1 || t > 4 {
		return false
	}
	emb := p.Payload[8:]
	if emb[0]>>4 != 6 {
		return false
	}
	// Walk the embedded extension chain looking for a destination
	// options header before any routing/fragment header.
	nh := emb[6]
	off := 40
	for isKnownExt(nh) {
		if off+8 > len(emb) {
			return false
		}
		var hlen int
		if nh == extFragment {
			hlen = 8
		} else {
			hlen = (int(emb[off+1]) + 1) * 8
		}
		if off+hlen > len(emb) {
			return false
		}
		switch nh {
		case extRouting, extFragment:
			return false
		case extDestOpts:
			if scrubOptionArea(emb[off+2:off+hlen], random) {
				p.Payload[2], p.Payload[3] = 0, 0
				srcb := p.Src.As16()
				dstb := p.Dst.As16()
				binary.BigEndian.PutUint16(p.Payload[2:4],
					checksumWithPseudo(srcb[:], dstb[:], ProtoICMPv6, p.Payload))
				return true
			}
			return false
		}
		nh = emb[off]
		off += hlen
	}
	return false
}

// scrubOptionArea overwrites the data of a DISCS option within a TLV
// area in place.
func scrubOptionArea(body []byte, random uint32) bool {
	for i := 0; i < len(body); {
		t := body[i]
		if t == 0 {
			i++
			continue
		}
		if i+1 >= len(body) {
			return false
		}
		l := int(body[i+1])
		if i+2+l > len(body) {
			return false
		}
		if t == optionTypeDISCS && l == discsOptionLen {
			binary.BigEndian.PutUint32(body[i+2:i+6], random)
			return true
		}
		i += 2 + l
	}
	return false
}
