package packet

import (
	"errors"
	"fmt"
	"sort"
)

// This file implements IPv4 fragmentation and reassembly. DISCS
// knowingly accepts a small collateral (§V-E): stamping rewrites the
// Identification and Fragment Offset fields, so fragments of
// victim-related packets can no longer be reassembled — affecting the
// ~0.06% of Internet traffic that is fragmented, and only for the
// prefixes under active protection. The tests demonstrate exactly this
// trade-off.

// fragmentIPv4 splits p into fragments that fit mtu bytes on the wire.
// It fails when DF is set (callers then emit ICMP "fragmentation
// needed") or when the MTU cannot carry any payload.
func fragmentIPv4(p *IPv4, mtu int) ([]*IPv4, error) {
	hl := p.headerLen()
	if p.TotalLen() <= mtu {
		return []*IPv4{p.Clone()}, nil
	}
	if p.Flags&FlagDF != 0 {
		return nil, errors.New("packet: DF set on packet larger than MTU")
	}
	chunk := (mtu - hl) &^ 7 // fragment payloads are 8-byte multiples
	if chunk <= 0 {
		return nil, fmt.Errorf("packet: MTU %d cannot carry payload (header %d)", mtu, hl)
	}
	if p.FragOff != 0 || p.Flags&FlagMF != 0 {
		return nil, errors.New("packet: refusing to re-fragment a fragment")
	}
	var out []*IPv4
	for off := 0; off < len(p.Payload); off += chunk {
		end := off + chunk
		last := false
		if end >= len(p.Payload) {
			end = len(p.Payload)
			last = true
		}
		f := p.Clone()
		f.Payload = append([]byte(nil), p.Payload[off:end]...)
		f.FragOff = uint16(off / 8)
		if !last {
			f.Flags |= FlagMF
		} else {
			f.Flags &^= FlagMF
		}
		out = append(out, f)
	}
	return out, nil
}

// reassembleIPv4 reconstructs the original packet from its fragments
// (any order). All fragments must agree on (src, dst, protocol, ID),
// cover a contiguous range starting at zero, and include a final
// fragment without MF.
func reassembleIPv4(frags []*IPv4) (*IPv4, error) {
	if len(frags) == 0 {
		return nil, errors.New("packet: no fragments")
	}
	first := frags[0]
	for _, f := range frags[1:] {
		if f.Src != first.Src || f.Dst != first.Dst ||
			f.Protocol != first.Protocol || f.ID != first.ID {
			return nil, errors.New("packet: fragments from different datagrams")
		}
	}
	sorted := append([]*IPv4(nil), frags...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].FragOff < sorted[j].FragOff })

	var payload []byte
	expect := uint16(0)
	for i, f := range sorted {
		if f.FragOff != expect {
			return nil, fmt.Errorf("packet: gap at fragment offset %d (want %d)", f.FragOff, expect)
		}
		isLast := i == len(sorted)-1
		if isLast {
			if f.Flags&FlagMF != 0 {
				return nil, errors.New("packet: final fragment missing (MF still set)")
			}
		} else {
			if f.Flags&FlagMF == 0 {
				return nil, errors.New("packet: non-final fragment without MF")
			}
			if len(f.Payload)%8 != 0 {
				return nil, errors.New("packet: non-final fragment payload not 8-byte aligned")
			}
		}
		payload = append(payload, f.Payload...)
		expect = f.FragOff + uint16(len(f.Payload)/8)
	}
	p := sorted[0].Clone()
	p.Payload = payload
	p.FragOff = 0
	p.Flags &^= FlagMF
	return p, nil
}
