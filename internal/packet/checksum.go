// Package packet implements raw IPv4 and IPv6 packet formats with the
// backward-compatible DISCS mark embedding from §V-E and §V-F of the
// paper:
//
//   - IPv4: a 29-bit truncated AES-CMAC replaces the Identification and
//     Fragment Offset fields (the Flags bits are preserved and covered
//     by the MAC input). The header checksum is updated accordingly.
//   - IPv6: a 4-byte MAC is carried in a DISCS option inside a
//     destination options header placed before any routing header.
//
// The package also provides the DISCS "msg" extraction (the immutable
// fields covered by the MAC) and the ICMP/ICMPv6 messages DISCS
// interacts with: TTL/hop-limit exceeded (for replay-MAC scrubbing,
// §VI-E2) and packet-too-big (for the IPv6 MTU reduction, §V-F).
package packet

// checksum computes the ones-complement Internet checksum (RFC 1071)
// over b. An odd final byte is padded with a zero as if it were the
// high byte of a 16-bit word.
func checksum(b []byte) uint16 {
	var sum uint32
	n := len(b)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if n%2 == 1 {
		sum += uint32(b[n-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// pseudoHeaderSum accumulates src/dst/len/proto for upper-layer
// checksums (ICMPv6 requires the IPv6 pseudo-header).
func pseudoHeaderSum(src, dst []byte, length uint32, proto uint8) uint32 {
	var sum uint32
	add := func(b []byte) {
		for i := 0; i+1 < len(b); i += 2 {
			sum += uint32(b[i])<<8 | uint32(b[i+1])
		}
	}
	add(src)
	add(dst)
	sum += length >> 16
	sum += length & 0xffff
	sum += uint32(proto)
	return sum
}

// checksumWithPseudo computes an upper-layer checksum including an
// IPv6 pseudo-header.
func checksumWithPseudo(src, dst []byte, proto uint8, payload []byte) uint16 {
	sum := pseudoHeaderSum(src, dst, uint32(len(payload)), proto)
	n := len(payload)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(payload[i])<<8 | uint32(payload[i+1])
	}
	if n%2 == 1 {
		sum += uint32(payload[n-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
