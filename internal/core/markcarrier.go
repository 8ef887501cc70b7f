package core

import (
	"net/netip"

	"discs/internal/cmac"
	"discs/internal/packet"
)

// MarkCarrier abstracts the per-family mark embedding so the data
// plane processes IPv4 and IPv6 packets uniformly: 29-bit marks in the
// IPID/FragmentOffset fields for IPv4 (§V-E), a 32-bit destination
// option for IPv6 (§V-F). The interface is sealed: V4 and V6 are its
// only implementations.
//
// stamp and verify return the number of CMAC computations they ran so
// the router's MACsComputed counter reflects actual crypto cost
// (§VI-C2): a failed IPv6 stamp still computed its MAC, while a missing
// IPv6 option fails verification without computing anything.
type MarkCarrier interface {
	// SrcAddr and DstAddr return the packet's addresses.
	SrcAddr() netip.Addr
	DstAddr() netip.Addr
	// stamp writes the truncated CMAC of the packet's msg fields and
	// returns the number of CMACs computed (even when err != nil).
	stamp(c *cmac.CMAC) (macs int, err error)
	// verify checks the mark against the key and returns the number of
	// CMACs computed. For IPv4 the mark fields always exist, so an
	// unstamped packet simply fails verification; for IPv6 a missing
	// DISCS option fails verification with zero computations.
	verify(c *cmac.CMAC) (ok bool, macs int)
	// erase removes the mark: IPv4 replaces the fields with the given
	// bits, IPv6 strips the DISCS option.
	erase(random uint32)

	// unwrap returns the wrapped packet: exactly one result is non-nil.
	unwrap() (*packet.IPv4, *packet.IPv6)
}

// V4 wraps an IPv4 packet as a MarkCarrier.
type V4 struct{ P *packet.IPv4 }

// SrcAddr returns the source address.
func (w V4) SrcAddr() netip.Addr { return w.P.Src }

// DstAddr returns the destination address.
func (w V4) DstAddr() netip.Addr { return w.P.Dst }

// stamp writes the 29-bit truncated CMAC into IPID+FragOffset.
func (w V4) stamp(c *cmac.CMAC) (int, error) {
	m := w.P.Msg()
	w.P.SetMark(c.Sum29(m[:]))
	return 1, nil
}

// verify recomputes the 29-bit CMAC and compares.
func (w V4) verify(c *cmac.CMAC) (bool, int) {
	m := w.P.Msg()
	return c.Verify29(m[:], w.P.Mark()), 1
}

// erase replaces the mark fields with the supplied bits (§V-E: random
// bits after successful verification).
func (w V4) erase(random uint32) { w.P.ScrubMark(random) }

func (w V4) unwrap() (*packet.IPv4, *packet.IPv6) { return w.P, nil }

// V6 wraps an IPv6 packet as a MarkCarrier.
type V6 struct{ P *packet.IPv6 }

// SrcAddr returns the source address.
func (w V6) SrcAddr() netip.Addr { return w.P.Src }

// DstAddr returns the destination address.
func (w V6) DstAddr() netip.Addr { return w.P.Dst }

// stamp inserts the DISCS destination option carrying the 32-bit
// truncated CMAC. The CMAC is computed before the option insertion can
// fail, so macs is 1 even on error.
func (w V6) stamp(c *cmac.CMAC) (int, error) {
	m := w.P.Msg()
	return 1, w.P.StampV6(c.Sum32(m[:]))
}

// verify checks the DISCS option; an absent option fails without
// computing a CMAC.
func (w V6) verify(c *cmac.CMAC) (bool, int) {
	mac, ok := w.P.MarkV6()
	if !ok {
		return false, 0
	}
	m := w.P.Msg()
	return c.Verify32(m[:], mac), 1
}

// erase removes the DISCS option (and the destination options header
// when empty).
func (w V6) erase(uint32) { w.P.UnstampV6() }

func (w V6) unwrap() (*packet.IPv4, *packet.IPv6) { return nil, w.P }

var (
	_ MarkCarrier = V4{}
	_ MarkCarrier = V6{}
)
