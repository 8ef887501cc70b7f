package topology

import (
	"encoding/binary"
	"net/netip"
	"sort"
)

// AddrIndex lays an IPv4 prefix list out for uniform address draws:
// the prefixes' base addresses beside their cumulative sizes, in list
// order, so the x-th address of the concatenated space is one binary
// search away. Traffic generators draw x = rng.Uint64() % Total() and
// call At(x); walking the prefix list per draw instead was 90% of a
// paper-scale campaign.
type AddrIndex struct {
	runs []addrRun
}

// addrRun is one prefix: its base address and the number of addresses
// in it and every run before it.
type addrRun struct {
	end  uint64
	base uint32
}

// NewAddrIndex indexes the IPv4 prefixes of the list, in order. IPv6
// prefixes are skipped; prefixes must be masked.
func NewAddrIndex(prefixes ...netip.Prefix) *AddrIndex {
	ix := &AddrIndex{runs: make([]addrRun, 0, len(prefixes))}
	var total uint64
	for _, p := range prefixes {
		if !p.Addr().Is4() {
			continue
		}
		total += 1 << (32 - p.Bits())
		base := p.Addr().As4()
		ix.runs = append(ix.runs, addrRun{end: total, base: binary.BigEndian.Uint32(base[:])})
	}
	return ix
}

// Total returns the number of addresses indexed.
func (ix *AddrIndex) Total() uint64 {
	if len(ix.runs) == 0 {
		return 0
	}
	return ix.runs[len(ix.runs)-1].end
}

// At returns the x-th address of the indexed space, counting through
// the prefixes in list order. x must be below Total.
func (ix *AddrIndex) At(x uint64) netip.Addr {
	// The run holding x is the first whose cumulative end lies beyond it.
	i := sort.Search(len(ix.runs), func(i int) bool { return ix.runs[i].end > x })
	if i > 0 {
		x -= ix.runs[i-1].end
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], ix.runs[i].base+uint32(x))
	return netip.AddrFrom4(b)
}

// V4Index returns the address index over the AS's IPv4 prefixes, or
// nil when the AS is unknown or owns no IPv4 space. The index is built
// on the first call for an AS and reused until its prefix list changes.
func (t *Topology) V4Index(asn ASN) *AddrIndex {
	a := t.AS(asn)
	if a == nil {
		return nil
	}
	ix := a.v4.Load()
	if ix == nil {
		ix = NewAddrIndex(a.Prefixes...)
		a.v4.Store(ix)
	}
	if len(ix.runs) == 0 {
		return nil
	}
	return ix
}

// appendPrefix is the one place a prefix joins an AS: it drops the
// address index so the next draw sees the new prefix.
func (a *AS) appendPrefix(p netip.Prefix) {
	a.Prefixes = append(a.Prefixes, p)
	a.v4.Store(nil)
}
