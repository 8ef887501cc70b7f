package topology

import (
	"encoding/binary"
	"net/netip"
)

// AddrIndex lays an IPv4 prefix list out for uniform address draws:
// the prefixes' base addresses beside their cumulative sizes, in list
// order, so the x-th address of the concatenated space is found in a
// few steps. Traffic generators draw x = rng.Uint64() % Total() and
// call At(x); walking the prefix list per draw instead was 90% of a
// paper-scale campaign.
//
// At starts from a bucket table rather than a binary search: the
// concatenated space is cut into at most 2·len(runs) buckets of 2^shift
// addresses, and first[b] is the run holding the bucket's first
// address. A draw lands in bucket x>>shift and steps forward past the
// few run ends inside its bucket; averaged over uniform draws that is
// less than one step, where a binary search over the 40–60 prefixes of
// a large AS took six dependent loads.
type AddrIndex struct {
	runs  []addrRun
	first []int32
	shift uint8
}

// addrRun is one prefix: the number of addresses in it and every run
// before it, and its base address less the run's first index (mod
// 2^32), so the x-th address of the space is off+x inside the run
// holding x.
type addrRun struct {
	end uint64
	off uint32
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
		base := p.Addr().As4()
		off := binary.BigEndian.Uint32(base[:]) - uint32(total)
		total += 1 << (32 - p.Bits())
		ix.runs = append(ix.runs, addrRun{end: total, off: off})
	}
	if total == 0 {
		return ix
	}
	for (total-1)>>ix.shift >= uint64(2*len(ix.runs)) {
		ix.shift++
	}
	ix.first = make([]int32, (total-1)>>ix.shift+1)
	i := 0
	for b := range ix.first {
		for ix.runs[i].end <= uint64(b)<<ix.shift {
			i++
		}
		ix.first[b] = int32(i)
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
	i := ix.first[x>>ix.shift]
	for ix.runs[i].end <= x {
		i++
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], ix.runs[i].off+uint32(x))
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
	if a.v4.Load() != nil {
		a.v4.Store(nil)
	}
}
