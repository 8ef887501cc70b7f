// Package flowexport implements the sampled flow reporting that alarm
// mode rides on (§IV-F of the paper: identified spoofing packets "are
// not dropped immediately, but sampled and sent to the controller
// using NetFlow or sFlow for further analysis").
//
// It provides a deterministic 1-in-N packet sampler, a flow cache
// keyed by the usual 5-tuple-at-AS-granularity (src, dst, protocol,
// source AS), export with configurable active/inactive timeouts, and a
// compact binary wire format for the router→controller export path.
package flowexport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"discs/internal/topology"
)

// Key identifies a flow in the cache.
type Key struct {
	Src, Dst netip.Addr
	Proto    uint8
	// SrcAS is the AS the (possibly spoofed) source address maps to —
	// the dimension the controller's attack analysis groups by.
	SrcAS topology.ASN
}

// Record is one exported flow.
type Record struct {
	Key
	Packets uint64
	Bytes   uint64
	First   time.Time
	Last    time.Time
}

// Collector samples packets and aggregates them into flow records.
// It is deterministic: the n-th observed packet is sampled iff
// n ≡ 0 (mod SampleRate), which keeps simulations reproducible and
// matches systematic count-based sampling (sFlow's default mode is
// random; NetFlow's sampled mode is systematic).
type Collector struct {
	// SampleRate is the 1-in-N sampling ratio; 1 samples everything.
	SampleRate int
	// ActiveTimeout bounds how long a busy flow stays unexported.
	ActiveTimeout time.Duration
	// InactiveTimeout expires idle flows.
	InactiveTimeout time.Duration
	// MaxFlows bounds cache memory; when full, new flows are dropped
	// and counted in EvictedNew (routers shed load, not crash).
	MaxFlows int

	flows      map[Key]*Record
	seen       uint64
	Sampled    uint64
	EvictedNew uint64
}

// NewCollector builds a collector with the given sampling ratio and
// NetFlow-ish default timeouts (30s active / 15s inactive).
func NewCollector(sampleRate int) (*Collector, error) {
	if sampleRate < 1 {
		return nil, fmt.Errorf("flowexport: sample rate %d < 1", sampleRate)
	}
	return &Collector{
		SampleRate:      sampleRate,
		ActiveTimeout:   30 * time.Second,
		InactiveTimeout: 15 * time.Second,
		MaxFlows:        65536,
		flows:           make(map[Key]*Record),
	}, nil
}

// observe offers one packet to the sampler; it reports whether the
// packet was sampled into the cache.
func (c *Collector) observe(k Key, size int, now time.Time) bool {
	c.seen++
	if c.seen%uint64(c.SampleRate) != 0 {
		return false
	}
	c.Sampled++
	r, ok := c.flows[k]
	if !ok {
		if len(c.flows) >= c.MaxFlows {
			c.EvictedNew++
			return false
		}
		r = &Record{Key: k, First: now}
		c.flows[k] = r
	}
	r.Packets++
	r.Bytes += uint64(size)
	r.Last = now
	return true
}

// Export drains flows that hit a timeout (or all flows when force is
// set), sorted deterministically.
func (c *Collector) Export(now time.Time, force bool) []Record {
	var out []Record
	for k, r := range c.flows {
		if force ||
			now.Sub(r.First) >= c.ActiveTimeout ||
			now.Sub(r.Last) >= c.InactiveTimeout {
			out = append(out, *r)
			delete(c.flows, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src.Less(out[j].Src)
		}
		if out[i].Dst != out[j].Dst {
			return out[i].Dst.Less(out[j].Dst)
		}
		return out[i].Proto < out[j].Proto
	})
	return out
}

// --- wire format -----------------------------------------------------------

// The export datagram is a fixed header plus fixed-size records:
//
//	header:  magic "DFX1" | uint16 count
//	record:  16B src | 16B dst | 1B proto | 1B addr-family bits |
//	         4B srcAS | 8B packets | 8B bytes | 8B first(ns) | 8B last(ns)

var magic = [4]byte{'D', 'F', 'X', '1'}

const recordLen = 16 + 16 + 1 + 1 + 4 + 8 + 8 + 8 + 8

// marshal encodes records into one export datagram.
func marshal(records []Record) ([]byte, error) {
	if len(records) > 0xffff {
		return nil, fmt.Errorf("flowexport: %d records exceed datagram capacity", len(records))
	}
	buf := bytes.NewBuffer(make([]byte, 0, 6+len(records)*recordLen))
	buf.Write(magic[:])
	binary.Write(buf, binary.BigEndian, uint16(len(records)))
	for _, r := range records {
		if !r.Src.IsValid() || !r.Dst.IsValid() {
			return nil, errors.New("flowexport: invalid address in record")
		}
		src16 := r.Src.As16()
		dst16 := r.Dst.As16()
		buf.Write(src16[:])
		buf.Write(dst16[:])
		buf.WriteByte(r.Proto)
		var fam byte
		if r.Src.Is4() {
			fam |= 1
		}
		if r.Dst.Is4() {
			fam |= 2
		}
		buf.WriteByte(fam)
		binary.Write(buf, binary.BigEndian, uint32(r.SrcAS))
		binary.Write(buf, binary.BigEndian, r.Packets)
		binary.Write(buf, binary.BigEndian, r.Bytes)
		binary.Write(buf, binary.BigEndian, uint64(r.First.UnixNano()))
		binary.Write(buf, binary.BigEndian, uint64(r.Last.UnixNano()))
	}
	return buf.Bytes(), nil
}

// unmarshal decodes an export datagram.
func unmarshal(b []byte) ([]Record, error) {
	if len(b) < 6 || !bytes.Equal(b[:4], magic[:]) {
		return nil, errors.New("flowexport: bad magic")
	}
	count := int(binary.BigEndian.Uint16(b[4:6]))
	if len(b) != 6+count*recordLen {
		return nil, fmt.Errorf("flowexport: length %d does not match %d records", len(b), count)
	}
	out := make([]Record, count)
	off := 6
	for i := range out {
		rec := b[off : off+recordLen]
		var src16, dst16 [16]byte
		copy(src16[:], rec[0:16])
		copy(dst16[:], rec[16:32])
		proto := rec[32]
		fam := rec[33]
		srcAS := binary.BigEndian.Uint32(rec[34:38])
		src := netip.AddrFrom16(src16)
		if fam&1 != 0 {
			src = src.Unmap()
			var a4 [4]byte
			copy(a4[:], src16[12:16])
			src = netip.AddrFrom4(a4)
		}
		dst := netip.AddrFrom16(dst16)
		if fam&2 != 0 {
			var a4 [4]byte
			copy(a4[:], dst16[12:16])
			dst = netip.AddrFrom4(a4)
		}
		out[i] = Record{
			Key:     Key{Src: src, Dst: dst, Proto: proto, SrcAS: topology.ASN(srcAS)},
			Packets: binary.BigEndian.Uint64(rec[38:46]),
			Bytes:   binary.BigEndian.Uint64(rec[46:54]),
			First:   time.Unix(0, int64(binary.BigEndian.Uint64(rec[54:62]))).UTC(),
			Last:    time.Unix(0, int64(binary.BigEndian.Uint64(rec[62:70]))).UTC(),
		}
		off += recordLen
	}
	return out, nil
}

// TopTalkers aggregates records by source AS and returns the heaviest
// senders — the controller's attack analysis primitive.
func TopTalkers(records []Record, n int) []struct {
	AS      topology.ASN
	Packets uint64
} {
	agg := map[topology.ASN]uint64{}
	for _, r := range records {
		agg[r.SrcAS] += r.Packets
	}
	type row struct {
		AS      topology.ASN
		Packets uint64
	}
	rows := make([]row, 0, len(agg))
	for as, p := range agg {
		rows = append(rows, row{as, p})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Packets != rows[j].Packets {
			return rows[i].Packets > rows[j].Packets
		}
		return rows[i].AS < rows[j].AS
	})
	if n < len(rows) {
		rows = rows[:n]
	}
	out := make([]struct {
		AS      topology.ASN
		Packets uint64
	}, len(rows))
	for i, r := range rows {
		out[i] = struct {
			AS      topology.ASN
			Packets uint64
		}{r.AS, r.Packets}
	}
	return out
}
