package topology

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
)

// This file reads and writes the CAIDA Routeviews "prefix2as" text
// format the paper's evaluation data comes from: one mapping per line,
//
//	<prefix-address> <TAB> <prefix-length> <TAB> <AS-list>
//
// where AS-list is an AS number, an AS set "1_2_3" (multi-origin), or
// comma-separated alternatives. Per §VI-A2, a prefix mapped to multiple
// ASes has its address space divided evenly among them; we keep the
// mapping table pointing at the first AS and split only the size
// accounting.

// loadPrefix2AS parses a prefix2as stream into a topology containing
// only ASes and prefixes (no relationship links).
func loadPrefix2AS(r io.Reader) (*Topology, error) {
	t := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("topology: line %d: want 3 fields, got %d", lineNo, len(fields))
		}
		addr, err := netip.ParseAddr(fields[0])
		if err != nil {
			return nil, fmt.Errorf("topology: line %d: %v", lineNo, err)
		}
		bits, err := strconv.Atoi(fields[1])
		if err != nil || bits < 0 || bits > addr.BitLen() {
			return nil, fmt.Errorf("topology: line %d: bad prefix length %q", lineNo, fields[1])
		}
		p := netip.PrefixFrom(addr, bits).Masked()
		asns, err := parseASList(fields[2])
		if err != nil {
			return nil, fmt.Errorf("topology: line %d: %v", lineNo, err)
		}
		for _, asn := range asns {
			if t.AS(asn) == nil {
				if _, err := t.AddAS(asn); err != nil {
					return nil, err
				}
			}
		}
		// The mapping table points at the first origin; the address
		// space is split evenly across all origins.
		if err := t.pfx2as.Insert(p, asns[0]); err != nil {
			return nil, err
		}
		size := prefixSize(p)
		share := size / uint64(len(asns))
		if share == 0 {
			share = 1
		}
		for _, asn := range asns {
			a := t.AS(asn)
			a.appendPrefix(p)
			a.AddrSpace += share
		}
		t.total += size
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// parseASList parses "701", "1_2_3" (AS set) or "12,34" (alternative
// origins) into a list of ASNs.
func parseASList(s string) ([]ASN, error) {
	var out []ASN
	for _, alt := range strings.Split(s, ",") {
		for _, part := range strings.Split(alt, "_") {
			v, err := strconv.ParseUint(part, 10, 32)
			if err != nil || v == 0 {
				return nil, fmt.Errorf("bad AS number %q", part)
			}
			out = append(out, ASN(v))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty AS list %q", s)
	}
	return out, nil
}
