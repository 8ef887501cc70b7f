package core

import (
	"fmt"
	"net/netip"
	"strings"
	"time"
)

// parseInvocation parses the operator syntax for one invocation triple
// (§IV-E: "the complete formation of an invocation is a triple
// (v, f, duration)"):
//
//	<prefix>[+<prefix>...]:<function>[:<duration>][:alarm]
//
// Examples:
//
//	10.0.0.0/24:DP
//	10.0.0.0/24+10.1.0.0/24:CDP:1h
//	2001:db8::/48:CSP:30m:alarm
//
// The duration defaults to DefaultDuration (24h). The function name is
// case-insensitive. Because IPv6 prefixes contain colons, the prefix
// list is scanned from the right: the last one-to-three segments are
// interpreted as function[, duration][, alarm].
func parseInvocation(s string) (Invocation, error) {
	parts := strings.Split(s, ":")
	// Find the function segment from the right.
	fnIdx := -1
	var fn Function
	for i := len(parts) - 1; i >= 0; i-- {
		if f, err := ParseFunction(parts[i]); err == nil {
			fnIdx, fn = i, f
			break
		}
	}
	if fnIdx <= 0 {
		return Invocation{}, fmt.Errorf("core: %q: no function (DP|CDP|SP|CSP) found", s)
	}
	inv := Invocation{Function: fn, Duration: DefaultDuration}

	// Everything left of the function is the prefix list.
	prefixPart := strings.Join(parts[:fnIdx], ":")
	for _, ps := range strings.Split(prefixPart, "+") {
		p, err := netip.ParsePrefix(strings.TrimSpace(ps))
		if err != nil {
			return Invocation{}, fmt.Errorf("core: %q: bad prefix %q: %v", s, ps, err)
		}
		inv.Prefixes = append(inv.Prefixes, p.Masked())
	}

	// Optional trailing segments: duration and/or "alarm".
	for _, seg := range parts[fnIdx+1:] {
		seg = strings.TrimSpace(seg)
		if strings.EqualFold(seg, "alarm") {
			inv.Alarm = true
			continue
		}
		d, err := time.ParseDuration(seg)
		if err != nil {
			return Invocation{}, fmt.Errorf("core: %q: bad duration %q", s, seg)
		}
		inv.Duration = d
	}
	if err := inv.validate(); err != nil {
		return Invocation{}, err
	}
	return inv, nil
}

// ParseInvocations parses a comma-separated list of invocation triples.
func ParseInvocations(s string) ([]Invocation, error) {
	var out []Invocation
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		inv, err := parseInvocation(part)
		if err != nil {
			return nil, err
		}
		out = append(out, inv)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: empty invocation list")
	}
	return out, nil
}

// String renders the invocation back in the operator syntax.
func (inv Invocation) String() string {
	ps := make([]string, len(inv.Prefixes))
	for i, p := range inv.Prefixes {
		ps[i] = p.String()
	}
	s := fmt.Sprintf("%s:%v:%v", strings.Join(ps, "+"), inv.Function, inv.Duration)
	if inv.Alarm {
		s += ":alarm"
	}
	return s
}
