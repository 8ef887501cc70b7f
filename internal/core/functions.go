// Package core implements DISCS itself: the four spoofing defense
// functions (DP, CDP, SP, CSP), the border-router data plane
// (§V of the paper) and the distributed control plane (§IV) —
// controller, DAS discovery, peering, key negotiation with a two-key
// rekey window, on-demand function invocation and alarm mode.
package core

import (
	"fmt"
	"strings"
	"time"
)

// Function identifies one of the four DISCS spoofing defense functions
// (§III-B). DP and SP are end based; CDP and CSP are end-to-end based.
type Function uint8

const (
	// DP (destination protection) makes peer DASes drop outbound
	// packets targeting the victim prefix whose source address is not
	// local to the peer.
	DP Function = iota
	// CDP (cryptographic destination protection) makes peer DASes stamp
	// outbound packets targeting the victim prefix; the victim verifies
	// inbound packets whose source belongs to a peer.
	CDP
	// SP (source protection) makes peer DASes drop outbound packets
	// whose source address belongs to the victim prefix.
	SP
	// CSP (cryptographic source protection) makes the victim stamp its
	// outbound packets destined to peers; peers verify inbound packets
	// whose source belongs to the victim prefix.
	CSP
	numFunctions
)

func (f Function) String() string {
	switch f {
	case DP:
		return "DP"
	case CDP:
		return "CDP"
	case SP:
		return "SP"
	case CSP:
		return "CSP"
	}
	return fmt.Sprintf("Function(%d)", uint8(f))
}

// ParseFunction parses "DP", "CDP", "SP" or "CSP" (case-insensitive).
func ParseFunction(s string) (Function, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "DP":
		return DP, nil
	case "CDP":
		return CDP, nil
	case "SP":
		return SP, nil
	case "CSP":
		return CSP, nil
	}
	return 0, fmt.Errorf("core: unknown function %q", s)
}

// Op is one primitive operation in a function table (Table I). Each
// DISCS function decomposes into the operations executed by the peer
// DASes (bold rows of Table I) and by the victim DAS.
type Op uint8

const (
	// OpDPFilter — Out-Dst table, executed by peers: if src ∉ local, drop.
	OpDPFilter Op = 1 << iota
	// OpCDPStamp — Out-Dst table, executed by peers: stamp.
	OpCDPStamp
	// OpCDPVerify — In-Dst table, executed by the victim: if src ∈ peer, verify.
	OpCDPVerify
	// OpSPFilter — Out-Src table, executed by peers: drop.
	OpSPFilter
	// OpCSPStamp — Out-Src table, executed by the victim: if dst ∈ peer, stamp.
	OpCSPStamp
	// OpCSPVerify — In-Src table, executed by peers: verify.
	OpCSPVerify
)

// OpSet is a bitmask of operations attached to a prefix in one of the
// four function tables. The paper stores it in 6 bits (§VI-C2).
type OpSet uint8

// Has reports whether the set contains op.
func (s OpSet) Has(op Op) bool { return s&OpSet(op) != 0 }

// Add returns the set with op added.
func (s OpSet) Add(op Op) OpSet { return s | OpSet(op) }

func (s OpSet) String() string {
	if s == 0 {
		return "∅"
	}
	names := []struct {
		op   Op
		name string
	}{
		{OpDPFilter, "DP-filter"}, {OpCDPStamp, "CDP-stamp"}, {OpCDPVerify, "CDP-verify"},
		{OpSPFilter, "SP-filter"}, {OpCSPStamp, "CSP-stamp"}, {OpCSPVerify, "CSP-verify"},
	}
	var out []string
	for _, n := range names {
		if s.Has(n.op) {
			out = append(out, n.name)
		}
	}
	return strings.Join(out, "+")
}

// TableKind identifies one of the four data-plane function tables
// (§V-A): they match the source/destination addresses of
// inbound/outbound packets.
type TableKind int

const (
	TableInSrc TableKind = iota
	TableInDst
	TableOutSrc
	TableOutDst
	numTables
)

func (k TableKind) String() string {
	switch k {
	case TableInSrc:
		return "In-Src"
	case TableInDst:
		return "In-Dst"
	case TableOutSrc:
		return "Out-Src"
	case TableOutDst:
		return "Out-Dst"
	}
	return fmt.Sprintf("TableKind(%d)", int(k))
}

// anatomyRow describes where one primitive operation of a function is
// installed and by whom, mirroring Table I.
type anatomyRow struct {
	Op    Op
	Table TableKind
	// AtPeer is true for the operations executed by peer DASes (the
	// bold rows of Table I); false for the victim DAS's own operations.
	AtPeer bool
}

// anatomy maps each function to its primitive operations (Table I).
var anatomy = map[Function][]anatomyRow{
	DP:  {{OpDPFilter, TableOutDst, true}},
	CDP: {{OpCDPStamp, TableOutDst, true}, {OpCDPVerify, TableInDst, false}},
	SP:  {{OpSPFilter, TableOutSrc, true}},
	CSP: {{OpCSPStamp, TableOutSrc, false}, {OpCSPVerify, TableInSrc, true}},
}

// DefaultDuration is the suggested invocation duration; §IV-E1 notes
// that more than 93% of DDoS attacks last under 24 hours.
const DefaultDuration = 24 * time.Hour

// DefaultGrace is the tolerance interval at the start and end of a
// cryptographic invocation during which the verification end only
// erases marks without enforcing them (§IV-E1).
const DefaultGrace = 30 * time.Second
