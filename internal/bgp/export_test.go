package bgp

import (
	"discs/internal/netsim"
	"discs/internal/topology"
)

// Session is one neighbour slot of a speaker, for the tests of package
// bgp_test.
type Session struct {
	ASN  topology.ASN
	Rel  topology.Relationship
	Link *netsim.Link
}

// Sessions returns sp's neighbour slots in slot order.
func Sessions(sp *Speaker) []Session {
	out := make([]Session, len(sp.nbrs))
	for i := range sp.nbrs {
		n := &sp.nbrs[i]
		out[i] = Session{ASN: n.asn, Rel: n.rel(), Link: n.link}
	}
	return out
}
