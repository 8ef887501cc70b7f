package topology

import (
	"math/rand"
	"testing"
)

// referenceBFS is the pre-SPF per-pair BFS, kept verbatim as the
// differential-test oracle. It explores the same two-phase state
// machine as the tree builder, one (src,dst) pair at a time.
func referenceBFS(t *Topology, src, dst ASN) ([]ASN, bool) {
	if t.AS(src) == nil || t.AS(dst) == nil {
		return nil, false
	}
	if src == dst {
		return []ASN{src}, true
	}
	type nodeState struct {
		asn ASN
		st  int
	}
	prev := make(map[nodeState]nodeState)
	seen := map[nodeState]bool{{src, stUp}: true}
	queue := []nodeState{{src, stUp}}
	var goal nodeState
	found := false

	push := func(cur, next nodeState) {
		if seen[next] {
			return
		}
		seen[next] = true
		prev[next] = cur
		queue = append(queue, next)
	}

	for len(queue) > 0 && !found {
		cur := queue[0]
		queue = queue[1:]
		a := t.AS(cur.asn)
		var candidates []nodeState
		if cur.st == stUp {
			for _, p := range a.Providers {
				candidates = append(candidates, nodeState{p, stUp})
			}
			for _, p := range a.Peers {
				candidates = append(candidates, nodeState{p, stDown})
			}
		}
		for _, c := range a.Customers {
			candidates = append(candidates, nodeState{c, stDown})
		}
		for _, next := range candidates {
			if next.asn == dst {
				prev[next] = cur
				goal, found = next, true
				break
			}
			push(cur, next)
		}
	}
	if !found {
		return nil, false
	}
	var rev []ASN
	for cur := goal; ; {
		rev = append(rev, cur.asn)
		p, exists := prev[cur]
		if !exists {
			break
		}
		cur = p
	}
	path := make([]ASN, len(rev))
	for i, a := range rev {
		path[len(rev)-1-i] = a
	}
	return path, true
}

// randomTopology builds a small random AS graph with transit AND
// peering links. Higher ASNs act as providers of lower ones, so the
// provider hierarchy is acyclic like the real Internet's.
func randomTopology(t *testing.T, n int, pLink, pPeer float64, seed int64) *Topology {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tp := New()
	for i := 1; i <= n; i++ {
		mustAS(t, tp, ASN(i))
	}
	for a := 1; a <= n; a++ {
		for b := a + 1; b <= n; b++ {
			if rng.Float64() >= pLink {
				continue
			}
			if rng.Float64() < pPeer {
				mustLink(t, tp, ASN(a), ASN(b), PeerToPeer)
			} else {
				mustLink(t, tp, ASN(a), ASN(b), CustomerToProvider)
			}
		}
	}
	return tp
}

// TestPathDifferentialVsBFS: on randomized small topologies the SPF
// trees agree with the per-pair reference BFS — same reachability in
// BOTH directions, new paths valley-free and no longer than the
// reference's.
func TestPathDifferentialVsBFS(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		n := 12 + int(seed)*3
		tp := randomTopology(t, n, 0.18, 0.35, seed)
		for a := 1; a <= n; a++ {
			for b := 1; b <= n; b++ {
				src, dst := ASN(a), ASN(b)
				want, wok := referenceBFS(tp, src, dst)
				got, gok := tp.Path(src, dst)
				if wok != gok {
					t.Fatalf("seed %d: reachability mismatch %d→%d: bfs=%v spf=%v",
						seed, src, dst, wok, gok)
				}
				if !gok {
					continue
				}
				if len(got) > len(want) {
					t.Fatalf("seed %d: %d→%d: spf path %v longer than bfs %v",
						seed, src, dst, got, want)
				}
				if err := tp.ValidateValleyFree(got); err != nil {
					t.Fatalf("seed %d: %d→%d: spf path %v not valley-free: %v",
						seed, src, dst, got, err)
				}
				if got[0] != src || got[len(got)-1] != dst {
					t.Fatalf("seed %d: %d→%d: bad endpoints %v", seed, src, dst, got)
				}
			}
		}
	}
}

// TestPathDifferentialGenerated: same differential check over the
// synthetic-Internet generator (tier-1 clique + transit + peering).
func TestPathDifferentialGenerated(t *testing.T) {
	tp := smallGen(t, 60, 7)
	for a := 1; a <= 60; a++ {
		for b := 1; b <= 60; b++ {
			src, dst := ASN(a), ASN(b)
			want, wok := referenceBFS(tp, src, dst)
			got, gok := tp.Path(src, dst)
			if wok != gok {
				t.Fatalf("reachability mismatch %d→%d: bfs=%v spf=%v", src, dst, wok, gok)
			}
			if gok {
				if len(got) > len(want) {
					t.Fatalf("%d→%d: spf %v longer than bfs %v", src, dst, got, want)
				}
				if err := tp.ValidateValleyFree(got); err != nil {
					t.Fatalf("%d→%d: %v: %v", src, dst, got, err)
				}
			}
		}
	}
}

// TestPathShortestDirectHit pins exact shortest-path lengths on a
// topology shaped to trigger the old computePath direct-hit bug: dst
// is discoverable both through a long provider chain and a short peer
// detour; the reconstructed path must be the short one.
func TestPathShortestDirectHit(t *testing.T) {
	tp := New()
	for i := ASN(1); i <= 6; i++ {
		mustAS(t, tp, i)
	}
	// Long route: 1→2→3→4→6 (climb to 4, then down to 6).
	mustLink(t, tp, 1, 2, CustomerToProvider)
	mustLink(t, tp, 2, 3, CustomerToProvider)
	mustLink(t, tp, 3, 4, CustomerToProvider)
	mustLink(t, tp, 6, 4, CustomerToProvider)
	// Short route: 1→5→6 (climb to 5, peer across... no: 5 peers 6).
	mustLink(t, tp, 1, 5, CustomerToProvider)
	mustLink(t, tp, 5, 6, PeerToPeer)

	p, ok := tp.Path(1, 6)
	if !ok {
		t.Fatal("no path 1→6")
	}
	if len(p) != 3 {
		t.Fatalf("path 1→6 = %v, want length 3 (1 5 6)", p)
	}
	if err := tp.ValidateValleyFree(p); err != nil {
		t.Fatal(err)
	}
	// The reverse direction is also length 3 (6 p2p 5 is forbidden
	// after a descent but legal as the single peer hop: 6→5→1 is
	// peer-then-down — valid and shortest).
	q, ok := tp.Path(6, 1)
	if !ok || len(q) != 3 {
		t.Fatalf("path 6→1 = %v %v, want length 3", q, ok)
	}
}

// TestNextHopMatchesPath: NextHop is exactly Path[1], including along
// intermediate hops of a longer path (the data plane walks NextHop
// hop by hop with a fixed destination).
func TestNextHopMatchesPath(t *testing.T) {
	tp := smallGen(t, 80, 11)
	for a := 1; a <= 80; a += 3 {
		for b := 2; b <= 80; b += 5 {
			src, dst := ASN(a), ASN(b)
			p, ok := tp.Path(src, dst)
			if !ok || len(p) < 2 {
				continue
			}
			for i := 0; i+1 < len(p); i++ {
				hop, ok := tp.NextHop(p[i], dst)
				if !ok {
					t.Fatalf("NextHop(%d,%d) lost the route, path %v", p[i], dst, p)
				}
				if hop != p[i+1] {
					t.Fatalf("NextHop(%d,%d) = %d, want %d (path %v)", p[i], dst, hop, p[i+1], p)
				}
			}
		}
	}
}

// TestGeneratePaperScaleRoutable: the full DefaultGenConfig topology —
// 44 036 ASes WITH links — is connected and valley-free-routable:
// every AS reaches a tier-1 root, and sampled paths validate.
func TestGeneratePaperScaleRoutable(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale topology (44k ASes with links) in -short mode")
	}
	cfg := DefaultGenConfig()
	cfg.SkipLinks = false
	tp, err := GenerateInternet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := tp.NumASes(); got != cfg.NumASes {
		t.Fatalf("NumASes = %d, want %d", got, cfg.NumASes)
	}
	if tp.NumLinks() < cfg.NumASes-1 {
		t.Fatalf("only %d links for %d ASes — cannot be connected", tp.NumLinks(), cfg.NumASes)
	}
	// One tree rooted at tier-1 AS1 answers reachability for every
	// source: the graph is connected and valley-free-routable iff all
	// ASes have a next hop toward the root.
	root := ASN(1)
	for _, asn := range tp.ASNs() {
		if asn == root {
			continue
		}
		if _, ok := tp.NextHop(asn, root); !ok {
			t.Fatalf("AS%d has no valley-free route to tier-1 AS%d", asn, root)
		}
	}
	// Sampled full paths validate end to end.
	asns := tp.ASNs()
	for i := 0; i < len(asns); i += 997 {
		src := asns[i]
		p, ok := tp.Path(src, root)
		if !ok {
			t.Fatalf("no path %d→%d", src, root)
		}
		if err := tp.ValidateValleyFree(p); err != nil {
			t.Fatalf("path %v: %v", p, err)
		}
	}
}

// TestLinkDuplicateRejected: linking the same pair twice errors and
// leaves the adjacency lists unchanged.
func TestLinkDuplicateRejected(t *testing.T) {
	tp := New()
	mustAS(t, tp, 1)
	mustAS(t, tp, 2)
	mustLink(t, tp, 1, 2, CustomerToProvider)
	for _, rel := range []Relationship{CustomerToProvider, ProviderToCustomer, PeerToPeer} {
		if err := tp.Link(1, 2, rel); err == nil {
			t.Fatalf("duplicate Link(1,2,%v) accepted", rel)
		}
		if err := tp.Link(2, 1, rel); err == nil {
			t.Fatalf("duplicate Link(2,1,%v) accepted", rel)
		}
	}
	if d := tp.AS(1).Degree(); d != 1 {
		t.Fatalf("AS1 degree = %d after rejected duplicates, want 1", d)
	}
	if n := tp.NumLinks(); n != 1 {
		t.Fatalf("NumLinks = %d, want 1", n)
	}
}
