package topology

import "testing"

// byASN keys a partition, which PartitionCones returns by dense index,
// by ASN.
func byASN(tp *Topology, shard []int) map[ASN]int {
	out := make(map[ASN]int, len(shard))
	for i, asn := range tp.ASNs() {
		out[asn] = shard[i]
	}
	return out
}

func TestPartitionConesSmall(t *testing.T) {
	tp := New()
	// Two tier-1s, each with a provider chain below.
	for _, asn := range []ASN{1, 2, 10, 11, 20, 21} {
		if _, err := tp.AddAS(asn); err != nil {
			t.Fatal(err)
		}
	}
	mustLink := func(a, b ASN, r Relationship) {
		t.Helper()
		if err := tp.Link(a, b, r); err != nil {
			t.Fatal(err)
		}
	}
	mustLink(10, 1, CustomerToProvider)
	mustLink(11, 10, CustomerToProvider)
	mustLink(20, 2, CustomerToProvider)
	mustLink(21, 20, CustomerToProvider)
	mustLink(1, 2, PeerToPeer)

	shard := byASN(tp, tp.PartitionCones(2))
	if len(shard) != tp.NumASes() {
		t.Fatalf("partition covers %d ASes, want %d", len(shard), tp.NumASes())
	}
	for asn, s := range shard {
		if s < 0 || s >= 2 {
			t.Fatalf("AS%d assigned out-of-range shard %d", asn, s)
		}
	}
	// Cone locality: each chain stays whole.
	if shard[10] != shard[1] || shard[11] != shard[1] {
		t.Fatalf("cone of AS1 split: %v", shard)
	}
	if shard[20] != shard[2] || shard[21] != shard[2] {
		t.Fatalf("cone of AS2 split: %v", shard)
	}
	// Two equal-weight trees must land on different shards.
	if shard[1] == shard[2] {
		t.Fatalf("both trees on shard %d", shard[1])
	}
}

func TestPartitionConesDegenerate(t *testing.T) {
	tp := New()
	for asn := ASN(1); asn <= 5; asn++ {
		if _, err := tp.AddAS(asn); err != nil {
			t.Fatal(err)
		}
	}
	one := byASN(tp, tp.PartitionCones(1))
	for asn, s := range one {
		if s != 0 {
			t.Fatalf("k=1: AS%d on shard %d", asn, s)
		}
	}
	// More shards than trees: still valid, just sparse.
	many := byASN(tp, tp.PartitionCones(16))
	for asn, s := range many {
		if s < 0 || s >= 16 {
			t.Fatalf("AS%d on shard %d", asn, s)
		}
	}
}

func TestPartitionConesGeneratedBalanceAndDeterminism(t *testing.T) {
	tp, err := GenerateInternet(GenConfig{NumASes: 2000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	shard := byASN(tp, tp.PartitionCones(k))
	again := byASN(tp, tp.PartitionCones(k))
	if len(shard) != tp.NumASes() {
		t.Fatalf("partition covers %d, want %d", len(shard), tp.NumASes())
	}
	for asn, s := range shard {
		if again[asn] != s {
			t.Fatalf("nondeterministic: AS%d got %d then %d", asn, s, again[asn])
		}
	}
	// Locality: most ASes share a shard with their primary
	// (largest-address-space) provider; only carved-subtree roots may
	// be split from it.
	co, tot := 0, 0
	for _, asn := range tp.ASNs() {
		a := tp.AS(asn)
		if len(a.Providers) == 0 {
			continue
		}
		best := a.Providers[0]
		for _, p := range a.Providers[1:] {
			sp, sb := tp.AS(p).AddrSpace, tp.AS(best).AddrSpace
			if sp > sb || (sp == sb && p < best) {
				best = p
			}
		}
		tot++
		if shard[asn] == shard[best] {
			co++
		}
	}
	if frac := float64(co) / float64(tot); frac < 0.85 {
		t.Fatalf("only %.1f%% of ASes share a shard with their primary provider", 100*frac)
	}
	// Load balance by degree weight: no shard should be empty and the
	// heaviest shard should not exceed ~3x the mean (LPT bound is far
	// tighter, but tree granularity on a heavy-tailed topology is
	// lumpy — one tier-1 tree can dominate).
	load := make([]int, k)
	for _, asn := range tp.ASNs() {
		load[shard[asn]] += tp.AS(asn).Degree() + 1
	}
	total := 0
	for _, l := range load {
		total += l
	}
	mean := total / k
	for s, l := range load {
		if l == 0 {
			t.Fatalf("shard %d is empty: %v", s, load)
		}
		if l > 3*mean {
			t.Fatalf("shard %d load %d exceeds 3x mean %d: %v", s, l, mean, load)
		}
	}
}
