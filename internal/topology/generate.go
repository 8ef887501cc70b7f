package topology

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
)

// GenConfig parameterizes the synthetic Internet generator.
type GenConfig struct {
	// NumASes is the number of autonomous systems. The paper's CAIDA
	// snapshot has 44 036.
	NumASes int
	// NumPrefixes is the approximate number of routable IPv4 prefixes
	// to allocate (the paper reports ~442k).
	NumPrefixes int
	// ZipfExponent shapes the head of the address-space distribution
	// (ranks 1..HeadRanks when HeadRanks > 0, all ranks otherwise).
	ZipfExponent float64
	// HeadRanks, when positive, switches the distribution to a
	// piecewise Pareto: ranks beyond HeadRanks decay with TailExponent
	// (continuously joined). The real 2012 prefix-to-AS distribution
	// has a very heavy head — the paper's checkpoints imply the 50
	// largest ASes hold ~52% of routable space and the 629 largest
	// ~90% — which a single Zipf cannot reproduce; the defaults are
	// calibrated to those checkpoints (see EXPERIMENTS.md).
	HeadRanks    int
	TailExponent float64
	// TierOneCount is the number of fully-meshed tier-1 transit ASes.
	TierOneCount int
	// Seed makes generation reproducible.
	Seed int64
	// SkipLinks disables relationship-graph generation; the evaluation
	// math only needs address-space ratios, and skipping links makes
	// 44k-AS generation fast.
	SkipLinks bool
}

// DefaultGenConfig returns the paper-scale configuration.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		NumASes:      44036,
		NumPrefixes:  442000,
		ZipfExponent: 0.95,
		HeadRanks:    629,
		TailExponent: 2.5,
		TierOneCount: 12,
		Seed:         1,
	}
}

// GenerateInternet builds a synthetic AS-level Internet:
//
//   - AS sizes follow a Zipf distribution over ranks: the k-th largest
//     AS gets address space proportional to 1/k^s. Sizes are assigned
//     to ASNs in a seeded random permutation so ASN order carries no
//     information.
//   - Each AS's space is carved into CIDR prefixes allocated
//     sequentially from 1.0.0.0 upward, so prefixes are disjoint and
//     the Pfx2AS table is exact.
//   - Unless SkipLinks is set, a preferential-attachment multi-tier
//     provider graph is generated: tier-1 ASes form a full peer mesh,
//     every other AS buys transit from 1-2 providers chosen with
//     probability proportional to current degree, and a sprinkling of
//     peering links is added between similar-degree ASes.
func GenerateInternet(cfg GenConfig) (*Topology, error) {
	if cfg.NumASes < 1 {
		return nil, fmt.Errorf("topology: NumASes %d < 1", cfg.NumASes)
	}
	if cfg.NumPrefixes < cfg.NumASes {
		cfg.NumPrefixes = cfg.NumASes
	}
	if cfg.ZipfExponent <= 0 {
		cfg.ZipfExponent = 1.0
	}
	if cfg.TierOneCount < 1 {
		cfg.TierOneCount = 1
	}
	if cfg.TierOneCount > cfg.NumASes {
		cfg.TierOneCount = cfg.NumASes
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := New()

	n := cfg.NumASes
	t.reserve(n)
	for i := 1; i <= n; i++ {
		t.add(ASN(i))
	}

	// --- Address space ---------------------------------------------------
	// Zipf weights over ranks. Scale so the total is a large fraction of
	// the routable IPv4 space (~2.8e9 addresses) while the largest AS
	// stays below a /6 (so it can be carved into a few prefixes).
	weights := make([]float64, n)
	var wsum float64
	tailC := 1.0
	if cfg.HeadRanks > 0 && cfg.TailExponent > 0 {
		// Continuity at the head/tail break: C·H^-α2 = H^-α1.
		tailC = math.Pow(float64(cfg.HeadRanks), cfg.TailExponent-cfg.ZipfExponent)
	}
	for k := 0; k < n; k++ {
		rank := float64(k + 1)
		var w float64
		if cfg.HeadRanks > 0 && cfg.TailExponent > 0 && k+1 > cfg.HeadRanks {
			w = tailC / math.Pow(rank, cfg.TailExponent)
		} else {
			w = 1 / math.Pow(rank, cfg.ZipfExponent)
		}
		weights[k] = w
		wsum += w
	}
	// 2012-era routable IPv4 space was ~2.6e9 addresses; use a slightly
	// smaller budget so carving round-up cannot run off the end of the
	// address space.
	const routable = 2_200_000_000
	// Random permutation: rank k's size goes to ASN perm[k]+1.
	perm := rng.Perm(n)

	// Each rank's prefixes: how many, and of which length. Every AS
	// gets one rank, so the counts size the prefix lists before any
	// prefix is added.
	type block struct {
		bits  uint8
		count int
	}
	blocks := make([]block, n)
	extra := cfg.NumPrefixes - n
	total := 0
	for k := 0; k < n; k++ {
		size := uint64(float64(routable) * weights[k] / wsum)
		if size < 1 {
			size = 1
		}
		// Prefix budget: one guaranteed, half the extra budget spread
		// uniformly, half by weight (big ASes announce many prefixes).
		nPfx := 1 + extra/(2*n) + int(float64(extra)/2*weights[k]/wsum)
		if nPfx > 64 {
			nPfx = 64
		}
		bits, count := carve(size, nPfx)
		blocks[k] = block{bits, count}
		total += count
	}

	// Allocate prefixes sequentially from 1.0.0.0. A 64-bit cursor
	// detects (deterministically, given the seed) if round-up and
	// alignment waste ever exhaust the IPv4 space.
	t.prefixes.Reserve(total)
	next := uint64(1 << 24) // 1.0.0.0
	for k, b := range blocks {
		a := t.list[perm[k]] // AS perm[k]+1
		a.Prefixes = t.prefixes.Take(b.count)[:0]
		// Align the allocation cursor to the prefix size.
		blk := uint64(1) << (32 - b.bits)
		for range b.count {
			next = (next + blk - 1) &^ (blk - 1)
			if next+blk > 1<<32 {
				return nil, fmt.Errorf("topology: address space exhausted at AS rank %d", k)
			}
			addr := netip.AddrFrom4([4]byte{byte(next >> 24), byte(next >> 16), byte(next >> 8), byte(next)})
			if err := t.addPrefix(a, netip.PrefixFrom(addr, int(b.bits))); err != nil {
				return nil, err
			}
			next += blk
		}
	}

	if cfg.SkipLinks {
		return t, nil
	}

	// --- Relationship graph ----------------------------------------------
	// The links are collected first and added at once (linkAll), so
	// every neighbour list is sized once. Tier-1 full mesh.
	tier1 := cfg.TierOneCount
	links := make([]link, 0, tier1*(tier1-1)/2+2*(n-tier1))
	for i := 1; i <= tier1; i++ {
		for j := i + 1; j <= tier1; j++ {
			links = append(links, link{ASN(i), ASN(j), PeerToPeer})
		}
	}
	// Preferential attachment for transit.
	pool := make([]ASN, 0, tier1*(tier1-1)+4*(n-tier1)) // one entry per degree unit, for O(1) weighted pick
	for i := 1; i <= tier1; i++ {
		for d := 0; d < tier1-1; d++ {
			pool = append(pool, ASN(i))
		}
	}
	for i := tier1 + 1; i <= n; i++ {
		// Providers are picked among the i-1 ASes before this one: with
		// a single tier-1, the first AS after it has one to choose from.
		nProv := min(1+rng.Intn(2), i-1)
		// A new AS links only to the providers it picks here, so a
		// pick is new unless it is the AS itself or its first pick.
		var chosen [2]ASN
		for k := 0; k < nProv; {
			var p ASN
			if len(pool) == 0 {
				p = ASN(1 + rng.Intn(tier1))
			} else {
				p = pool[rng.Intn(len(pool))]
			}
			if p == ASN(i) || p == chosen[0] {
				continue
			}
			chosen[k] = p
			k++
			links = append(links, link{ASN(i), p, CustomerToProvider})
			pool = append(pool, ASN(i), p)
		}
	}
	t.linkAll(links)

	// Sprinkle peering links: ~5% of ASes get one lateral peer.
	nPeerings := n / 20
	links = links[:0]
	picked := make(map[[2]ASN]bool, nPeerings)
	for k := 0; k < nPeerings; k++ {
		a := ASN(1 + rng.Intn(n))
		b := ASN(1 + rng.Intn(n))
		pair := [2]ASN{min(a, b), max(a, b)}
		if a == b || picked[pair] || t.connected(a, b) {
			continue
		}
		picked[pair] = true
		links = append(links, link{a, b, PeerToPeer})
	}
	t.linkAll(links)
	return t, nil
}

// carve splits `size` addresses into count equal power-of-two CIDR
// blocks of length bits: the block is the smallest power of two that
// covers size within the nPfx budget, clamped to [/28, /8]. The blocks
// cover at least `size` addresses; the count stays within nPfx unless
// size alone exceeds nPfx /8-blocks (the budget then yields to
// coverage).
func carve(size uint64, nPfx int) (bits uint8, count int) {
	if size == 0 {
		size = 1
	}
	if nPfx < 1 {
		nPfx = 1
	}
	per := (size + uint64(nPfx) - 1) / uint64(nPfx)
	block := pow2Ceil(per)
	if block < 1<<4 {
		block = 1 << 4 // /28 floor: keep prefixes realistic
	}
	if block > 1<<24 {
		block = 1 << 24 // /8 ceiling
	}
	count = int((size + block - 1) / block)
	if count < 1 {
		count = 1
	}
	bits = 32
	for b := block; b > 1; b >>= 1 {
		bits--
	}
	return bits, count
}

// pow2Ceil returns the smallest power of two ≥ v.
func pow2Ceil(v uint64) uint64 {
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}
