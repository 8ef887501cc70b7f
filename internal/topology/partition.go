// Shard partitioning for the parallel simulation engine
// (internal/netsim). The engine advances shards in lock-step epochs
// bounded by the minimum cross-shard link latency, so a good partition
// (a) keeps chatty neighbors — an AS and its transit providers — in
// the same shard, and (b) balances expected event load across shards.
//
// PartitionCones does both with customer-cone locality: every AS is
// attached to its primary provider (the provider with the most address
// space, a proxy for customer-cone size), which induces a forest of
// primary-provider trees rooted at the provider-free core. Subtrees
// heavier than a load threshold are carved into their own groups (a
// single tier-1's cone can hold most of the Internet, so whole trees
// are too lumpy to balance), then groups are bin-packed onto shards
// largest-first by degree weight — event load is proportional to a
// node's BGP session count, not the node count alone.
package topology

import "sort"

// PartitionCones assigns every AS to one of k shards (0..k-1) with
// customer-cone locality. The result is deterministic for a given
// topology and k. k <= 1 yields the all-zero partition.
func (t *Topology) PartitionCones(k int) map[ASN]int {
	shard := make(map[ASN]int, len(t.order))
	if k <= 1 {
		for _, asn := range t.order {
			shard[asn] = 0
		}
		return shard
	}

	// Primary provider: the provider with the largest address space
	// (lowest ASN on ties). Provider-free ASes are forest roots.
	parent := make(map[ASN]ASN, len(t.order))
	children := make(map[ASN][]ASN, len(t.order))
	var roots []ASN
	total := 0
	for _, asn := range t.order {
		a := t.AS(asn)
		total += a.Degree() + 1
		if len(a.Providers) == 0 {
			roots = append(roots, asn)
			continue
		}
		best := a.Providers[0]
		for _, p := range a.Providers[1:] {
			sp, sb := t.AS(p).AddrSpace, t.AS(best).AddrSpace
			if sp > sb || (sp == sb && p < best) {
				best = p
			}
		}
		parent[asn] = best
		children[best] = append(children[best], asn)
	}

	// Post-order walk of each tree, carving any subtree whose degree
	// weight reaches the threshold into its own group. What remains of
	// a tree after carving is the root's group, so every group is a
	// connected piece of a primary-provider tree.
	threshold := total/(2*k) + 1
	group := make(map[ASN]ASN, len(t.order)) // AS -> its group root
	weight := make(map[ASN]int, 2*k)         // group root -> degree weight
	var carved []ASN
	type frame struct {
		asn  ASN
		next int // next child index to visit
	}
	sub := make(map[ASN]int, len(t.order)) // un-carved subtree weight
	for _, r := range roots {
		stack := []frame{{asn: r}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			kids := children[f.asn]
			if f.next < len(kids) {
				c := kids[f.next]
				f.next++
				stack = append(stack, frame{asn: c})
				continue
			}
			w := t.AS(f.asn).Degree() + 1
			for _, c := range kids {
				w += sub[c] // 0 if c was carved into its own group
			}
			if w >= threshold && f.asn != r {
				carved = append(carved, f.asn)
				weight[f.asn] = w
				sub[f.asn] = 0
			} else {
				sub[f.asn] = w
			}
			stack = stack[:len(stack)-1]
		}
		weight[r] = sub[r]
	}
	// Group membership: nearest carved ancestor (or the tree root).
	groupRoots := append(append([]ASN(nil), roots...), carved...)
	isRoot := make(map[ASN]bool, len(groupRoots))
	for _, g := range groupRoots {
		isRoot[g] = true
	}
	var chain []ASN
	for _, asn := range t.order {
		chain = chain[:0]
		cur := asn
		for !isRoot[cur] {
			if g, ok := group[cur]; ok {
				cur = g
				break
			}
			chain = append(chain, cur)
			cur = parent[cur]
		}
		group[asn] = cur
		for _, c := range chain {
			group[c] = cur
		}
	}

	// LPT bin packing: heaviest group first onto the lightest shard.
	// Ties broken by ASN / shard index for determinism.
	sort.Slice(groupRoots, func(i, j int) bool {
		wi, wj := weight[groupRoots[i]], weight[groupRoots[j]]
		if wi != wj {
			return wi > wj
		}
		return groupRoots[i] < groupRoots[j]
	})
	load := make([]int, k)
	rootShard := make(map[ASN]int, len(groupRoots))
	for _, g := range groupRoots {
		min := 0
		for s := 1; s < k; s++ {
			if load[s] < load[min] {
				min = s
			}
		}
		rootShard[g] = min
		load[min] += weight[g]
	}
	for _, asn := range t.order {
		shard[asn] = rootShard[group[asn]]
	}
	return shard
}
