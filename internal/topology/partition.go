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

import "slices"

// PartitionCones assigns every AS to one of k shards (0..k-1) with
// customer-cone locality and returns the shard of each AS by its dense
// index (see Index). The result is deterministic for a given topology
// and k. k <= 1 yields the all-zero partition.
func (t *Topology) PartitionCones(k int) []int {
	n := len(t.list)
	shard := make([]int, n)
	if k <= 1 {
		return shard
	}

	// Primary provider: the provider with the largest address space
	// (lowest ASN on ties). Provider-free ASes are forest roots. Every
	// table below is indexed by dense index; children is a CSR list
	// (the children of i are kids[first[i]:first[i+1]], in index order).
	parent := make([]int32, n)
	first := make([]int32, n+1)
	var roots []int32
	total := 0
	for i, a := range t.list {
		total += a.Degree() + 1
		parent[i] = -1
		if len(a.Providers) == 0 {
			roots = append(roots, int32(i))
			continue
		}
		best := a.Providers[0]
		for _, p := range a.Providers[1:] {
			sp, sb := t.AS(p).AddrSpace, t.AS(best).AddrSpace
			if sp > sb || (sp == sb && p < best) {
				best = p
			}
		}
		parent[i], _ = t.index.Get(best)
		first[parent[i]+1]++
	}
	for i := 0; i < n; i++ {
		first[i+1] += first[i]
	}
	kids := make([]int32, first[n])
	fill := slices.Clone(first[:n])
	for i, p := range parent {
		if p >= 0 {
			kids[fill[p]] = int32(i)
			fill[p]++
		}
	}

	// Post-order walk of each tree, carving any subtree whose degree
	// weight reaches the threshold into its own group. What remains of
	// a tree after carving is the root's group, so every group is a
	// connected piece of a primary-provider tree.
	threshold := total/(2*k) + 1
	weight := make([]int, n) // group root -> degree weight
	sub := make([]int, n)    // un-carved subtree weight
	var carved []int32
	type frame struct {
		i    int32
		next int32 // next child position in kids to visit
	}
	var stack []frame
	for _, r := range roots {
		stack = append(stack[:0], frame{r, first[r]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < first[f.i+1] {
				c := kids[f.next]
				f.next++
				stack = append(stack, frame{c, first[c]})
				continue
			}
			w := t.list[f.i].Degree() + 1
			for _, c := range kids[first[f.i]:first[f.i+1]] {
				w += sub[c] // 0 if c was carved into its own group
			}
			if w >= threshold && f.i != r {
				carved = append(carved, f.i)
				weight[f.i] = w
				sub[f.i] = 0
			} else {
				sub[f.i] = w
			}
			stack = stack[:len(stack)-1]
		}
		weight[r] = sub[r]
	}
	// Group membership: nearest carved ancestor (or the tree root).
	groupRoots := append(roots, carved...)
	group := make([]int32, n) // AS -> its group root, -1 until known
	for i := range group {
		group[i] = -1
	}
	for _, g := range groupRoots {
		group[g] = g
	}
	var chain []int32
	for i := range t.list {
		chain = chain[:0]
		cur := int32(i)
		for group[cur] < 0 {
			chain = append(chain, cur)
			cur = parent[cur]
		}
		for _, c := range chain {
			group[c] = group[cur]
		}
	}

	// LPT bin packing: heaviest group first onto the lightest shard.
	// Ties broken by ASN / shard index for determinism.
	slices.SortFunc(groupRoots, func(a, b int32) int {
		if wa, wb := weight[a], weight[b]; wa != wb {
			return wb - wa
		}
		return int(t.order[a]) - int(t.order[b])
	})
	load := make([]int, k)
	rootShard := make([]int, n)
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
	for i := range shard {
		shard[i] = rootShard[group[i]]
	}
	return shard
}
