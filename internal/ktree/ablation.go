package ktree

import (
	"wrbpg/internal/cdag"
)

// MinCostFullStrategySet evaluates the k-ary DP over the full
// 2^k·k! strategy set of Eq. 3 — including the four dominated
// spill-then-also-reload-the-other entries that Eq. 4 prunes for the
// binary case — with one memo probe per parent of every strategy. It
// always returns the same value as Scheduler.MinCost; the ablation
// benchmark measures what the Scheduler's shortcuts save: the
// skip-source-spill and keep-last skips, making each distinct
// sub-call once per cell, and the budget-interval memo.
func MinCostFullStrategySet(t *Tree, b cdag.Weight) cdag.Weight {
	g := t.G
	memo := map[cdag.NodeID]map[cdag.Weight]cdag.Weight{}
	var pt func(v cdag.NodeID, b cdag.Weight) cdag.Weight
	pt = func(v cdag.NodeID, b cdag.Weight) cdag.Weight {
		if m, ok := memo[v]; ok {
			if c, ok := m[b]; ok {
				return c
			}
		} else {
			memo[v] = map[cdag.Weight]cdag.Weight{}
		}
		var best cdag.Weight
		if g.IsSource(v) {
			if g.Weight(v) <= b {
				best = g.Weight(v)
			} else {
				best = Inf
			}
			memo[v][b] = best
			return best
		}
		parents := g.Parents(v)
		k := len(parents)
		var sum cdag.Weight
		for _, p := range parents {
			sum += g.Weight(p)
		}
		if g.Weight(v)+sum > b {
			memo[v][b] = Inf
			return Inf
		}
		best = Inf
		perm := make([]uint8, k)
		for i := range perm {
			perm[i] = uint8(i)
		}
		var rec func(n int)
		eval := func(order []uint8) {
			for delta := uint16(0); delta < 1<<uint(k); delta++ {
				var cost, held cdag.Weight
				bad := false
				for i := 0; i < k; i++ {
					p := parents[order[i]]
					sub := pt(p, b-held)
					if sub >= Inf {
						bad = true
						break
					}
					cost += sub
					if delta&(1<<uint(i)) != 0 {
						held += g.Weight(p)
					} else {
						cost += 2 * g.Weight(p)
					}
				}
				if !bad && cost < best {
					best = cost
				}
			}
		}
		rec = func(n int) {
			if n == 1 {
				eval(perm)
				return
			}
			for i := 0; i < n; i++ {
				rec(n - 1)
				if n%2 == 0 {
					perm[i], perm[n-1] = perm[n-1], perm[i]
				} else {
					perm[0], perm[n-1] = perm[n-1], perm[0]
				}
			}
		}
		rec(k)
		memo[v][b] = best
		return best
	}
	c := pt(t.Root, b)
	if c >= Inf {
		return Inf
	}
	return c + g.Weight(t.Root)
}
