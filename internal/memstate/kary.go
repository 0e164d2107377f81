package memstate

import (
	"context"
	"fmt"

	"wrbpg/internal/cdag"
	"wrbpg/internal/guard"
	"wrbpg/internal/perm"
	"wrbpg/internal/stepmemo"
)

// KScheduler generalizes the Pm recursion of Eq. 8 from the paper's
// "for simplicity, we will take the case where k = 2" to arbitrary
// in-degrees up to ktree.MaxK: for every parent permutation σ and
// keep/spill vector δ, the parent computed at position i sees the
// budget reduced by the still-resident initial states of the parents
// computed after it and by the reuse states (plus kept red pebbles)
// of the parents computed before it — the direct product of Eq. 6's
// strategy enumeration with Eq. 8's state threading.
//
// The permutation tables are shared process-wide (package perm) and
// the memo is keyed by packed comparable structs, so evaluating a
// cached cell performs zero allocations.
type KScheduler struct {
	g    *cdag.Graph
	tab  pmTable
	memo stepmemo.Memo
	ix   *setIndex
	anc  []Bitset
}

// maxK mirrors ktree.MaxK (= perm.MaxK); 2^k·k! growth makes anything
// larger impractical anyway.
const maxK = perm.MaxK

// NewKScheduler wraps an in-tree with in-degree at most maxK.
func NewKScheduler(g *cdag.Graph) (*KScheduler, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if !g.IsTree() {
		return nil, fmt.Errorf("memstate: graph is not an in-tree")
	}
	if k := g.MaxInDegree(); k > maxK {
		return nil, fmt.Errorf("memstate: in-degree %d exceeds %d", k, maxK)
	}
	// Warm the shared permutation tables for every arity the tree
	// uses, so DP cells never pay the sync.Once fence on first touch.
	for v := 0; v < g.Len(); v++ {
		if k := g.InDegree(cdag.NodeID(v)); k > 0 {
			perm.Table(k)
		}
	}
	return &KScheduler{
		g:    g,
		ix:   newSetIndex(g.Len()),
		anc:  ancestorMasks(g),
		memo: stepmemo.New(g.Len()),
	}, nil
}

// SetWeights applies weight deltas to the tree and invalidates (via
// generation stamps) exactly the memo cells whose subtree contains a
// changed node: Pm(v, ·, I, R) depends only on weights inside v's
// subtree (Eq. 8), so only the changed nodes' root chains go stale
// (stepmemo.Memo.Patch). The graph is reverted unchanged on any
// error. It returns the number of intervals invalidated and the
// number surviving.
func (s *KScheduler) SetWeights(ds []cdag.WeightDelta) (invalidated, reused int64, err error) {
	return s.memo.Patch(s.g, ds, "memstate", nil, nil)
}

// Restrict returns X_u = X ∩ (pred(u) ∪ {u}).
func (s *KScheduler) Restrict(x Bitset, u cdag.NodeID) Bitset {
	return x.and(s.anc[u])
}

// Cost returns the k-ary Pm(v, b, I_v, R_v).
func (s *KScheduler) Cost(v cdag.NodeID, b cdag.Weight, initial, reuse Bitset) cdag.Weight {
	c, _, _ := s.pmk(v, b, s.Restrict(initial, v), s.Restrict(reuse, v))
	return c
}

// CostCtx is Cost under a cancellation context and resource limits,
// with the same reusable guard and abort semantics as
// Scheduler.CostCtx.
func (s *KScheduler) CostCtx(ctx context.Context, lim guard.Limits, v cdag.NodeID, b cdag.Weight, initial, reuse Bitset) (cdag.Weight, error) {
	s.memo.Begin(ctx, lim)
	defer s.memo.End()
	c := s.Cost(v, b, initial, reuse)
	if err := s.memo.Err(); err != nil {
		return 0, fmt.Errorf("memstate: %w", err)
	}
	return c, nil
}

// PlainCost is Cost with empty states; it coincides with the k-ary
// tree DP Pt.
func (s *KScheduler) PlainCost(v cdag.NodeID, b cdag.Weight) cdag.Weight {
	return s.Cost(v, b, Bitset{}, Bitset{})
}

// pmk holds only the memo probe so warm hits run in a tiny frame; the
// enumeration lives in pmkCold with its large stack arrays. Like
// Scheduler.pm it returns the value together with the budget interval
// [lo, hi] ∋ b on which it is valid.
func (s *KScheduler) pmk(v cdag.NodeID, b cdag.Weight, ini, reuse Bitset) (cdag.Weight, cdag.Weight, cdag.Weight) {
	key := pmKey{v: v, ini: s.ix.handle(ini), reuse: s.ix.handle(reuse)}
	if st := s.tab.get(&s.memo, key, b); st != nil {
		s.memo.Hit()
		return st.V, st.Lo, st.Hi
	}
	return s.pmkCold(key, v, b, ini, reuse)
}

func (s *KScheduler) pmkCold(key pmKey, v cdag.NodeID, b cdag.Weight, ini, reuse Bitset) (cdag.Weight, cdag.Weight, cdag.Weight) {
	// Cancellation checkpoint on the cold path only: warm hits never
	// reach this function. The tripped return carries an empty-width
	// interval so enclosing cells cannot widen around a poisoned value.
	if s.memo.Tick() {
		return Inf, b, b
	}
	g := s.g
	// Guard: v, its parents and its reuse set must co-reside.
	guard := reuse.Weight(g)
	cover := reuse
	if !cover.Has(v) {
		guard += g.Weight(v)
		cover = cover.With(v)
	}
	for _, p := range g.Parents(v) {
		if !cover.Has(p) {
			guard += g.Weight(p)
			cover = cover.With(p)
		}
	}
	var cost cdag.Weight
	lo, hi := guard, Inf
	switch {
	case guard > b:
		cost, lo, hi = Inf, -Inf, guard-1
	case ini.Has(v):
		cost = 0
		reuse.ForEach(func(r cdag.NodeID) {
			if !ini.Has(r) {
				cost += g.Weight(r)
			}
		})
	case g.InDegree(v) == 0:
		cost = g.Weight(v)
	default:
		parents := g.Parents(v)
		k := len(parents)
		// Per-parent restricted states and their weights, in fixed
		// stack arrays so the enumeration allocates nothing beyond the
		// recursive subproblems themselves.
		var iniP, reuseP [maxK]Bitset
		var iniW, reuseW [maxK]cdag.Weight
		var allIniW cdag.Weight
		for i, p := range parents {
			iniP[i] = s.Restrict(ini, p)
			reuseP[i] = s.Restrict(reuse, p)
			iniW[i] = iniP[i].Weight(g)
			reuseW[i] = reuseP[i].Weight(g)
			allIniW += iniW[i]
		}
		best := Inf
		for _, order := range perm.Table(k) {
			for delta := 0; delta < 1<<uint(k); delta++ {
				var total, heldBefore cdag.Weight
				// Initial states of parents not yet computed occupy
				// memory during earlier parents' phases.
				pendingIni := allIniW
				bad := false
				for i := 0; i < k; i++ {
					oi := order[i]
					pendingIni -= iniW[oi] // its own subtree is being computed now
					shift := pendingIni + heldBefore
					sub, slo, shi := s.pmk(parents[oi], b-shift, iniP[oi], reuseP[oi])
					// Intersect the sub-call's validity interval
					// (shifted back to this cell's budget axis) before
					// acting on its value: the enumeration's outcome —
					// including this break — is constant only where
					// every consulted sub-value is.
					lo, hi = max(lo, slo+shift), min(hi, shi+shift)
					if sub >= Inf {
						bad = true
						break
					}
					total += sub
					heldBefore += reuseW[oi]
					if delta&(1<<uint(i)) != 0 {
						// Eq. 8 holds R_p ∪ {p}: no double count when
						// the parent is itself a reuse node.
						if !reuseP[oi].Has(parents[oi]) {
							heldBefore += g.Weight(parents[oi])
						}
					} else {
						total += 2 * g.Weight(parents[oi])
					}
				}
				if !bad && total < best {
					best = total
				}
			}
		}
		cost = best
	}
	return s.tab.store(&s.memo, key, b, lo, hi, cost)
}
