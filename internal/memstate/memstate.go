// Package memstate extends the k-ary tree pebbling procedure with
// user-defined fast memory states (Section 4.1 of the paper, Eq. 8,
// for k = 2).
//
// The user supplies an initial state I ⊆ V — nodes already resident
// in fast memory before the target node v is computed — and a reuse
// state R ⊆ V — nodes that must be resident after v has been
// computed. Pm(v, b, I, R) is the minimum weighted cost of computing
// v under budget b while honouring those states. For a node u,
// X_u ≜ X ∩ (pred(u) ∪ {u}) restricts a state to u's subtree; budget
// adjustments thread the states through the two parents according to
// their computation order exactly as in Eq. 8.
//
// Section 4.3 builds the MVM tiling on these states; package mvm
// prices its tiles in closed form, so this package stands as the
// reproduction of Eq. 8 itself, pinned in docs/TRACEABILITY.md.
//
// States are packed bitset.Sets and memo keys are comparable structs
// (see memo.go), so a memoized Pm lookup performs zero allocations;
// subtree restriction is a single mask intersection against
// precomputed ancestor masks.
package memstate

import (
	"fmt"
	"sort"
	"strings"

	"wrbpg/internal/bitset"
	"wrbpg/internal/cdag"
	"wrbpg/internal/stepmemo"
)

// Inf is the sentinel cost of an infeasible subproblem.
const Inf = stepmemo.Inf

// Scheduler evaluates Pm on a binary in-tree.
type Scheduler struct {
	g   *cdag.Graph
	tab pmTable
	ix  *bitset.Index
	anc []bitset.Set
}

// NewScheduler wraps a binary in-tree (every in-degree 0 or 2, unique
// sink); Eq. 8 is stated for k = 2. The scheduler memoizes g's weights
// as they are: after changing one, build a new scheduler.
func NewScheduler(g *cdag.Graph) (*Scheduler, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if !g.IsTree() {
		return nil, fmt.Errorf("memstate: graph is not an in-tree")
	}
	for v := 0; v < g.Len(); v++ {
		if d := g.InDegree(cdag.NodeID(v)); d != 0 && d != 2 {
			return nil, fmt.Errorf("memstate: node %d has in-degree %d; Eq. 8 requires a binary tree", v, d)
		}
	}
	return &Scheduler{g: g, ix: bitset.NewIndex(g.Len()), anc: ancestorMasks(g)}, nil
}

// Restrict returns X_u = X ∩ (pred(u) ∪ {u}) — one mask intersection.
func (s *Scheduler) Restrict(x bitset.Set, u cdag.NodeID) bitset.Set {
	return x.And(s.anc[u])
}

// Cost returns Pm(v, b, I_v, R_v) per Eq. 8. The caller's I and R are
// restricted to v's subtree internally, so passing global states is
// safe.
func (s *Scheduler) Cost(v cdag.NodeID, b cdag.Weight, initial, reuse bitset.Set) cdag.Weight {
	c, _, _ := s.pm(v, b, s.Restrict(initial, v), s.Restrict(reuse, v))
	return c
}

// pm returns Pm(v, b, I, R) together with the budget interval
// [lo, hi] ∋ b on which that value holds. Every case below derives
// its interval from quantities independent of b (the co-residency
// guard, node weights) intersected with the shifted intervals of the
// sub-calls it consulted — on that intersection every consulted value
// is constant, so the minimum is too.
func (s *Scheduler) pm(v cdag.NodeID, b cdag.Weight, ini, reuse bitset.Set) (cdag.Weight, cdag.Weight, cdag.Weight) {
	key := pmKey{v: v, ini: s.ix.Handle(ini), reuse: s.ix.Handle(reuse)}
	if st := s.tab.get(key, b); st != nil {
		return st.V, st.Lo, st.Hi
	}
	g := s.g
	// Budget guard: v, its parents and its reuse set must co-reside.
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
		// v already resident: only bring in reuse nodes not yet in
		// fast memory (they hold blue pebbles).
		cost = 0
		reuse.ForEach(func(r cdag.NodeID) {
			if !ini.Has(r) {
				cost += g.Weight(r)
			}
		})
	case g.InDegree(v) == 0:
		cost = g.Weight(v)
	default:
		ps := g.Parents(v)
		p1, p2 := ps[0], ps[1]
		i1, i2 := s.Restrict(ini, p1), s.Restrict(ini, p2)
		r1, r2 := s.Restrict(reuse, p1), s.Restrict(reuse, p2)
		w1, w2 := g.Weight(p1), g.Weight(p2)

		add := func(xs ...cdag.Weight) cdag.Weight {
			var t cdag.Weight
			for _, x := range xs {
				if x >= Inf {
					return Inf
				}
				t += x
			}
			return t
		}
		// W(R_p ∪ {p}): the kept parent's weight, not double-counted
		// when the parent is itself in its reuse set.
		unionW := func(x bitset.Set, p cdag.NodeID) cdag.Weight {
			w := x.Weight(g)
			if !x.Has(p) {
				w += g.Weight(p)
			}
			return w
		}
		// sub evaluates one sub-call at budget b-shift and intersects
		// its validity interval (shifted back) into [lo, hi].
		sub := func(p cdag.NodeID, shift cdag.Weight, pi, pr bitset.Set) cdag.Weight {
			c, slo, shi := s.pm(p, b-shift, pi, pr)
			lo, hi = max(lo, slo+shift), min(hi, shi+shift)
			return c
		}

		// Strategy: p1 first. Its budget excludes p2's initially
		// resident nodes; p2's budget then excludes p1's reuse nodes
		// (plus p1 itself if kept red). The six distinct sub-calls are
		// hoisted so each is consulted (and intersected) once.
		first1 := sub(p1, i2.Weight(g), i1, r1)
		first2 := sub(p2, i1.Weight(g), i2, r2)
		spill1 := add(first1, sub(p2, r1.Weight(g), i2, r2), 2*w1)
		keep1 := add(first1, sub(p2, unionW(r1, p1), i2, r2))
		spill2 := add(first2, sub(p1, r2.Weight(g), i1, r1), 2*w2)
		keep2 := add(first2, sub(p1, unionW(r2, p2), i1, r1))

		cost = keep1
		for _, c := range []cdag.Weight{keep2, spill1, spill2} {
			if c < cost {
				cost = c
			}
		}
		if cost >= Inf {
			cost = Inf
		}
	}
	s.tab.row(key).Store(b, stepmemo.Step[cdag.Weight]{Lo: lo, Hi: hi, V: cost})
	return cost, lo, hi
}

// PlainCost returns Pm with empty states, which coincides with the
// k-ary tree DP Pt for binary trees — the consistency property tested
// in this package.
func (s *Scheduler) PlainCost(v cdag.NodeID, b cdag.Weight) cdag.Weight {
	return s.Cost(v, b, bitset.Set{}, bitset.Set{})
}

// Root returns the unique sink of the tree.
func (s *Scheduler) Root() cdag.NodeID { return s.g.Sinks()[0] }

// Describe renders a state compactly for error messages and logs.
func Describe(g *cdag.Graph, set bitset.Set) string {
	ids := set.Sorted()
	parts := make([]string, len(ids))
	for i, id := range ids {
		name := g.Name(id)
		if name == "" {
			name = fmt.Sprintf("v%d", id)
		}
		parts[i] = name
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, " ") + "}"
}
