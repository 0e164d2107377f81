package memstate

import (
	"fmt"

	"wrbpg/internal/bitset"
	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
)

// This file turns the Pm cost recursion into executable move
// fragments. A fragment starts from a state where the initial-state
// nodes I hold red pebbles (fast-memory-resident, not backed in slow
// memory), all other sources hold blue pebbles, and everything else
// is empty; it ends with the target node red, every reuse node R red,
// and no other red pebbles in the target's subtree.
//
// The generator can beat Pm by one node weight per spilled source:
// a source already holds a blue pebble, so its "spill" needs no M2.
// Fragments therefore satisfy cost ≤ Pm (never worse), which the
// package tests assert, alongside full rule-validation via
// core.SimulateFrom.

type choice int8

const (
	choiceNone choice = iota
	choiceKeep1
	choiceKeep2
	choiceSpill1
	choiceSpill2
)

// choices mirrors the memo of pm; it is filled lazily by pmChoice.
func (s *Scheduler) pmChoice(v cdag.NodeID, b cdag.Weight, ini, reuse bitset.Set) choice {
	g := s.g
	if ini.Has(v) || g.InDegree(v) == 0 {
		return choiceNone
	}
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
	unionW := func(x bitset.Set, p cdag.NodeID) cdag.Weight {
		w := x.Weight(g)
		if !x.Has(p) {
			w += g.Weight(p)
		}
		return w
	}
	pm := func(p cdag.NodeID, pb cdag.Weight, pi, pr bitset.Set) cdag.Weight {
		c, _, _ := s.pm(p, pb, pi, pr)
		return c
	}
	keep1 := add(pm(p1, b-i2.Weight(g), i1, r1), pm(p2, b-unionW(r1, p1), i2, r2))
	keep2 := add(pm(p2, b-i1.Weight(g), i2, r2), pm(p1, b-unionW(r2, p2), i1, r1))
	spill1 := add(pm(p1, b-i2.Weight(g), i1, r1), pm(p2, b-r1.Weight(g), i2, r2), 2*w1)
	spill2 := add(pm(p2, b-i1.Weight(g), i2, r2), pm(p1, b-r2.Weight(g), i1, r1), 2*w2)

	best, c := keep1, choiceKeep1
	if keep2 < best {
		best, c = keep2, choiceKeep2
	}
	if spill1 < best {
		best, c = spill1, choiceSpill1
	}
	if spill2 < best {
		best, c = spill2, choiceSpill2
	}
	_ = best
	return c
}

// StartLabels returns the label vector of a fragment's starting
// state: initial-state nodes red (fast-memory-only); sources blue
// (the game's starting condition); and reuse nodes outside the
// initial state blue as well — Section 4.1's assumption that reuse
// values "have blue pebbles on them and do not need to be
// recomputed".
func (s *Scheduler) StartLabels(ini, reuse bitset.Set) []core.Label {
	labels := make([]core.Label, s.g.Len())
	for _, v := range s.g.Sources() {
		labels[v] = core.LabelBlue
	}
	reuse.ForEach(func(v cdag.NodeID) {
		if !ini.Has(v) {
			labels[v] = core.LabelBlue
		}
	})
	ini.ForEach(func(v cdag.NodeID) {
		labels[v] = core.LabelRed
	})
	return labels
}

// Schedule generates a fragment realizing Pm(v, b, I_v, R_v): it
// computes v (unless v ∈ I) while honouring the initial and reuse
// memory states. Replay it with core.SimulateFrom from a state built
// with StartLabels.
func (s *Scheduler) Schedule(v cdag.NodeID, b cdag.Weight, initial, reuse bitset.Set) (core.Schedule, error) {
	ini := s.Restrict(initial, v)
	r := s.Restrict(reuse, v)
	if c, _, _ := s.pm(v, b, ini, r); c >= Inf {
		return nil, fmt.Errorf("memstate: Pm(%d, %d, %s, %s) is infeasible",
			v, b, Describe(s.g, ini), Describe(s.g, r))
	}
	var out core.Schedule
	// Initial-state nodes shadowed by another initial-state node on
	// their path to v are never visited by the recursion; they would
	// sit in fast memory unaccounted by Eq. 8's budget adjustments,
	// so the fragment frees them first (they are not part of the
	// post-state contract unless they are reuse nodes).
	for _, m := range ini.Sorted() {
		if r.Has(m) {
			continue
		}
		if s.shadowed(m, v, ini) {
			out = append(out, core.Move{Kind: core.M4, Node: m})
		}
	}
	if err := s.gen(v, b, ini, r, ini, r, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// shadowed reports whether another initial-state node lies on the
// path from m (exclusive) to v (inclusive) — in an in-tree the path
// is the unique child chain.
func (s *Scheduler) shadowed(m, v cdag.NodeID, ini bitset.Set) bool {
	cur := m
	for cur != v {
		cs := s.g.Children(cur)
		if len(cs) == 0 {
			return false
		}
		cur = cs[0]
		if ini.Has(cur) {
			return true
		}
	}
	return false
}

// gen emits the fragment for one subtree. globalIni and globalReuse
// carry the caller's full state sets, so spill emission can tell
// whether a node already holds a blue pebble (sources and reuse nodes
// outside the initial state start blue) and parent releases can tell
// whether a parent must stay resident.
func (s *Scheduler) gen(v cdag.NodeID, b cdag.Weight, ini, reuse, globalIni, globalReuse bitset.Set, out *core.Schedule) error {
	g := s.g
	if ini.Has(v) {
		// v already resident: only fetch missing reuse nodes, which
		// hold blue pebbles by assumption (Section 4.1).
		for _, r := range reuse.Sorted() {
			if !ini.Has(r) {
				*out = append(*out, core.Move{Kind: core.M1, Node: r})
			}
		}
		return nil
	}
	if g.InDegree(v) == 0 {
		*out = append(*out, core.Move{Kind: core.M1, Node: v})
		return nil
	}
	ps := g.Parents(v)
	p1, p2 := ps[0], ps[1]
	c := s.pmChoice(v, b, ini, reuse)
	first, second := p1, p2
	if c == choiceKeep2 || c == choiceSpill2 {
		first, second = p2, p1
	}
	spill := c == choiceSpill1 || c == choiceSpill2
	iF, iS := s.Restrict(ini, first), s.Restrict(ini, second)
	rF, rS := s.Restrict(reuse, first), s.Restrict(reuse, second)

	if err := s.gen(first, b-iS.Weight(g), iF, rF, globalIni, globalReuse, out); err != nil {
		return err
	}
	if spill {
		// Nodes that started with blue pebbles — sources and reuse
		// nodes outside the initial state — need no write-back.
		startBlue := !globalIni.Has(first) && (g.IsSource(first) || globalReuse.Has(first))
		if !startBlue {
			*out = append(*out, core.Move{Kind: core.M2, Node: first})
		}
		*out = append(*out, core.Move{Kind: core.M4, Node: first})
		if err := s.gen(second, b-rF.Weight(g), iS, rS, globalIni, globalReuse, out); err != nil {
			return err
		}
		*out = append(*out, core.Move{Kind: core.M1, Node: first})
	} else {
		heldFirst := rF.Weight(g)
		if !rF.Has(first) {
			heldFirst += g.Weight(first)
		}
		if err := s.gen(second, b-heldFirst, iS, rS, globalIni, globalReuse, out); err != nil {
			return err
		}
	}
	*out = append(*out, core.Move{Kind: core.M3, Node: v})
	// Release parents the reuse state does not demand. Initial-state
	// parents are released too: Eq. 8 charges only R_p (not I_p)
	// against the remaining budget once a parent's subtree is done,
	// so initial residents not in R must leave after their single use
	// (each tree node has exactly one child).
	for _, p := range ps {
		if !globalReuse.Has(p) {
			*out = append(*out, core.Move{Kind: core.M4, Node: p})
		}
	}
	return nil
}
