package dwt

import (
	"fmt"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/stepmemo"
)

// Inf is the sentinel cost of an infeasible subproblem (the ∞ entries
// of Eq. 2).
const Inf = stepmemo.Inf

// strategy identifies one of the four representative parent-scheduling
// strategies of Eq. 4. Keep strategies retain the first parent's red
// pebble while the second parent's subtree is computed under a reduced
// budget; spill strategies write the first parent to slow memory,
// compute the second at full budget, and reload.
type strategy int8

const (
	stratKeepP1  strategy = iota // (4): red p1, red p2 — P(p1,b) + P(p2,b−w1)
	stratKeepP2                  // (8): red p2, red p1 — P(p2,b) + P(p1,b−w2)
	stratSpillP1                 // (3): blue p1, red p2 — P(p1,b) + P(p2,b) + 2w1
	stratSpillP2                 // (7): blue p2, red p1 — P(p2,b) + P(p1,b) + 2w2
)

// Scheduler computes minimum weighted WRBPG schedules for a DWT graph
// via the memoized dynamic program P(v, b) of Lemma 3.3 and generates
// the corresponding move sequences (Algorithm 1). It is the recurrence
// and the move generator over the tree DP engine (stepmemo.DP), which
// owns the memo, its guard, the class cells and the existence bounds,
// and answers MinCost, Schedule, MinMemory, their guarded forms and
// SetWeights. Subproblem solutions are cached across budgets, so
// sweeping budgets on one graph reuses work, and every node of a
// class (equal weights and parent classes) shares one memo row. A
// class ignores the weight of the pruned sibling that Algorithm 1's C
// block computes: P(v, ·) does not read it, since Lemma 3.2 keeps it
// no heavier than v, and Gen reads v's own sibling. It is not safe for
// concurrent use.
type Scheduler struct {
	stepmemo.DP[strategy]
	dg *Graph
	// sib[v] is v's pruned sibling (Graph.Sibling), or cdag.None; it
	// depends on the shape alone.
	sib []cdag.NodeID
}

// NewScheduler validates the weight assumption of Lemma 3.2 and
// returns a scheduler for the graph.
func NewScheduler(dg *Graph) (*Scheduler, error) {
	if err := dg.CheckWeightAssumption(); err != nil {
		return nil, err
	}
	s := &Scheduler{dg: dg, sib: make([]cdag.NodeID, dg.G.Len())}
	for v := range s.sib {
		s.sib[v] = cdag.None
	}
	// The siblings are the pruned (even-index, layer > 1) nodes, the set
	// Graph.PrunedNodes returns as a map.
	pruned := make([]cdag.NodeID, 0, (dg.G.Len()-dg.N)/2)
	for _, l := range dg.Layers[1:] {
		for j := 1; j < len(l); j += 2 {
			s.sib[l[j-1]] = l[j]
			pruned = append(pruned, l[j])
		}
	}
	s.DP = stepmemo.NewDP[strategy]("dwt", dg.G, dg.Roots(), pruned, recurrence{s})
	return s, nil
}

// Reset points the scheduler at dg, a DWT graph of the same shape as
// the one it was built for (the same n and d, as every Graph of one
// Topology has), under any weights. It first checks the Lemma 3.2
// weight assumption, and on failure it returns the error and leaves
// the scheduler as it was. Otherwise it empties the memo, keeping its
// capacity, and refreshes the classes and existence bounds, so the
// next query answers exactly as a NewScheduler(dg) would, without
// allocating.
func (s *Scheduler) Reset(dg *Graph) error {
	if err := dg.CheckWeightAssumption(); err != nil {
		return err
	}
	s.dg = dg
	s.DP.Reset(dg.G)
	return nil
}

// Graph returns the scheduled DWT graph.
func (s *Scheduler) Graph() *Graph { return s.dg }

// recurrence is the Scheduler as its engine calls it
// (stepmemo.Family): the cell of Eq. 1–4 and Algorithm 1's moves.
type recurrence struct{ *Scheduler }

// Check holds a patch to the weight assumption of Lemma 3.2.
func (s recurrence) Check() error { return s.dg.CheckWeightAssumption() }

// Cell computes the cold cell P(v, b) at b ≥ v's existence bound: the
// minimum weighted cost to place a red pebble on v, starting from blue
// pebbles on the subtree's inputs, using at most b red weight inside
// the subtree, and leaving no other red pebbles behind. Its interval
// narrows by those of the four strategies' sub-calls, shifted by the
// red weight held while each ran.
func (s recurrence) Cell(v cdag.NodeID, b cdag.Weight, d int) (stepmemo.Cell[strategy], cdag.Weight, cdag.Weight) {
	g := s.dg.G
	ps := g.Parents(v)
	p1, p2 := ps[0], ps[1]
	w1, w2 := g.Weight(p1), g.Weight(p2)
	lo, hi := -Inf, Inf
	// sub returns P(p, b−shift) and narrows [lo, hi] by its interval.
	sub := func(p cdag.NodeID, shift cdag.Weight) cdag.Weight {
		c, slo, shi := s.Sub(p, b-shift, d+1)
		lo, hi = max(lo, slo+shift), min(hi, shi+shift)
		return c
	}
	add := func(a, b cdag.Weight) cdag.Weight {
		if a >= Inf || b >= Inf {
			return Inf
		}
		return a + b
	}
	a1, a2 := sub(p1, 0), sub(p2, 0)
	// Keep strategies are evaluated first so that ties resolve to
	// them; spill strategies on source parents are strictly dominated
	// (see package tests), so the generator never has to write a blue
	// pebble onto a node that already has one.
	best := stepmemo.Cell[strategy]{Cost: Inf, Arg: stratKeepP1}
	for _, c := range [...]stepmemo.Cell[strategy]{
		{Cost: add(a1, sub(p2, w1)), Arg: stratKeepP1},
		{Cost: add(a2, sub(p1, w2)), Arg: stratKeepP2},
		{Cost: add(add(a1, a2), 2*w1), Arg: stratSpillP1},
		{Cost: add(add(a2, a1), 2*w2), Arg: stratSpillP2},
	} {
		if c.Cost < best.Cost {
			best = c
		}
	}
	return best, lo, hi
}

// Gen emits the moves realizing strategy st of P(v, b) for non-input
// v, leaving a red pebble on v and no other red pebbles in v's
// subtree. It also emits the sibling coefficient's compute/store (the
// C block of Algorithm 1, line 25), whose M2 cost is the pruned-node
// term of Lemma 3.4.
func (s recurrence) Gen(v cdag.NodeID, b cdag.Weight, d int, st strategy, sched *core.Schedule) error {
	g := s.dg.G
	ps := g.Parents(v)
	first, second := ps[0], ps[1]
	if st == stratKeepP2 || st == stratSpillP2 {
		first, second = second, first
	}
	if err := s.Emit(first, b, d+1, sched); err != nil {
		return err
	}
	if st == stratSpillP1 || st == stratSpillP2 {
		if g.IsSource(first) {
			// Strictly dominated by the keep strategy with swapped
			// order; selecting it would make the generated cost
			// diverge from P(v, b).
			return fmt.Errorf("dwt: internal error: spill strategy selected for source parent %d", first)
		}
		*sched = sched.Append(core.Move{Kind: core.M2, Node: first}, core.Move{Kind: core.M4, Node: first})
		if err := s.Emit(second, b, d+1, sched); err != nil {
			return err
		}
		*sched = sched.Append(core.Move{Kind: core.M1, Node: first})
	} else if err := s.Emit(second, b-g.Weight(first), d+1, sched); err != nil {
		return err
	}
	// Both parents now hold red pebbles. Emit the pruned sibling's
	// compute/store/delete, then compute v and release the parents.
	if u := s.sib[v]; u != cdag.None {
		*sched = sched.Append(core.Move{Kind: core.M3, Node: u}, core.Move{Kind: core.M2, Node: u}, core.Move{Kind: core.M4, Node: u})
	}
	*sched = sched.Append(core.Move{Kind: core.M3, Node: v}, core.Move{Kind: core.M4, Node: ps[0]}, core.Move{Kind: core.M4, Node: ps[1]})
	return nil
}
