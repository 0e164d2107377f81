package dwt

import (
	"context"
	"fmt"
	"math"
	"slices"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
	"wrbpg/internal/memdesign"
)

// Inf is the sentinel cost of an infeasible subproblem (the ∞ entries
// of Eq. 2). It is large enough that sums of Inf with node weights
// never overflow int64.
const Inf cdag.Weight = math.MaxInt64 / 4

// strategy identifies one of the four representative parent-scheduling
// strategies of Eq. 4. Keep strategies retain the first parent's red
// pebble while the second parent's subtree is computed under a reduced
// budget; spill strategies write the first parent to slow memory,
// compute the second at full budget, and reload.
type strategy int8

const (
	stratLeaf    strategy = iota - 1 // base case: M1 on an input
	stratKeepP1                      // (4): red p1, red p2 — P(p1,b) + P(p2,b−w1)
	stratKeepP2                      // (8): red p2, red p1 — P(p2,b) + P(p1,b−w2)
	stratSpillP1                     // (3): blue p1, red p2 — P(p1,b) + P(p2,b) + 2w1
	stratSpillP2                     // (7): blue p2, red p1 — P(p2,b) + P(p1,b) + 2w2
)

type entry struct {
	cost   cdag.Weight
	choice strategy
	valid  bool
}

// Scheduler computes minimum weighted WRBPG schedules for a DWT graph
// via the memoized dynamic program P(v, b) of Lemma 3.3 and generates
// the corresponding move sequences (Algorithm 1). A Scheduler caches
// subproblem solutions across budgets, so sweeping budgets on one
// graph reuses work.
//
// The memo is a per-node slice indexed by a dense budget index:
// distinct budgets get consecutive indices as they are first seen, so
// a P(v, b) cache hit is one small map probe and a slice load instead
// of two map lookups, with zero allocations.
type Scheduler struct {
	dg        *Graph
	budgetIdx map[cdag.Weight]int
	memo      [][]entry
	// roots and pruned cache Graph.Roots / Graph.PrunedNodes, so MinCost
	// iterates plain slices instead of allocating per call — required by
	// the zero-allocation warm query and patch paths.
	roots  []cdag.NodeID
	pruned []cdag.NodeID
	// live counts currently valid memo cells; SetWeights reports it as
	// the reused-cell count after an invalidation.
	live int64
	// mark/epoch/stack are the SetWeights cone-walk scratch: mark[v]
	// equal to the current epoch means v's row is already cleared in
	// this patch, so overlapping descendant cones are walked once.
	mark  []uint32
	epoch uint32
	stack []cdag.NodeID
	saved []cdag.Weight
	// ck, when non-nil, is the active cancellation/budget guard of a
	// *Ctx call. The DP checks it per cell and never memoizes results
	// computed after it trips, so an aborted solve cannot poison later
	// ones. nil (the default) costs one pointer test per cell.
	ck *guard.Checker
}

// NewScheduler validates the weight assumption of Lemma 3.2 and
// returns a scheduler for the graph.
func NewScheduler(dg *Graph) (*Scheduler, error) {
	if err := dg.CheckWeightAssumption(); err != nil {
		return nil, err
	}
	// Pruned (even-index, layer > 1) nodes in ID order, mirroring
	// Graph.PrunedNodes without its map.
	var pruned []cdag.NodeID
	for i := 2; i <= dg.D+1; i++ {
		l := dg.Layers[i-1]
		for j := 2; j <= len(l); j += 2 {
			pruned = append(pruned, l[j-1])
		}
	}
	return &Scheduler{
		dg:        dg,
		budgetIdx: map[cdag.Weight]int{},
		memo:      make([][]entry, dg.G.Len()),
		roots:     dg.Roots(),
		pruned:    pruned,
		mark:      make([]uint32, dg.G.Len()),
	}, nil
}

// SetWeights applies weight deltas to the graph and invalidates
// exactly the memo cells whose value can change: P(v, b) depends only
// on weights inside v's subtree (Lemma 3.3), so a change at u dirties
// the rows of u and its descendants and nothing else. Deltas are
// validated (positive weights, in-range nodes, the Lemma 3.2 weight
// assumption must still hold afterwards) and the graph is reverted
// unchanged on any error. It returns the number of cells cleared and
// the number surviving; rows keep their capacity, so re-solving after
// a patch allocates nothing in steady state.
func (s *Scheduler) SetWeights(ds []cdag.WeightDelta) (invalidated, reused int64, err error) {
	g := s.dg.G
	s.saved = s.saved[:0]
	applied := 0
	for _, d := range ds {
		var old cdag.Weight
		if int(d.Node) >= 0 && int(d.Node) < g.Len() {
			old = g.Weight(d.Node)
		}
		if err := g.TrySetWeight(d.Node, d.Weight); err != nil {
			s.revert(ds, applied)
			return 0, 0, fmt.Errorf("dwt: patch: %w", err)
		}
		s.saved = append(s.saved, old)
		applied++
	}
	if err := s.dg.CheckWeightAssumption(); err != nil {
		s.revert(ds, applied)
		return 0, 0, err
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: every stale mark now looks current
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 1
	}
	stack := s.stack[:0]
	for _, d := range ds {
		stack = append(stack, d.Node)
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.mark[v] == s.epoch {
			continue
		}
		s.mark[v] = s.epoch
		row := s.memo[v]
		for i := range row {
			if row[i].valid {
				invalidated++
				row[i] = entry{}
			}
		}
		stack = append(stack, g.Children(v)...)
	}
	s.stack = stack
	s.live -= invalidated
	return invalidated, s.live, nil
}

// revert restores the first applied weights of a failed SetWeights, in
// reverse order so duplicate-node delta lists unwind correctly.
func (s *Scheduler) revert(ds []cdag.WeightDelta, applied int) {
	for j := applied - 1; j >= 0; j-- {
		s.dg.G.SetWeight(ds[j].Node, s.saved[j])
	}
}

// cell returns a pointer to the memo slot for (v, b), growing the
// node's row on first touch of a new budget index.
func (s *Scheduler) cell(v cdag.NodeID, b cdag.Weight) *entry {
	bi, ok := s.budgetIdx[b]
	if !ok {
		bi = len(s.budgetIdx)
		s.budgetIdx[b] = bi
	}
	row := s.memo[v]
	if bi >= len(row) {
		// Rows grow geometrically. Slots past len were zeroed when the
		// row's array was made and are never written before this, so the
		// extension reads as invalid cells.
		row = slices.Grow(row, bi+1-len(row))[:bi+1]
		s.memo[v] = row
	}
	return &row[bi]
}

// store memoizes a freshly computed cell unless the guard has tripped
// (poisoned partial results must never persist) or the memo budget is
// exhausted (which trips the guard for the rest of the solve).
func (s *Scheduler) store(v cdag.NodeID, b cdag.Weight, e entry) {
	if s.ck != nil && (s.ck.Err() != nil || s.ck.AddMemo(1) != nil) {
		return
	}
	*s.cell(v, b) = e
	s.live++
}

// p computes P(v, b): the minimum weighted cost to place a red pebble
// on v, starting from blue pebbles on the subtree's inputs, using at
// most b red weight inside the subtree, and leaving no other red
// pebbles behind. Results are memoized per (v, b).
func (s *Scheduler) p(v cdag.NodeID, b cdag.Weight) entry {
	if c := s.cell(v, b); c.valid {
		s.ck.NoteHit()
		return *c
	}
	// Cancellation checkpoint on the cold path only: warm hits return
	// above untouched, and an all-warm solve finishes in microseconds.
	if s.ck != nil && s.ck.Tick() != nil {
		return entry{cost: Inf}
	}
	g := s.dg.G
	var e entry
	if g.IsSource(v) {
		if g.Weight(v) <= b {
			e = entry{cost: g.Weight(v), choice: stratLeaf, valid: true}
		} else {
			e = entry{cost: Inf, choice: stratLeaf, valid: true}
		}
		s.store(v, b, e)
		return e
	}
	ps := g.Parents(v)
	p1, p2 := ps[0], ps[1]
	w1, w2 := g.Weight(p1), g.Weight(p2)
	if g.Weight(v)+w1+w2 > b {
		e = entry{cost: Inf, choice: stratKeepP1, valid: true}
		s.store(v, b, e)
		return e
	}
	// Keep strategies are evaluated first so that ties resolve to
	// them; spill strategies on source parents are strictly dominated
	// (see package tests), so the generator never has to write a blue
	// pebble onto a node that already has one.
	best := entry{cost: Inf, choice: stratKeepP1}
	consider := func(c cdag.Weight, st strategy) {
		if c < best.cost {
			best = entry{cost: c, choice: st}
		}
	}
	add := func(a, b cdag.Weight) cdag.Weight {
		if a >= Inf || b >= Inf {
			return Inf
		}
		return a + b
	}
	consider(add(s.p(p1, b).cost, s.p(p2, b-w1).cost), stratKeepP1)
	consider(add(s.p(p2, b).cost, s.p(p1, b-w2).cost), stratKeepP2)
	consider(add(add(s.p(p1, b).cost, s.p(p2, b).cost), 2*w1), stratSpillP1)
	consider(add(add(s.p(p2, b).cost, s.p(p1, b).cost), 2*w2), stratSpillP2)
	best.valid = true
	s.store(v, b, best)
	return best
}

// MinCost returns the cost of the minimum weighted schedule for the
// whole DWT graph under budget b, per Lemma 3.4: the DP cost of every
// pruned-tree root, plus the weights of all pruned (coefficient)
// nodes, plus the final blue-pebble placements on the roots. It
// returns Inf when no valid schedule exists under b.
func (s *Scheduler) MinCost(b cdag.Weight) cdag.Weight {
	if !core.ScheduleExists(s.dg.G, b) {
		return Inf
	}
	g := s.dg.G
	var total cdag.Weight
	for _, r := range s.roots {
		e := s.p(r, b)
		if e.cost >= Inf {
			return Inf
		}
		total += e.cost + g.Weight(r) // P(r, B) plus the root's own M2
	}
	for _, v := range s.pruned {
		total += g.Weight(v) // each pruned coefficient is written once
	}
	return total
}

// MinCostCtx is MinCost under a cancellation context and resource
// limits. It returns guard.ErrCanceled / guard.ErrDeadline /
// guard.ErrBudgetExceeded (wrapped) when the solve was aborted; the
// scheduler remains usable afterwards — partial results computed after
// the abort are never memoized.
func (s *Scheduler) MinCostCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (cdag.Weight, error) {
	ck := guard.New(ctx, lim)
	defer ck.Release()
	defer func() { guard.CountersFor("dwt").Record(ck.TakeCounts()) }()
	s.ck = ck
	defer func() { s.ck = nil }()
	c := s.MinCost(b)
	if err := ck.Err(); err != nil {
		return 0, fmt.Errorf("dwt: %w", err)
	}
	return c, nil
}

// ScheduleCtx is Schedule under a cancellation context and resource
// limits, with the same abort semantics as MinCostCtx.
func (s *Scheduler) ScheduleCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (core.Schedule, error) {
	ck := guard.New(ctx, lim)
	defer ck.Release()
	defer func() { guard.CountersFor("dwt").Record(ck.TakeCounts()) }()
	s.ck = ck
	defer func() { s.ck = nil }()
	sched, err := s.Schedule(b)
	if cerr := ck.Err(); cerr != nil {
		return nil, fmt.Errorf("dwt: %w", cerr)
	}
	return sched, err
}

// Schedule generates a minimum weighted WRBPG schedule for budget b
// (Algorithm 1: PebbleDWT). The returned schedule always passes
// core.Simulate with exactly MinCost(b) weighted I/O.
func (s *Scheduler) Schedule(b cdag.Weight) (core.Schedule, error) {
	if c := s.MinCost(b); c >= Inf {
		return nil, fmt.Errorf("dwt: no valid schedule under budget %d (existence bound %d)", b, core.MinExistenceBudget(s.dg.G))
	}
	var sched core.Schedule
	for _, r := range s.roots {
		if err := s.gen(r, b, &sched); err != nil {
			return nil, err
		}
		sched = sched.Append(
			core.Move{Kind: core.M2, Node: r},
			core.Move{Kind: core.M4, Node: r},
		)
	}
	return sched, nil
}

// gen emits the moves realizing P(v, b), leaving a red pebble on v and
// no other red pebbles in v's subtree. For non-input v it also emits
// the sibling coefficient's compute/store (the C block of Algorithm 1,
// line 25), whose M2 cost is the pruned-node term of Lemma 3.4.
func (s *Scheduler) gen(v cdag.NodeID, b cdag.Weight, sched *core.Schedule) error {
	g := s.dg.G
	e := s.p(v, b)
	if e.cost >= Inf {
		return fmt.Errorf("dwt: internal error: generating infeasible subproblem for node %d at budget %d", v, b)
	}
	if e.choice == stratLeaf {
		*sched = sched.Append(core.Move{Kind: core.M1, Node: v})
		return nil
	}
	ps := g.Parents(v)
	p1, p2 := ps[0], ps[1]
	first, second := p1, p2
	if e.choice == stratKeepP2 || e.choice == stratSpillP2 {
		first, second = p2, p1
	}
	spill := e.choice == stratSpillP1 || e.choice == stratSpillP2

	if err := s.gen(first, b, sched); err != nil {
		return err
	}
	if spill {
		if g.IsSource(first) {
			// Strictly dominated by the keep strategy with swapped
			// order; selecting it would make the generated cost
			// diverge from P(v, b).
			return fmt.Errorf("dwt: internal error: spill strategy selected for source parent %d", first)
		}
		*sched = sched.Append(
			core.Move{Kind: core.M2, Node: first},
			core.Move{Kind: core.M4, Node: first},
		)
		if err := s.gen(second, b, sched); err != nil {
			return err
		}
		*sched = sched.Append(core.Move{Kind: core.M1, Node: first})
	} else {
		if err := s.gen(second, b-g.Weight(first), sched); err != nil {
			return err
		}
	}
	// Both parents now hold red pebbles. Emit the pruned sibling's
	// compute/store/delete, then compute v and release the parents.
	if u := s.dg.Sibling(v); u != cdag.None {
		*sched = sched.Append(
			core.Move{Kind: core.M3, Node: u},
			core.Move{Kind: core.M2, Node: u},
			core.Move{Kind: core.M4, Node: u},
		)
	}
	*sched = sched.Append(
		core.Move{Kind: core.M3, Node: v},
		core.Move{Kind: core.M4, Node: p1},
		core.Move{Kind: core.M4, Node: p2},
	)
	return nil
}

// MinMemory returns the minimum fast memory size of Definition 2.6:
// the smallest budget (searched on multiples of step) whose minimum
// schedule cost equals the algorithmic lower bound. MinCost is
// monotone non-increasing in the budget, so the binary search of
// memdesign.SearchMonotone applies, and it runs inside this
// scheduler's warm memo.
func (s *Scheduler) MinMemory(step cdag.Weight) (cdag.Weight, error) {
	g := s.dg.G
	lb := core.LowerBound(g)
	b, err := memdesign.SearchMonotone(s.MinCost, lb, core.MinExistenceBudget(g), g.TotalWeight(), step)
	if err != nil {
		return 0, fmt.Errorf("dwt: %w", err)
	}
	return b, nil
}
