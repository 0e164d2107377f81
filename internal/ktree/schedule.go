package ktree

import (
	"context"
	"fmt"
	"sync"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
	"wrbpg/internal/memdesign"
	"wrbpg/internal/stepmemo"
)

// entry is one memoized Pt(v, ·) value. The chosen parent order is
// stored as a row index into the shared permutation table of the
// node's arity (permTable), so cells hold no per-cell slices; delta
// bit i set means the parent at position i of that row keeps its red
// pebble while later parents are computed (δ_i = 1 in Eq. 6).
type entry struct {
	cost    cdag.Weight
	permIdx int32
	delta   uint16
}

// Scheduler computes Pt(v, b) (Eq. 6) with memoization and generates
// optimal schedules for k-ary trees. CostCtx/ScheduleCtx guard every
// query with the memo's one reusable checker. It is not safe for
// concurrent use.
//
// The memo stores the steps of Pt(v, ·) as a sorted list of disjoint
// budget intervals (package stepmemo) in the row of v's class
// representative rep[v], so subtrees of one shape and weighting share
// their cells. A warm hit is one binary search over a short slice: no
// map, no allocation.
type Scheduler struct {
	t    *Tree
	memo stepmemo.Rows[entry]
	// rep[v] is the node whose memo row holds v's cells. Pt(v, ·)
	// depends only on v's subtree (Eq. 6), so v may read and store the
	// cells of any node whose subtree has the same shape and weights:
	// classify sets rep[v] to the smallest such node, and SetWeights
	// points every node whose class a patch may have split back at its
	// own row. A row only ever holds Pt of its own node's current
	// subtree, since Patch empties the row of every node whose subtree
	// changed. Equal classes enumerate identically, so the cost, the
	// argmin and every schedule are those of a per-node memo.
	rep []cdag.NodeID
	// shared[r] reports that some node other than r may read r's row,
	// so a patch that dirties r must look for r's class members.
	shared []bool
	// exist[v] is the subtree existence bound: Pt(v, b) is finite iff
	// b ≥ exist[v]. The all-spill strategy computes every subtree node
	// with only itself and its parents resident, so the bound is the
	// subtree max of w_u + Σ parent weights (Proposition 2.3 applied
	// to the subtree) — exact, and computable in one bottom-up pass.
	// It short-circuits the whole infeasible region to an O(1) answer
	// with a maximally wide interval, which is what keeps budget
	// sweeps cheap near the existence boundary.
	exist []cdag.Weight
	// subs is the sub-result scratch of the cells in flight: the cell
	// at recursion depth d (the root is depth 0) owns the stride-wide
	// window at d·stride, and each of its slots holds the value of one
	// distinct sub-call (see pt). Only one cell per depth is ever in
	// flight, so the windows never collide and no cell allocates.
	subs   []cdag.Weight
	stride int
}

// NewScheduler returns a scheduler for the tree. The k! permutation
// tables for every arity in the tree are built (or fetched from the
// process-wide cache) here, once, instead of being re-enumerated with
// Heap's algorithm on every DP cell.
func NewScheduler(t *Tree) *Scheduler {
	for v := 0; v < t.G.Len(); v++ {
		if k := t.G.InDegree(cdag.NodeID(v)); k > 0 {
			permTable(k)
		}
	}
	stride := t.K << uint(t.K)
	s := &Scheduler{
		t:      t,
		rep:    make([]cdag.NodeID, t.G.Len()),
		shared: make([]bool, t.G.Len()),
		exist:  make([]cdag.Weight, t.G.Len()),
		// Sources have no cell, so the deepest cell sits one above the
		// deepest leaf.
		subs:   make([]cdag.Weight, height(t.G, t.Root)*stride),
		stride: stride,
	}
	s.fillExist()
	s.classify()
	// Only the class representatives' rows are stored into until a
	// patch splits a class, so only they get slab windows.
	s.memo = stepmemo.NewRows[entry](t.G, func(v cdag.NodeID) bool {
		return s.rep[v] == v && !t.G.IsSource(v)
	})
	return s
}

// Reset points the scheduler at t, a tree of the same shape as the one
// it was built for (the same adjacency, as every Tree of one Topology
// has), under any weights. It empties the memo, keeping its capacity,
// and recomputes the existence bounds, so the next query answers
// exactly as a NewScheduler(t) would, without allocating. The permutation
// tables and the cell scratch depend on the shape alone and are kept.
func (s *Scheduler) Reset(t *Tree) {
	s.t = t
	s.memo.Reset()
	s.fillExist()
	s.classify()
}

// classTable is classify's open-addressed hash table: slot i holds a
// class representative's ID plus one, or 0 when empty. It is scratch,
// drawn from classTables for one pass, so no scheduler keeps one.
type classTable struct{ slots []int32 }

var classTables = sync.Pool{New: func() any { return new(classTable) }}

// classify sets every rep[v] to the smallest node whose subtree has
// v's shape and weights, by hash-consing: two nodes are in one class
// iff they have equal weights and their parents, in order, are in
// equal classes. Node IDs are topological, so one forward pass sees
// every parent's class first, and the first node of a class to reach
// the table is its smallest. The previous node's class is tried before
// the table: the builders number each level's nodes consecutively, and
// a level's nodes usually share one class.
func (s *Scheduler) classify() {
	g := s.t.G
	n := g.Len()
	ct := classTables.Get().(*classTable)
	bits := 1
	for 1<<bits < 2*n {
		bits++
	}
	if cap(ct.slots) < 1<<bits {
		ct.slots = make([]int32, 1<<bits)
	}
	slots := ct.slots[:1<<bits]
	clear(slots)
	clear(s.shared)
	mask := uint64(len(slots) - 1)
	for v := range n {
		id := cdag.NodeID(v)
		if v > 0 && s.sameClass(s.rep[v-1], id) {
			s.rep[v] = s.rep[v-1]
			s.shared[s.rep[v]] = true
			continue
		}
		h := uint64(g.Weight(id))
		for _, p := range g.Parents(id) {
			h = (h ^ uint64(s.rep[p])) * 0x9e3779b97f4a7c15
		}
		for i := (h * 0x9e3779b97f4a7c15) >> (64 - bits); ; i = (i + 1) & mask {
			r := slots[i]
			if r == 0 {
				slots[i] = int32(v) + 1
				s.rep[v] = id
				break
			}
			if r := cdag.NodeID(r - 1); s.sameClass(r, id) {
				s.rep[v] = r
				s.shared[r] = true
				break
			}
		}
	}
	classTables.Put(ct)
}

// sameClass reports whether r and v have equal weights and their
// parents, in order, have equal representatives.
func (s *Scheduler) sameClass(r, v cdag.NodeID) bool {
	g := s.t.G
	pr, pv := g.Parents(r), g.Parents(v)
	if g.Weight(r) != g.Weight(v) || len(pr) != len(pv) {
		return false
	}
	for j, p := range pv {
		if s.rep[p] != s.rep[pr[j]] {
			return false
		}
	}
	return true
}

// fillExist computes every node's existence bound. Node IDs are
// topological by construction, so one forward pass sees every parent
// before its child.
func (s *Scheduler) fillExist() {
	for v := range s.exist {
		s.setExist(cdag.NodeID(v))
	}
}

// height returns the number of edges on the longest leaf-to-v path.
func height(g *cdag.Graph, v cdag.NodeID) int {
	h := 0
	for _, p := range g.Parents(v) {
		h = max(h, 1+height(g, p))
	}
	return h
}

// setExist recomputes v's existence bound from its parents' bounds.
func (s *Scheduler) setExist(v cdag.NodeID) {
	g := s.t.G
	e := g.Weight(v)
	for _, p := range g.Parents(v) {
		e += g.Weight(p)
	}
	for _, p := range g.Parents(v) {
		if s.exist[p] > e {
			e = s.exist[p]
		}
	}
	s.exist[v] = e
}

// SetWeights applies weight deltas to the tree and invalidates exactly
// the memo rows whose value can change: Pt(v, b) depends only on
// weights inside v's subtree (Eq. 6), so only the changed nodes' root
// chains go stale (stepmemo.Rows.Patch). Their exist bounds are
// recomputed bottom-up, and the tree is reverted unchanged on any
// validation error. A node on those chains, or one whose representative
// is, may no longer share its representative's subtree, so it falls
// back to its own row, which holds only cells of its current subtree.
// The members of a dirtied representative are looked for only when
// one had any. It returns the number of budget intervals cleared and
// the number surviving, which also feed TakeCounts.
func (s *Scheduler) SetWeights(ds []cdag.WeightDelta) (invalidated, reused int64, err error) {
	split := false
	invalidated, reused, err = s.memo.Patch(s.t.G, ds, "ktree", nil, func(v cdag.NodeID) {
		s.setExist(v)
		split = split || s.shared[v]
		s.rep[v], s.shared[v] = v, false
	})
	if err != nil {
		return 0, 0, err
	}
	if split {
		for v, r := range s.rep {
			if s.memo.Dirtied(r) {
				s.rep[v] = cdag.NodeID(v)
			}
		}
	}
	return invalidated, reused, nil
}

// Exist returns the tree's existence bound (Prop 2.3) under its
// current weights: the root's subtree bound, which SetWeights keeps
// current.
func (s *Scheduler) Exist() cdag.Weight { return s.exist[s.t.Root] }

// unset marks a sub-result slot that no strategy has consulted yet;
// every real value is a cost ≥ 0 or Inf.
const unset cdag.Weight = -1

// sub returns Pt(p, b) with the budget interval on which it holds.
// The two O(1) cases are answered here, without probing the memo,
// storing a step or ticking the guard: below p's existence bound the
// value is Inf on (−Inf, exist[p]−1], and a source costs its one load
// w on [w, Inf]. Every other cell is pt's, at recursion depth d.
func (s *Scheduler) sub(p cdag.NodeID, b cdag.Weight, d int) (cdag.Weight, cdag.Weight, cdag.Weight) {
	if b < s.exist[p] {
		return Inf, -Inf, s.exist[p] - 1
	}
	if g := s.t.G; g.IsSource(p) {
		w := g.Weight(p)
		return w, w, Inf
	}
	e, lo, hi := s.pt(p, b, d)
	return e.cost, lo, hi
}

// pt computes Pt(v, b) of Eq. 6 for a non-source v at a budget
// b ≥ exist[v], minimizing over parent permutations σ and keep/spill
// vectors δ, and taking the first strict minimum in (σ, δ) order.
// Two families of configurations are skipped because they are
// strictly dominated, so neither the minimum nor its argmin changes:
//
//   - Spilling a source parent: re-ordering the source to the end of
//     the permutation with δ=1 is always at least 2·w cheaper
//     (sources already hold blue pebbles), so the generator never
//     writes a blue pebble onto a node that has one.
//   - Spilling σ's last parent: nothing is computed after it, so the
//     keep-last twin makes the same sub-calls and costs exactly 2·w
//     less (weights are positive). The k!·2^(k−1) configurations left
//     are the δ with the top bit set.
//
// A parent's sub-budget b − held depends only on which other parents
// are held before it, so a cell makes at most k·2^(k−1) distinct
// sub-calls however many configurations share them. Each is made
// once, the first time the enumeration consults it, and its value
// kept in the cell's scratch window at slot (parent index, held set).
//
// Alongside the entry, pt returns the budget interval [lo, hi] on
// which it is valid: a cold cell starts from the feasibility cutoff
// and narrows by every sub-call interval it consults (shifted by the
// red-pebble weight held while that sub-call ran). On the
// intersection every configuration evaluates identically, so both
// the minimum and the argmin are constant there.
func (s *Scheduler) pt(v cdag.NodeID, b cdag.Weight, d int) (entry, cdag.Weight, cdag.Weight) {
	r := s.rep[v]
	if st := s.memo.Find(r, b); st != nil {
		s.memo.Hit()
		return st.V, st.Lo, st.Hi
	}
	// Cancellation checkpoint on the cold path only: warm hits return
	// above untouched, and an all-warm solve finishes in microseconds.
	if s.memo.Tick() {
		return entry{cost: Inf}, b, b
	}
	g := s.t.G
	parents := g.Parents(v)
	k := len(parents)
	subs := s.subs[d*s.stride:][:k<<uint(k)]
	for i := range subs {
		subs[i] = unset
	}
	// Every feasible configuration consults all k parents, whose
	// intervals start no lower than their own existence bounds, so the
	// narrowing below keeps lo ≥ exist[v] automatically; starting from
	// the local co-residency cutoff is enough.
	lo, hi := s.exist[v], Inf
	best := entry{cost: Inf}
	for pi, order := range permTable(k) {
		for delta := uint16(1) << uint(k-1); delta < 1<<uint(k); delta++ {
			var cost, held cdag.Weight
			var set int // parent indices held so far, as bits
			i := 0
			for ; i < k; i++ {
				j := int(order[i])
				p := parents[j]
				keep := delta&(1<<uint(i)) != 0
				if !keep && g.IsSource(p) {
					break // dominated; see doc comment
				}
				c := &subs[j<<uint(k)|set]
				if *c == unset {
					var slo, shi cdag.Weight
					*c, slo, shi = s.sub(p, b-held, d+1)
					lo, hi = max(lo, slo+held), min(hi, shi+held)
				}
				if *c >= Inf {
					break
				}
				cost += *c
				if keep {
					held += g.Weight(p)
					set |= 1 << uint(j)
				} else {
					cost += 2 * g.Weight(p)
				}
			}
			if i < k || cost >= best.cost {
				continue
			}
			best = entry{cost: cost, permIdx: int32(pi), delta: delta}
		}
	}
	return s.memo.Store(r, b, lo, hi, best)
}

// MinCost returns the minimum weighted schedule cost for the whole
// tree under budget b: w_root + Pt(root, b) (Eq. 7), or Inf when no
// valid schedule exists.
func (s *Scheduler) MinCost(b cdag.Weight) cdag.Weight {
	c, _, _ := s.sub(s.t.Root, b, 0)
	if c >= Inf {
		return Inf
	}
	return c + s.t.G.Weight(s.t.Root)
}

// CostCtx is MinCost under a cancellation context and resource
// limits, guarded by the scheduler's reusable checker, so a warm query
// allocates nothing when lim carries no deadline. It returns
// guard.ErrCanceled / guard.ErrDeadline / guard.ErrBudgetExceeded
// (wrapped) when the query was aborted; limits are per query, and the
// scheduler remains usable afterwards — partial results computed after
// the abort are never memoized.
func (s *Scheduler) CostCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (cdag.Weight, error) {
	s.memo.Begin(ctx, lim)
	defer s.memo.End()
	c := s.MinCost(b)
	if err := s.memo.Err(); err != nil {
		return 0, fmt.Errorf("ktree: %w", err)
	}
	return c, nil
}

// ScheduleCtx is Schedule under a cancellation context and resource
// limits, with the same guard and abort semantics as CostCtx.
func (s *Scheduler) ScheduleCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (core.Schedule, error) {
	s.memo.Begin(ctx, lim)
	defer s.memo.End()
	sched, err := s.Schedule(b)
	if cerr := s.memo.Err(); cerr != nil {
		return nil, fmt.Errorf("ktree: %w", cerr)
	}
	return sched, err
}

// TakeCounts returns and resets the observation counts (memo hits,
// entries, interval splits, patch invalidations) that CostCtx,
// ScheduleCtx and SetWeights accumulated since the last call, for
// metric export.
func (s *Scheduler) TakeCounts() guard.Counts { return s.memo.TakeCounts() }

// Detach drops the last query's context and counts sink, so a
// scheduler idle in a pool keeps no finished request reachable. Call
// it after TakeCounts; the next guarded query re-arms the checker.
func (s *Scheduler) Detach() { s.memo.Detach() }

// Schedule generates an optimal schedule under budget b; it always
// passes core.Simulate with cost MinCost(b), and its capacity is its
// length.
func (s *Scheduler) Schedule(b cdag.Weight) (core.Schedule, error) {
	if s.MinCost(b) >= Inf {
		return nil, fmt.Errorf("ktree: no valid schedule under budget %d (existence bound %d)", b, core.MinExistenceBudget(s.t.G))
	}
	sched := make(core.Schedule, 0, s.moves(s.t.Root, b, 0)+2)
	if err := s.gen(s.t.Root, b, 0, &sched); err != nil {
		return nil, err
	}
	sched = sched.Append(
		core.Move{Kind: core.M2, Node: s.t.Root},
		core.Move{Kind: core.M4, Node: s.t.Root},
	)
	return sched, nil
}

// gen emits the moves realizing Pt(v, b): red pebble on v at the end,
// no other red pebbles in v's subtree. d is v's recursion depth.
func (s *Scheduler) gen(v cdag.NodeID, b cdag.Weight, d int, sched *core.Schedule) error {
	g := s.t.G
	if b < s.exist[v] {
		return fmt.Errorf("ktree: internal error: infeasible subproblem node %d budget %d", v, b)
	}
	if g.IsSource(v) {
		*sched = sched.Append(core.Move{Kind: core.M1, Node: v})
		return nil
	}
	e, _, _ := s.pt(v, b, d)
	if e.cost >= Inf { // only an aborted query leaves a feasible cell at Inf
		return fmt.Errorf("ktree: internal error: infeasible subproblem node %d budget %d", v, b)
	}
	parents := g.Parents(v)
	order := permTable(len(parents))[e.permIdx]
	var held cdag.Weight
	for i, oi := range order {
		p := parents[oi]
		if err := s.gen(p, b-held, d+1, sched); err != nil {
			return err
		}
		if e.delta&(1<<uint(i)) != 0 {
			held += g.Weight(p)
		} else {
			*sched = sched.Append(
				core.Move{Kind: core.M2, Node: p},
				core.Move{Kind: core.M4, Node: p},
			)
		}
	}
	// Reload the spilled parents, in the order they were spilled.
	for i, oi := range order {
		if e.delta&(1<<uint(i)) == 0 {
			*sched = sched.Append(core.Move{Kind: core.M1, Node: parents[oi]})
		}
	}
	*sched = sched.Append(core.Move{Kind: core.M3, Node: v})
	for _, p := range parents {
		*sched = sched.Append(core.Move{Kind: core.M4, Node: p})
	}
	return nil
}

// moves returns the number of moves gen emits for (v, b), read from
// the memo that MinCost(b) filled, so Schedule can size its result
// exactly. d is v's recursion depth. Sources are answered first, as
// they are never memoized. It reads cells without counting memo hits.
// A cell the memo lacks is computed here, as gen would compute it: a
// patch that split a class empties its representative's row while the
// cells that consulted it stay warm in other rows. One that an aborted
// query leaves at Inf counts no moves: the result only sizes the
// schedule, which then grows as needed.
func (s *Scheduler) moves(v cdag.NodeID, b cdag.Weight, d int) int {
	g := s.t.G
	if g.IsSource(v) {
		return 1
	}
	var e entry
	if st := s.memo.Find(s.rep[v], b); st != nil {
		e = st.V
	} else if e, _, _ = s.pt(v, b, d); e.cost >= Inf {
		return 0
	}
	parents := g.Parents(v)
	n := 1 + len(parents) // M3 v, M4 on every parent
	var held cdag.Weight
	for i, oi := range permTable(len(parents))[e.permIdx] {
		p := parents[oi]
		n += s.moves(p, b-held, d+1)
		if e.delta&(1<<uint(i)) != 0 {
			held += g.Weight(p)
		} else {
			n += 3 // M2, M4 and the reload M1
		}
	}
	return n
}

// MinMemory returns the smallest budget (on multiples of step) whose
// optimal cost equals the algorithmic lower bound (Definition 2.6).
// The binary search runs inside this scheduler's warm memo via
// memdesign.MinMemory.
func (s *Scheduler) MinMemory(step cdag.Weight) (cdag.Weight, error) {
	b, err := memdesign.MinMemory(s.t.G, s.MinCost, step)
	if err != nil {
		return 0, fmt.Errorf("ktree: %w", err)
	}
	return b, nil
}

// StrategyCount returns 2^k·k!, the number of per-node strategies of
// Eq. 6 for in-degree k — the quantity bounding Theorem 3.8. The DP
// evaluates the half that keeps σ's last parent (see pt).
func StrategyCount(k int) int {
	return permCount(k) << uint(k)
}
