package ktree

import (
	"context"
	"fmt"
	"slices"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
	"wrbpg/internal/memdesign"
	"wrbpg/internal/perm"
)

// entry is one memoized Pt(v, ·) value. The chosen parent order is
// stored as a row index into the shared permutation table of the
// node's arity (perm.Table), so cells hold no per-cell slices; delta
// bit i set means the parent at position i of that row keeps its red
// pebble while later parents are computed (δ_i = 1 in Eq. 6).
type entry struct {
	cost    cdag.Weight
	permIdx int32
	delta   uint16
}

// Budget-interval sentinels: Pt(v, ·) is a non-increasing step
// function of the budget, so every computed value is valid on a whole
// interval. Inf doubles as +∞ on the budget axis (no real budget
// reaches it — weights sum far below MaxInt64/4).
const (
	budgetMax = Inf
	budgetMin = -Inf
)

// ival is one step of Pt(v, ·): the entry holds on every budget in
// [lo, hi] (inclusive).
type ival struct {
	lo, hi cdag.Weight
	e      entry
}

// Scheduler computes Pt(v, b) (Eq. 6) with memoization and generates
// optimal schedules for k-ary trees.
//
// The memo stores, per node, the steps of Pt(v, ·) as a sorted list
// of disjoint budget intervals. A cold cell derives the interval on
// which its value holds by intersecting the (shifted) intervals of
// every child cell it consulted, so a query at a nearby budget — the
// dominant access pattern of budget sweeps and the memory-design
// binary search — is a warm hit instead of a fresh enumeration. A hit
// is one branchless binary search over a short slice: no map, no
// allocation.
type Scheduler struct {
	t    *Tree
	memo [][]ival
	// exist[v] is the subtree existence bound: Pt(v, b) is finite iff
	// b ≥ exist[v]. The all-spill strategy computes every subtree node
	// with only itself and its parents resident, so the bound is the
	// subtree max of w_u + Σ parent weights (Proposition 2.3 applied
	// to the subtree) — exact, and computable in one bottom-up pass.
	// It short-circuits the whole infeasible region to an O(1) answer
	// with a maximally wide interval, which is what keeps budget
	// sweeps cheap near the existence boundary.
	exist []cdag.Weight
	// live counts currently stored budget intervals; SetWeights reports
	// it as the reused-cell count after an invalidation.
	live int64
	// mark/epoch/dirty/saved are SetWeights scratch: mark[v] equal to
	// the current epoch means v's row was already cleared this patch, so
	// root paths shared by several changed nodes are walked once.
	mark  []uint32
	epoch uint32
	dirty []cdag.NodeID
	saved []cdag.Weight
	// ck, when non-nil, is the active cancellation/budget guard of a
	// *Ctx call. The DP checks it per cold cell and never memoizes
	// results computed after it trips. nil (the default) costs one
	// pointer test per cell.
	ck *guard.Checker
}

// NewScheduler returns a scheduler for the tree. The k! permutation
// tables for every arity in the tree are built (or fetched from the
// process-wide cache) here, once, instead of being re-enumerated with
// Heap's algorithm on every DP cell.
func NewScheduler(t *Tree) *Scheduler {
	for v := 0; v < t.G.Len(); v++ {
		if k := t.G.InDegree(cdag.NodeID(v)); k > 0 {
			perm.Table(k)
		}
	}
	g := t.G
	exist := make([]cdag.Weight, g.Len())
	// Node IDs are topological by construction, so one forward pass
	// sees every parent before its child.
	for v := 0; v < g.Len(); v++ {
		id := cdag.NodeID(v)
		e := g.Weight(id)
		for _, p := range g.Parents(id) {
			e += g.Weight(p)
		}
		for _, p := range g.Parents(id) {
			if exist[p] > e {
				e = exist[p]
			}
		}
		exist[v] = e
	}
	// Each node's interval list starts as a private two-slot window of
	// one slab, capped so that a third step reallocates that row alone
	// instead of overwriting its neighbour's slots.
	memo := make([][]ival, g.Len())
	slab := make([]ival, rowSlots*g.Len())
	for v := range memo {
		memo[v] = slab[rowSlots*v : rowSlots*v : rowSlots*(v+1)]
	}
	return &Scheduler{
		t:     t,
		memo:  memo,
		exist: exist,
		mark:  make([]uint32, g.Len()),
	}
}

// rowSlots is the number of budget steps each node's memo row holds
// before it spills to its own heap slice.
const rowSlots = 2

// SetWeights applies weight deltas to the tree and invalidates exactly
// the memo rows whose value can change: Pt(v, b) depends only on
// weights inside v's subtree (Eq. 6), and in an in-tree the cells
// whose subtree contains a changed node u are u and its ancestors —
// the chain from u to the root. Rows keep their capacity ([:0]), the
// exist bounds of the dirtied chain are recomputed bottom-up, and the
// graph is reverted unchanged on any validation error. It returns the
// number of budget intervals cleared and the number surviving.
func (s *Scheduler) SetWeights(ds []cdag.WeightDelta) (invalidated, reused int64, err error) {
	g := s.t.G
	s.saved = s.saved[:0]
	applied := 0
	for _, d := range ds {
		var old cdag.Weight
		if int(d.Node) >= 0 && int(d.Node) < g.Len() {
			old = g.Weight(d.Node)
		}
		if err := g.TrySetWeight(d.Node, d.Weight); err != nil {
			for j := applied - 1; j >= 0; j-- {
				g.SetWeight(ds[j].Node, s.saved[j])
			}
			return 0, 0, fmt.Errorf("ktree: patch: %w", err)
		}
		s.saved = append(s.saved, old)
		applied++
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: every stale mark now looks current
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 1
	}
	dirty := s.dirty[:0]
	for _, d := range ds {
		for v := d.Node; ; {
			if s.mark[v] == s.epoch {
				break
			}
			s.mark[v] = s.epoch
			dirty = append(dirty, v)
			invalidated += int64(len(s.memo[v]))
			s.memo[v] = s.memo[v][:0]
			ch := g.Children(v)
			if len(ch) == 0 {
				break
			}
			v = ch[0] // in-tree: out-degree ≤ 1
		}
	}
	// Node IDs are topological, so recomputing exist in ascending ID
	// order sees every dirty parent before its child; off-chain parents
	// kept their (unchanged) bounds.
	slices.Sort(dirty)
	s.dirty = dirty
	for _, v := range dirty {
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
	s.live -= invalidated
	return invalidated, s.live, nil
}

// lookup returns the memoized step covering budget b, or nil.
func (s *Scheduler) lookup(v cdag.NodeID, b cdag.Weight) *ival {
	row := s.memo[v]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid].lo <= b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && row[lo-1].hi >= b {
		return &row[lo-1]
	}
	return nil
}

// store memoizes a freshly computed step unless the guard has tripped
// (poisoned partial results must never persist) or the memo budget is
// exhausted (which trips the guard for the rest of the solve). The
// interval is clipped to the uncovered gap around b, keeping the
// per-node list sorted and disjoint; neighbouring steps computed from
// different query points agree wherever they overlap, so clipping
// loses nothing but redundancy.
func (s *Scheduler) store(v cdag.NodeID, b cdag.Weight, iv ival) {
	if s.ck != nil && (s.ck.Err() != nil || s.ck.AddMemo(1) != nil) {
		return
	}
	row := s.memo[v]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid].lo <= b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	clipped := false
	if lo > 0 && row[lo-1].hi >= iv.lo {
		iv.lo = row[lo-1].hi + 1
		clipped = true
	}
	if lo < len(row) && row[lo].lo <= iv.hi {
		iv.hi = row[lo].lo - 1
		clipped = true
	}
	if clipped {
		s.ck.NoteSplit()
	}
	row = append(row, ival{})
	copy(row[lo+1:], row[lo:])
	row[lo] = iv
	s.memo[v] = row
	s.live++
}

// pt computes Pt(v, b) of Eq. 6, minimizing over parent permutations
// σ and keep/spill vectors δ. Configurations that spill a source
// parent are skipped: re-ordering the source to the end of the
// permutation with δ=1 is always at least 2·w cheaper (sources
// already hold blue pebbles), so the minimum is unchanged and the
// generator never writes a blue pebble onto a node that has one.
//
// Alongside the entry, pt returns the budget interval [lo, hi] on
// which it is valid: a cold cell starts from the feasibility cutoff
// and narrows by every child interval it consults (shifted by the
// red-pebble weight held while that child was queried). On the
// intersection every configuration evaluates identically, so both
// the minimum and the argmin are constant there.
func (s *Scheduler) pt(v cdag.NodeID, b cdag.Weight) (entry, cdag.Weight, cdag.Weight) {
	if iv := s.lookup(v, b); iv != nil {
		s.ck.NoteHit()
		return iv.e, iv.lo, iv.hi
	}
	// Cancellation checkpoint on the cold path only: warm hits return
	// above untouched, and an all-warm solve finishes in microseconds.
	// The poisoned value carries the empty-width interval [b, b] so a
	// caller can never widen its own step with it; store refuses it
	// and everything above anyway.
	if s.ck != nil && s.ck.Tick() != nil {
		return entry{cost: Inf}, b, b
	}
	g := s.t.G
	// The whole infeasible region is one O(1) step: Pt(v, b) is finite
	// exactly when b reaches the subtree existence bound.
	if b < s.exist[v] {
		e := entry{cost: Inf}
		s.store(v, b, ival{lo: budgetMin, hi: s.exist[v] - 1, e: e})
		return e, budgetMin, s.exist[v] - 1
	}
	if g.IsSource(v) {
		w := g.Weight(v)
		e := entry{cost: w}
		s.store(v, b, ival{lo: w, hi: budgetMax, e: e})
		return e, w, budgetMax
	}
	parents := g.Parents(v)
	k := len(parents)
	// Every feasible configuration consults all k children, whose
	// intervals start no lower than their own existence bounds, so the
	// narrowing below keeps lo ≥ exist[v] automatically; starting from
	// the local co-residency cutoff is enough.
	lo, hi := s.exist[v], budgetMax
	best := entry{cost: Inf}
	for pi, order := range perm.Table(k) {
		for delta := uint16(0); delta < 1<<uint(k); delta++ {
			skip := false
			var cost, held cdag.Weight
			for i := 0; i < k && !skip; i++ {
				p := parents[order[i]]
				keep := delta&(1<<uint(i)) != 0
				if !keep && g.IsSource(p) {
					skip = true // dominated; see doc comment
					break
				}
				sub, slo, shi := s.pt(p, b-held)
				if nlo := slo + held; nlo > lo {
					lo = nlo
				}
				if nhi := shi + held; nhi < hi {
					hi = nhi
				}
				if sub.cost >= Inf {
					skip = true
					break
				}
				cost += sub.cost
				if keep {
					held += g.Weight(p)
				} else {
					cost += 2 * g.Weight(p)
				}
			}
			if skip || cost >= best.cost {
				continue
			}
			best = entry{cost: cost, permIdx: int32(pi), delta: delta}
		}
	}
	s.store(v, b, ival{lo: lo, hi: hi, e: best})
	return best, lo, hi
}

// MinCost returns the minimum weighted schedule cost for the whole
// tree under budget b: w_root + Pt(root, b) (Eq. 7), or Inf when no
// valid schedule exists.
func (s *Scheduler) MinCost(b cdag.Weight) cdag.Weight {
	e, _, _ := s.pt(s.t.Root, b)
	if e.cost >= Inf {
		return Inf
	}
	return e.cost + s.t.G.Weight(s.t.Root)
}

// MinCostCtx is MinCost under a cancellation context and resource
// limits. It returns guard.ErrCanceled / guard.ErrDeadline /
// guard.ErrBudgetExceeded (wrapped) when the solve was aborted; the
// scheduler remains usable afterwards — partial results computed after
// the abort are never memoized.
func (s *Scheduler) MinCostCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (cdag.Weight, error) {
	ck := guard.New(ctx, lim)
	defer ck.Release()
	defer func() { guard.CountersFor("ktree").Record(ck.TakeCounts()) }()
	s.ck = ck
	defer func() { s.ck = nil }()
	c := s.MinCost(b)
	if err := ck.Err(); err != nil {
		return 0, fmt.Errorf("ktree: %w", err)
	}
	return c, nil
}

// ScheduleCtx is Schedule under a cancellation context and resource
// limits, with the same abort semantics as MinCostCtx.
func (s *Scheduler) ScheduleCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (core.Schedule, error) {
	ck := guard.New(ctx, lim)
	defer ck.Release()
	defer func() { guard.CountersFor("ktree").Record(ck.TakeCounts()) }()
	s.ck = ck
	defer func() { s.ck = nil }()
	sched, err := s.Schedule(b)
	if cerr := ck.Err(); cerr != nil {
		return nil, fmt.Errorf("ktree: %w", cerr)
	}
	return sched, err
}

// Schedule generates an optimal schedule under budget b; it always
// passes core.Simulate with cost MinCost(b).
func (s *Scheduler) Schedule(b cdag.Weight) (core.Schedule, error) {
	if s.MinCost(b) >= Inf {
		return nil, fmt.Errorf("ktree: no valid schedule under budget %d (existence bound %d)", b, core.MinExistenceBudget(s.t.G))
	}
	var sched core.Schedule
	if err := s.gen(s.t.Root, b, &sched); err != nil {
		return nil, err
	}
	sched = sched.Append(
		core.Move{Kind: core.M2, Node: s.t.Root},
		core.Move{Kind: core.M4, Node: s.t.Root},
	)
	return sched, nil
}

// gen emits the moves realizing Pt(v, b): red pebble on v at the end,
// no other red pebbles in v's subtree.
func (s *Scheduler) gen(v cdag.NodeID, b cdag.Weight, sched *core.Schedule) error {
	g := s.t.G
	e, _, _ := s.pt(v, b)
	if e.cost >= Inf {
		return fmt.Errorf("ktree: internal error: infeasible subproblem node %d budget %d", v, b)
	}
	if g.IsSource(v) {
		*sched = sched.Append(core.Move{Kind: core.M1, Node: v})
		return nil
	}
	parents := g.Parents(v)
	order := perm.Table(len(parents))[e.permIdx]
	var held cdag.Weight
	var spilled []cdag.NodeID
	for i, oi := range order {
		p := parents[oi]
		if err := s.gen(p, b-held, sched); err != nil {
			return err
		}
		if e.delta&(1<<uint(i)) != 0 {
			held += g.Weight(p)
		} else {
			*sched = sched.Append(
				core.Move{Kind: core.M2, Node: p},
				core.Move{Kind: core.M4, Node: p},
			)
			spilled = append(spilled, p)
		}
	}
	for _, p := range spilled {
		*sched = sched.Append(core.Move{Kind: core.M1, Node: p})
	}
	*sched = sched.Append(core.Move{Kind: core.M3, Node: v})
	for _, p := range parents {
		*sched = sched.Append(core.Move{Kind: core.M4, Node: p})
	}
	return nil
}

// MinMemory returns the smallest budget (on multiples of step) whose
// optimal cost equals the algorithmic lower bound (Definition 2.6).
// The binary search runs inside this scheduler's warm memo via
// memdesign.SearchMonotone.
func (s *Scheduler) MinMemory(step cdag.Weight) (cdag.Weight, error) {
	g := s.t.G
	lb := core.LowerBound(g)
	b, err := memdesign.SearchMonotone(s.MinCost, lb, core.MinExistenceBudget(g), g.TotalWeight(), step)
	if err != nil {
		return 0, fmt.Errorf("ktree: %w", err)
	}
	return b, nil
}

// StrategyCount returns 2^k·k!, the number of per-node strategies the
// DP enumerates for in-degree k — the quantity bounding Theorem 3.8.
func StrategyCount(k int) int {
	return perm.Count(k) << uint(k)
}
