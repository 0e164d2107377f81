package stepmemo

import (
	"context"
	"fmt"
	"sync"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
	"wrbpg/internal/memdesign"
)

// Cell is one memoized DP value: the minimum cost over a node's
// strategies and the family's strategy Arg that attains it.
type Cell[C any] struct {
	Cost cdag.Weight
	Arg  C
}

// Family is a tree-shaped family's part of its DP: the recurrence and
// the move generator. DP owns everything else.
type Family[C any] interface {
	// Cell computes the cold cell of a non-source v at a budget b no
	// lower than v's existence bound, at recursion depth d (a root is
	// depth 0): the minimum over the family's strategies, its argmin,
	// and the budget interval on which both hold. It consults every
	// parent through DP.Sub at depth d+1 and narrows the interval by
	// each sub-call's, shifted by the red weight held while it ran; on
	// the intersection every consulted value is constant, so the
	// minimum and the argmin are too.
	Cell(v cdag.NodeID, b cdag.Weight, d int) (Cell[C], cdag.Weight, cdag.Weight)
	// Gen appends to sched the moves realizing arg, the strategy of
	// non-source v's cell at budget b: each parent's moves through
	// DP.Emit at depth d+1, then the family's own. It leaves a red
	// pebble on v and no other red pebble in v's subtree.
	Gen(v cdag.NodeID, b cdag.Weight, d int, arg C, sched *core.Schedule) error
	// Check validates the weights once a patch's deltas are applied;
	// on error the patch is reverted (Rows.Patch).
	Check() error
}

// DP is the engine the tree-shaped families' optimal DPs share:
// P(v, b) of Eq. 1–4 for DWT graphs (Lemma 3.3) and Pt(v, b) of Eq. 6
// for k-ary trees. Both are budget-indexed recurrences over an
// in-forest, where a node's value depends only on the weights of its
// subtree. DP owns the memo and its query guard, the class map, the
// per-node existence bounds, the weight patch that keeps both
// current, and the cost, schedule and memory-design queries; a family
// embeds it and supplies only its Family. It is not safe for
// concurrent use.
//
// A warm hit is one binary search over a short slice (Rows), with no
// map and no allocation.
type DP[C any] struct {
	g *cdag.Graph
	f Family[C]
	// name prefixes the engine's errors.
	name string
	memo Rows[Cell[C]]
	// roots are the forest's roots, answered in order. extra are nodes
	// outside the forest that the schedule computes and writes once
	// each (DWT's pruned coefficients, Lemma 3.4).
	roots, extra []cdag.NodeID
	// nodes holds each node's class and existence bound.
	nodes []node
	// bound is the largest root bound: the graph's existence bound.
	bound cdag.Weight
}

// node is one node's engine state.
type node struct {
	// exist is the subtree existence bound: the node's value is finite
	// iff b ≥ exist. Spilling every parent computes each subtree node
	// with only itself and its parents resident, so the bound is the
	// subtree max of w_u + Σ parent weights (Proposition 2.3 applied to
	// the subtree): exact, and kept along patched chains. It answers
	// the whole infeasible region in O(1) with a maximally wide
	// interval, which keeps budget sweeps cheap near the boundary.
	exist cdag.Weight
	// rep is the node whose memo row holds this node's cells. A value
	// depends only on its node's subtree, so a node may read and store
	// the cells of any node whose subtree has the same shape and class
	// keys: classify sets rep to the smallest such node, and SetWeights
	// points a node whose subtree a patch changed at its own row, and
	// hands a changed representative's row to the first member the
	// patch left unchanged. A row only ever holds the value of its own
	// node's current subtree, since Patch empties the row of every node
	// whose subtree changed. Equal classes enumerate identically, so
	// the cost, the argmin and every schedule are those of a per-node
	// memo.
	rep cdag.NodeID
	// shared reports that some other node may read this node's row, so
	// a patch that dirties it must look for its class members.
	shared bool
}

// NewDP returns the engine of f over g, its errors prefixed by name.
// The nodes g's roots reach through their parents must form an
// in-forest, numbered topologically, and every node of extra must be
// no harder to compute than a forest node, so that the roots' bounds
// bound the graph. roots and extra depend on the shape alone and are
// kept across Reset. Only the class representatives' rows are stored
// into until a patch splits a class, so only they get slab windows.
func NewDP[C any](name string, g *cdag.Graph, roots, extra []cdag.NodeID, f Family[C]) DP[C] {
	t := DP[C]{f: f, name: name, roots: roots, extra: extra, nodes: make([]node, g.Len())}
	t.Reset(g)
	t.memo = NewRows[Cell[C]](g, func(v cdag.NodeID) bool { return t.nodes[v].rep == v && !g.IsSource(v) })
	return t
}

// Reset points the engine at g, a graph of the shape it was built
// for, under any weights. It empties the memo, keeping its capacity,
// and recomputes the existence bounds and the classes, so the next
// query answers exactly as a fresh NewDP would, without allocating.
// Observation counts not yet taken are kept.
func (t *DP[C]) Reset(g *cdag.Graph) {
	t.g = g
	t.memo.Reset()
	for v := range t.nodes {
		t.setExist(cdag.NodeID(v))
	}
	t.setBound()
	t.classify()
}

// setExist recomputes v's existence bound from its parents' bounds.
func (t *DP[C]) setExist(v cdag.NodeID) {
	e := t.g.Weight(v)
	for _, p := range t.g.Parents(v) {
		e += t.g.Weight(p)
	}
	for _, p := range t.g.Parents(v) {
		e = max(e, t.nodes[p].exist)
	}
	t.nodes[v].exist = e
}

// setBound recomputes the graph's existence bound from the roots'.
func (t *DP[C]) setBound() {
	t.bound = 0
	for _, r := range t.roots {
		t.bound = max(t.bound, t.nodes[r].exist)
	}
}

// Exist returns the existence bound (Prop 2.3) of the current weights,
// below which MinCost is Inf. Reset and SetWeights keep it current.
func (t *DP[C]) Exist() cdag.Weight { return t.bound }

// classSlots is classify's scratch, drawn from classTables for one
// pass, so no engine keeps it: an open-addressed hash table, whose
// slot i holds a class representative's ID plus one, or 0 when empty.
type classSlots struct{ slots []int32 }

var classTables = sync.Pool{New: func() any { return new(classSlots) }}

// classify sets every rep[v] to the smallest node whose subtree has
// v's shape and weights, by hash-consing: two nodes are in one class
// iff they have equal weights and their parents, in order, are in
// equal classes. That is all a family's cell reads, since a value
// depends only on its node's subtree. Node IDs are topological, so
// one forward pass sees every parent's class first, and the first node
// of a class to reach the table is its smallest.
func (t *DP[C]) classify() {
	n := len(t.nodes)
	ct := classTables.Get().(*classSlots)
	bits := 1
	for 1<<bits < 2*n {
		bits++
	}
	if cap(ct.slots) < 1<<bits {
		ct.slots = make([]int32, 1<<bits)
	}
	slots := ct.slots[:1<<bits]
	clear(slots)
	mask := uint64(len(slots) - 1)
	for v := range t.nodes {
		id, nd := cdag.NodeID(v), &t.nodes[v]
		nd.shared = false
		h := uint64(t.g.Weight(id))
		for _, p := range t.g.Parents(id) {
			h = (h ^ uint64(t.nodes[p].rep)) * 0x9e3779b97f4a7c15
		}
		for i := (h * 0x9e3779b97f4a7c15) >> (64 - bits); ; i = (i + 1) & mask {
			r := slots[i]
			if r == 0 {
				slots[i] = int32(v) + 1
				nd.rep = id
				break
			}
			if r := cdag.NodeID(r - 1); t.sameClass(r, id) {
				nd.rep = r
				t.nodes[r].shared = true
				break
			}
		}
	}
	classTables.Put(ct)
}

// sameClass reports whether r and v have equal weights and their
// parents, in order, have equal representatives.
func (t *DP[C]) sameClass(r, v cdag.NodeID) bool {
	if t.g.Weight(r) != t.g.Weight(v) {
		return false
	}
	pr, pv := t.g.Parents(r), t.g.Parents(v)
	if len(pr) != len(pv) {
		return false
	}
	for j, p := range pv {
		if t.nodes[p].rep != t.nodes[pr[j]].rep {
			return false
		}
	}
	return true
}

// SetWeights applies weight deltas to the graph and invalidates
// exactly the memo rows whose value can change: a value depends only
// on weights inside its node's subtree, so only the changed nodes'
// descendants go stale (Rows.Patch). Their existence bounds are
// recomputed bottom-up, and the graph is reverted unchanged on any
// error, Family.Check's included. A stale node leaves its class for
// its own, emptied row. A stale representative first hands its row,
// whose cells still hold for the members the patch left unchanged, to
// the smallest of them (handOver), so patching one subtree keeps its
// class's cells warm for the rest. It returns the number of budget
// intervals cleared and the number surviving, which also feed
// TakeCounts; rows keep their capacity, so re-solving after a patch
// allocates nothing in steady state.
func (t *DP[C]) SetWeights(ds []cdag.WeightDelta) (invalidated, reused int64, err error) {
	handed := false
	invalidated, reused, err = t.memo.Patch(t.g, ds, t.name, t.f.Check, func(v cdag.NodeID) {
		t.setExist(v)
		if nd := &t.nodes[v]; !handed && nd.shared && nd.rep == v {
			t.handOver(v)
			handed = true
		}
		t.nodes[v] = node{exist: t.nodes[v].exist, rep: v}
	})
	if err != nil {
		return 0, 0, err
	}
	t.setBound()
	return invalidated, reused, nil
}

// handOver runs once per patch, from the patch callback of r0, its
// smallest stale shared representative, before any later stale node's
// callback. In one forward pass it moves every stale representative's
// row to the smallest member of its class that the patch left
// unchanged, the class's heir, and points every such member at the
// heir. A class's members all follow its representative in ID order,
// so no class starts before r0. A stale representative r notes its
// heir in its own rep until r's callback resets r; stale members are
// left to their own callbacks.
func (t *DP[C]) handOver(r0 cdag.NodeID) {
	for v := r0 + 1; int(v) < len(t.nodes); v++ {
		r := t.nodes[v].rep
		if r == v || t.memo.Dirtied(v) || !t.memo.Dirtied(r) {
			continue
		}
		if m := t.nodes[r].rep; m != r {
			t.nodes[v].rep = m
			t.nodes[m].shared = true
			continue
		}
		t.memo.Swap(r, v)
		t.nodes[r].rep = v
		t.nodes[v].rep = v
	}
}

// Sub returns v's value at budget b, with the budget interval on which
// it holds, for a cell at depth d−1 consulting its parent v. The two
// O(1) cases are answered here, without probing the memo, storing a
// step or ticking the guard: below v's existence bound the value is
// Inf on (−Inf, exist[v]−1], and a source costs its one load w on
// [w, Inf]. Every other value is v's cell.
func (t *DP[C]) Sub(v cdag.NodeID, b cdag.Weight, d int) (cdag.Weight, cdag.Weight, cdag.Weight) {
	if e := t.nodes[v].exist; b < e {
		return Inf, -Inf, e - 1
	}
	if t.g.IsSource(v) {
		w := t.g.Weight(v)
		return w, w, Inf
	}
	c, lo, hi := t.cell(v, b, d)
	return c.Cost, lo, hi
}

// cell returns the cell of non-source v at budget b ≥ exist[v] from
// the row of v's class, noting a warm hit, or computes it with
// Family.Cell and stores it there.
func (t *DP[C]) cell(v cdag.NodeID, b cdag.Weight, d int) (Cell[C], cdag.Weight, cdag.Weight) {
	r := t.nodes[v].rep
	if st := t.memo.Find(r, b); st != nil {
		t.memo.Hit()
		return st.V, st.Lo, st.Hi
	}
	// Cancellation checkpoint on the cold path only: warm hits return
	// above untouched, and an all-warm solve finishes in microseconds.
	if t.memo.Tick() {
		return Cell[C]{Cost: Inf}, b, b
	}
	c, lo, hi := t.f.Cell(v, b, d)
	return t.memo.Store(r, b, max(lo, t.nodes[v].exist), hi, c)
}

// MinCost returns the minimum weighted schedule cost under budget b:
// each root's value plus its own final store, plus one store for each
// extra node (Lemma 3.4, Eq. 7). It returns Inf when no valid schedule
// exists under b.
func (t *DP[C]) MinCost(b cdag.Weight) cdag.Weight {
	if b < t.bound {
		return Inf
	}
	var total cdag.Weight
	for _, r := range t.roots {
		c, _, _ := t.Sub(r, b, 0)
		if c >= Inf { // only an aborted query leaves a feasible root at Inf
			return Inf
		}
		total += c + t.g.Weight(r)
	}
	for _, v := range t.extra {
		total += t.g.Weight(v)
	}
	return total
}

// Emit appends to sched the moves realizing v's value at budget b and
// recursion depth d: a source's load, or Family.Gen on v's cell, read
// from the memo that MinCost filled. A cell the memo lacks, one whose
// store the query's guard refused, is computed here as Sub would
// compute it.
func (t *DP[C]) Emit(v cdag.NodeID, b cdag.Weight, d int, sched *core.Schedule) error {
	c := Cell[C]{Cost: Inf}
	switch {
	case b < t.nodes[v].exist:
	case t.g.IsSource(v):
		*sched = sched.Append(core.Move{Kind: core.M1, Node: v})
		return nil
	default:
		c, _, _ = t.cell(v, b, d)
	}
	if c.Cost >= Inf { // only an aborted query leaves a feasible cell at Inf
		return fmt.Errorf("%s: internal error: infeasible subproblem node %d budget %d", t.name, v, b)
	}
	return t.f.Gen(v, b, d, c.Arg, sched)
}

// moveBuffers pools Schedule's generation buffers, so no engine keeps
// one and a warm buffer allocates nothing while it fills.
var moveBuffers = sync.Pool{New: func() any { return new(core.Schedule) }}

// Schedule generates a minimum weighted schedule for budget b: each
// root's moves, then the root's store and release. It always passes
// core.Simulate with exactly MinCost(b) weighted I/O. It is generated
// into a pooled buffer and copied out, so its capacity is its length.
func (t *DP[C]) Schedule(b cdag.Weight) (core.Schedule, error) {
	if t.MinCost(b) >= Inf {
		return nil, fmt.Errorf("%s: no valid schedule under budget %d (existence bound %d)", t.name, b, t.bound)
	}
	buf := moveBuffers.Get().(*core.Schedule)
	defer moveBuffers.Put(buf)
	*buf = (*buf)[:0]
	for _, r := range t.roots {
		if err := t.Emit(r, b, 0, buf); err != nil {
			return nil, err
		}
		*buf = buf.Append(core.Move{Kind: core.M2, Node: r}, core.Move{Kind: core.M4, Node: r})
	}
	sched := make(core.Schedule, len(*buf))
	copy(sched, *buf)
	return sched, nil
}

// CostCtx is MinCost under a cancellation context and resource
// limits, guarded by the memo's reusable checker, so a warm query
// allocates nothing when lim carries no deadline. It returns
// guard.ErrCanceled / guard.ErrDeadline / guard.ErrBudgetExceeded
// (wrapped) when the query was aborted; limits are per query, and the
// engine remains usable afterwards: partial results computed after
// the abort are never memoized.
func (t *DP[C]) CostCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (cdag.Weight, error) {
	t.memo.Begin(ctx, lim)
	defer t.memo.End()
	c := t.MinCost(b)
	if err := t.memo.Err(); err != nil {
		return 0, fmt.Errorf("%s: %w", t.name, err)
	}
	return c, nil
}

// ScheduleCtx is Schedule under a cancellation context and resource
// limits, with the same guard and abort semantics as CostCtx.
func (t *DP[C]) ScheduleCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (core.Schedule, error) {
	t.memo.Begin(ctx, lim)
	defer t.memo.End()
	sched, err := t.Schedule(b)
	if cerr := t.memo.Err(); cerr != nil {
		return nil, fmt.Errorf("%s: %w", t.name, cerr)
	}
	return sched, err
}

// TakeCounts returns and resets the observation counts (memo hits,
// entries, interval splits, patch invalidations) that CostCtx,
// ScheduleCtx and SetWeights accumulated since the last call, for
// metric export.
func (t *DP[C]) TakeCounts() guard.Counts { return t.memo.TakeCounts() }

// MinMemory returns the minimum fast memory size of Definition 2.6:
// the smallest budget (on multiples of step) whose minimum schedule
// cost equals the algorithmic lower bound. MinCost is monotone
// non-increasing in the budget, so memdesign.MinMemory's binary search
// applies, and it runs inside this engine's warm memo.
func (t *DP[C]) MinMemory(step cdag.Weight) (cdag.Weight, error) {
	b, err := memdesign.MinMemory(t.g, t.MinCost, step)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", t.name, err)
	}
	return b, nil
}

// Rep returns the node whose memo row holds v's cells.
func (t *DP[C]) Rep(v cdag.NodeID) cdag.NodeID { return t.nodes[v].rep }

// Covers reports whether v's own memo row holds a step covering b.
func (t *DP[C]) Covers(v cdag.NodeID, b cdag.Weight) bool { return t.memo.Find(v, b) != nil }
