package ktree

import (
	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/stepmemo"
)

// choice is the argmin of one memoized Pt(v, ·) cell. The chosen
// parent order is a row index into the shared permutation table of the
// node's arity (permTable), so cells hold no per-cell slices; delta
// bit i set means the parent at position i of that row keeps its red
// pebble while later parents are computed (δ_i = 1 in Eq. 6).
type choice struct {
	permIdx int32
	delta   uint16
}

// Scheduler computes Pt(v, b) (Eq. 6) with memoization and generates
// optimal schedules for k-ary trees. It is the recurrence and the move
// generator over the tree DP engine (stepmemo.DP), which owns the memo,
// its guard, the class cells and the existence bounds, and answers
// MinCost, Schedule, MinMemory, their guarded forms and SetWeights.
// Subtrees of one shape and weighting share their memo row. It is not
// safe for concurrent use.
type Scheduler struct {
	stepmemo.DP[choice]
	t *Tree
	// root is the engine's root list: the tree's one root.
	root [1]cdag.NodeID
	// subs is the sub-result scratch of the cells in flight: the cell
	// at recursion depth d (the root is depth 0) owns the stride-wide
	// window at d·stride, and each of its slots holds the value of one
	// distinct sub-call (see Cell). Only one cell per depth is ever in
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
		t:    t,
		root: [1]cdag.NodeID{t.Root},
		// Sources have no cell, so the deepest cell sits one above the
		// deepest leaf.
		subs:   make([]cdag.Weight, height(t.G, t.Root)*stride),
		stride: stride,
	}
	s.DP = stepmemo.NewDP[choice]("ktree", t.G, s.root[:], nil, recurrence{s})
	return s
}

// Reset points the scheduler at t, a tree of the same shape as the one
// it was built for (the same adjacency, as every Tree of one Topology
// has), under any weights. It empties the memo, keeping its capacity,
// and recomputes the classes and existence bounds, so the next query
// answers exactly as a NewScheduler(t) would, without allocating. The
// permutation tables and the cell scratch depend on the shape alone
// and are kept.
func (s *Scheduler) Reset(t *Tree) {
	s.t = t
	s.DP.Reset(t.G)
}

// height returns the number of edges on the longest leaf-to-v path.
func height(g *cdag.Graph, v cdag.NodeID) int {
	h := 0
	for _, p := range g.Parents(v) {
		h = max(h, 1+height(g, p))
	}
	return h
}

// recurrence is the Scheduler as its engine calls it
// (stepmemo.Family): the cell of Eq. 6 and its moves.
type recurrence struct{ *Scheduler }

// Check accepts every positive weighting: Eq. 6 assumes nothing more.
func (recurrence) Check() error { return nil }

// unset marks a sub-result slot that no strategy has consulted yet;
// every real value is a cost ≥ 0 or Inf.
const unset cdag.Weight = -1

// Cell computes the cold cell Pt(v, b) of Eq. 6 for a non-source v at a
// budget b ≥ v's existence bound, minimizing over parent permutations
// σ and keep/spill vectors δ, and taking the first strict minimum in
// (σ, δ) order. Two families of configurations are skipped because
// they are strictly dominated, so neither the minimum nor its argmin
// changes:
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
// The cell's interval narrows by every sub-call interval it consults,
// shifted by the red-pebble weight held while that sub-call ran.
func (s recurrence) Cell(v cdag.NodeID, b cdag.Weight, d int) (stepmemo.Cell[choice], cdag.Weight, cdag.Weight) {
	g := s.t.G
	parents := g.Parents(v)
	k := len(parents)
	subs := s.subs[d*s.stride:][:k<<uint(k)]
	for i := range subs {
		subs[i] = unset
	}
	lo, hi := -Inf, Inf
	best := stepmemo.Cell[choice]{Cost: Inf}
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
					*c, slo, shi = s.Sub(p, b-held, d+1)
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
			if i < k || cost >= best.Cost {
				continue
			}
			best = stepmemo.Cell[choice]{Cost: cost, Arg: choice{permIdx: int32(pi), delta: delta}}
		}
	}
	return best, lo, hi
}

// Gen emits the moves realizing choice e of Pt(v, b) for non-source v:
// red pebble on v at the end, no other red pebbles in v's subtree. d is
// v's recursion depth.
func (s recurrence) Gen(v cdag.NodeID, b cdag.Weight, d int, e choice, sched *core.Schedule) error {
	g := s.t.G
	parents := g.Parents(v)
	order := permTable(len(parents))[e.permIdx]
	var held cdag.Weight
	for i, oi := range order {
		p := parents[oi]
		if err := s.Emit(p, b-held, d+1, sched); err != nil {
			return err
		}
		if e.delta&(1<<uint(i)) != 0 {
			held += g.Weight(p)
		} else {
			*sched = sched.Append(core.Move{Kind: core.M2, Node: p}, core.Move{Kind: core.M4, Node: p})
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

// StrategyCount returns 2^k·k!, the number of per-node strategies of
// Eq. 6 for in-degree k — the quantity bounding Theorem 3.8. The DP
// evaluates the half that keeps σ's last parent (see Cell).
func StrategyCount(k int) int {
	return permCount(k) << uint(k)
}
