// The incremental re-solve API of a warm Session. PatchTo moves the
// session's graph to a declarative target weight state (base weights
// plus a canonical delta list), computing the minimal set of actual
// weight writes against the current state, handing them to the family
// scheduler's dependency-tracked invalidation (dwt cone walk, ktree /
// memstate root chains), and leaving every untouched memo cell warm —
// so the next query re-solves a single-node change in a small fraction
// of a cold solve (the *PatchResolve perf kernels, docs/PERFORMANCE.md
// §incremental).
//
// Budget changes need no patching at all: the budget-interval memos
// absorb them (a new budget is just another query point). Only weight
// changes invalidate.
//
// No-poison semantics compose: patching happens strictly between
// queries (never during one), an errored patch reverts the graph
// unchanged, and aborted queries after a patch never memoize — so a
// session interleaving patches, sweeps, faults and aborts never serves
// a stale or poisoned cell.

package solve

import (
	"fmt"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
)

// PatchStats reports what one PatchTo / Patch call did.
type PatchStats struct {
	// Changed is the number of node weights actually written: the
	// merge-diff of the requested target against the session's current
	// state (re-asserting the current weight writes nothing).
	Changed int
	// Invalidated is the number of memo cells (DP entries or budget
	// intervals) cleared because a changed node sits in their subtree.
	Invalidated int64
	// Reused is the number of memo cells that survived — the work the
	// incremental re-solve avoids redoing.
	Reused int64
}

// Deltas returns the session's current canonical delta state relative
// to its base instance (nil when the session sits at base weights).
// The returned slice is owned by the session; do not mutate it.
func (s *Session) Deltas() []cdag.WeightDelta { return s.cur }

// PatchTo moves the session to the target weight state: base instance
// weights overridden by target, which must be canonical (strictly
// increasing node IDs, positive weights — cdag.CanonicalDeltas).
// Nodes named in a previous patch but absent from target revert to
// their base weights, so PatchTo(nil) restores the base instance
// exactly. Only the diff against the current state is applied and
// invalidated; a PatchTo re-asserting the current state is O(|target|)
// and touches no memo cell. In steady state (capacities warmed, no
// new nodes patched) it allocates nothing.
//
// On error — malformed target, unknown node, a family constraint like
// the DWT weight assumption violated — the session is unchanged and
// remains usable.
func (s *Session) PatchTo(target []cdag.WeightDelta) (PatchStats, error) {
	n := s.g.Len()
	for i, d := range target {
		if d.Node < 0 || int(d.Node) >= n {
			return PatchStats{}, fmt.Errorf("solve: patch: node %d out of range [0,%d)", d.Node, n)
		}
		if d.Weight < 1 {
			return PatchStats{}, fmt.Errorf("solve: patch: non-positive weight %d on node %d", d.Weight, d.Node)
		}
		if i > 0 && d.Node <= target[i-1].Node {
			return PatchStats{}, fmt.Errorf("solve: patch: deltas not canonical at index %d: node %d after node %d", i, d.Node, target[i-1].Node)
		}
	}
	// Merge-diff current state against target: revert nodes that fell
	// out, write nodes whose effective weight differs.
	ch := s.scratch[:0]
	i, j := 0, 0
	for i < len(s.cur) || j < len(target) {
		switch {
		case j >= len(target) || (i < len(s.cur) && s.cur[i].Node < target[j].Node):
			if v := s.cur[i].Node; s.g.Weight(v) != s.baseW[v] {
				ch = append(ch, cdag.WeightDelta{Node: v, Weight: s.baseW[v]})
			}
			i++
		default:
			if d := target[j]; s.g.Weight(d.Node) != d.Weight {
				ch = append(ch, d)
			}
			if i < len(s.cur) && s.cur[i].Node == target[j].Node {
				i++
			}
			j++
		}
	}
	s.scratch = ch
	st := PatchStats{Changed: len(ch)}
	if len(ch) > 0 {
		if s.patch == nil {
			return PatchStats{}, fmt.Errorf("solve: family %q does not support incremental patching", s.inst.Family)
		}
		inv, reused, err := s.patch(ch)
		if err != nil {
			return PatchStats{}, err
		}
		st.Invalidated, st.Reused = inv, reused
		// Weights moved, so the cached bounds must too (both are
		// allocation-free single passes over the graph).
		s.lb = core.LowerBound(s.g)
		s.minExist = core.MinExistenceBudget(s.g)
		s.flush()
	}
	s.cur = append(s.cur[:0], target...)
	return st, nil
}

// Patch applies deltas on top of the session's *current* state (the
// imperative form of PatchTo): deltas are canonicalized, merged over
// the current delta state (new values win), and the result applied via
// PatchTo. Unlike PatchTo it never reverts nodes it does not name.
func (s *Session) Patch(ds []cdag.WeightDelta) (PatchStats, error) {
	cds := cdag.CanonicalDeltas(ds)
	if len(cds) == 0 {
		return PatchStats{}, nil
	}
	merged := s.merged[:0]
	i, j := 0, 0
	for i < len(s.cur) || j < len(cds) {
		switch {
		case j >= len(cds) || (i < len(s.cur) && s.cur[i].Node < cds[j].Node):
			merged = append(merged, s.cur[i])
			i++
		default:
			merged = append(merged, cds[j])
			if i < len(s.cur) && s.cur[i].Node == cds[j].Node {
				i++
			}
			j++
		}
	}
	s.merged = merged
	return s.PatchTo(merged)
}
