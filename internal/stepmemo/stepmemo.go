// Package stepmemo is the budget memo shared by the paper's optimal
// dynamic programs, P(v, b) for DWT graphs (Lemma 3.3), Pt(v, b) for
// k-ary trees (Eq. 6) and Pm(v, b, I, R) for memory states (Eq. 8),
// and the engine of the two tree-shaped ones.
//
// Each of those values is a step function of the budget b. A cold DP
// cell derives the interval on which its value holds by intersecting
// its existence cutoff with the intervals of every sub-call it
// consulted, shifted by the red weight held while that sub-call ran.
// On the intersection every consulted value is constant, so the
// minimum and its argmin are too, and one computed value answers a
// whole budget interval: a query at a nearby budget, the dominant
// access pattern of budget sweeps and the memory-design binary
// search, is a warm hit instead of a fresh enumeration.
//
// A Row holds one memo key's steps as a sorted, disjoint list. Rows
// keeps one Row per node with the live-step count, the reusable query
// guard and the patch scratch; memstate keeps one Row per key in its
// own hash table keyed by node and memory states. Rows.Patch applies
// weight deltas and empties exactly the rows whose value can change:
// that is the memo's only invalidation.
//
// DP drives dwt's and ktree's recurrences over Rows. Each family
// supplies only its recurrence and its move generator (Family); DP
// owns the rest once for both: the guarded queries, the
// schedule frame, the memory-design search, the class map that lets
// isomorphic subtrees share one row, and the existence bounds kept
// along patched chains. Only the rows DP stores into own a slab
// window: not sources, which it answers without the memo, nor the
// rows of nodes that share their class representative's.
package stepmemo

import (
	"context"
	"fmt"
	"math"
	"slices"

	"wrbpg/internal/cdag"
	"wrbpg/internal/guard"
)

// Inf is the sentinel cost of an infeasible subproblem (the ∞ entries
// of Eqs. 2, 6 and 8). It is large enough that sums of Inf with node
// weights never overflow int64. It doubles as ∞ on the budget axis: a
// step open upward ends at Inf, one open downward starts at -Inf (no
// real budget reaches either).
const Inf cdag.Weight = math.MaxInt64 / 4

// Step records that a memoized value V holds on every budget in
// [Lo, Hi] (inclusive).
type Step[V any] struct {
	Lo, Hi cdag.Weight
	V      V
}

// Row is one memo key's steps, sorted by Lo and pairwise disjoint.
type Row[V any] struct {
	steps []Step[V]
}

// search returns the number of steps whose Lo is at most b.
func (r *Row[V]) search(b cdag.Weight) int {
	lo, hi := 0, len(r.steps)
	for lo < hi {
		mid := (lo + hi) >> 1
		if r.steps[mid].Lo <= b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Find returns the step covering budget b, or nil. It is one binary
// search over a short slice and allocates nothing. It repeats search's
// loop so that Rows.Find stays within the inlining budget: a warm hit
// is then no call at all.
func (r *Row[V]) Find(b cdag.Weight) *Step[V] {
	s := r.steps
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) >> 1
		if s[mid].Lo <= b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo--; lo >= 0 && s[lo].Hi >= b {
		return &s[lo]
	}
	return nil
}

// Store inserts s, computed at the uncovered budget b ∈ [s.Lo, s.Hi],
// clipped to the gap around b. Neighbouring steps are restrictions of
// the same step function, so wherever they overlap they agree and
// clipping discards only redundancy. It reports whether s was stored
// (a step that clips to nothing is dropped) and whether it was
// clipped.
func (r *Row[V]) Store(b cdag.Weight, s Step[V]) (stored, clipped bool) {
	i := r.search(b)
	if i > 0 && r.steps[i-1].Hi >= s.Lo {
		s.Lo = r.steps[i-1].Hi + 1
		clipped = true
	}
	if i < len(r.steps) && r.steps[i].Lo <= s.Hi {
		s.Hi = r.steps[i].Lo - 1
		clipped = true
	}
	if s.Lo > s.Hi {
		return false, clipped
	}
	r.steps = slices.Insert(r.steps, i, s)
	return true, clipped
}

// Rows is the budget memo of a DP keyed by node alone: one Row per
// node, the live-step count, the query guard and the scratch of Patch.
// Its zero value is not usable; build it with NewRows.
type Rows[V any] struct {
	rows []Row[V]
	// q is the memo's reusable query guard. ck points at it while a
	// guarded query (Begin … End) runs and is nil otherwise: the DP
	// checks it per cold cell and never stores results computed after
	// it trips, so an aborted query cannot poison later ones, and an
	// unguarded query pays one pointer test per cell.
	q  guard.Checker
	ck *guard.Checker
	// live is the number of steps stored across all rows; Patch
	// reports it as the reused count.
	live int64
	// marks[v] equal to epoch means v was emptied by the current (or,
	// between patches, the last) patch, so shared descendants are
	// walked once and Dirtied can answer afterwards.
	marks []uint32
	epoch uint32
	saved []cdag.Weight
	stack []cdag.NodeID
	dirty []cdag.NodeID
}

// rowSlots is the number of steps each windowed row holds before it
// moves to a heap slice of its own.
const rowSlots = 2

// NewRows returns the memo for g. Every row that stored reports the DP
// stores into starts as a private window of rowSlots steps cut from
// one slab, capped so that a row outgrowing it moves to a heap slice
// of its own instead of overwriting its neighbour's window. Every
// other row starts empty with no capacity; a store into it still
// works, on the heap. DP passes its non-source class representatives,
// whose rows every member of the class shares.
func NewRows[V any](g *cdag.Graph, stored func(cdag.NodeID) bool) Rows[V] {
	n := g.Len()
	windows := 0
	for v := 0; v < n; v++ {
		if stored(cdag.NodeID(v)) {
			windows++
		}
	}
	rows := make([]Row[V], n)
	slab := make([]Step[V], rowSlots*windows)
	for v := range rows {
		if stored(cdag.NodeID(v)) {
			rows[v].steps, slab = slab[:0:rowSlots], slab[rowSlots:]
		}
	}
	return Rows[V]{rows: rows, marks: make([]uint32, n)}
}

// Reset empties every row, keeping its capacity, so the memo answers
// for a new weighting of the same graph shape as a fresh NewRows would,
// without allocating. It notes no invalidation: a reset memo starts
// cold, it is not a patch. Observation counts not yet taken are kept.
func (r *Rows[V]) Reset() {
	for i := range r.rows {
		r.rows[i].steps = r.rows[i].steps[:0]
	}
	r.live = 0
}

// Begin resets the memo's reusable checker under ctx and lim and
// installs it as the guard of one query; defer End right after it, so
// a panicking query cannot leave its guard installed. Limits are per
// query, while observation counts accumulate until TakeCounts, so a
// warm query allocates nothing for its guard when lim carries no
// deadline.
func (r *Rows[V]) Begin(ctx context.Context, lim guard.Limits) {
	r.q.Reset(ctx, lim)
	r.ck = &r.q
}

// End uninstalls the query guard and releases it (guard.Checker.Release),
// so an idle memo keeps no finished request reachable.
func (r *Rows[V]) End() {
	r.ck = nil
	r.q.Release()
}

// Err returns the abort reason of the last guarded query, or nil.
func (r *Rows[V]) Err() error { return r.q.Err() }

// TakeCounts returns and zeroes the observation counts (memo hits,
// entries, interval splits, patch invalidations) of the guarded queries
// and patches since the last call.
func (r *Rows[V]) TakeCounts() guard.Counts { return r.q.TakeCounts() }

// Find returns v's step covering budget b, or nil.
func (r *Rows[V]) Find(v cdag.NodeID, b cdag.Weight) *Step[V] {
	return r.rows[v].Find(b)
}

// Dirtied reports whether the last successful Patch emptied v's row.
func (r *Rows[V]) Dirtied(v cdag.NodeID) bool {
	return r.epoch != 0 && r.marks[v] == r.epoch
}

// Swap exchanges the rows of a and b, capacity included.
func (r *Rows[V]) Swap(a, b cdag.NodeID) { r.rows[a], r.rows[b] = r.rows[b], r.rows[a] }

// Hit records one warm memo hit.
func (r *Rows[V]) Hit() { r.ck.NoteHit() }

// Tick is the cold-path cancellation checkpoint: it reports whether
// the solve must abort. A caller that aborts returns its poisoned
// value with the empty-width interval [b, b], so no enclosing cell can
// widen its own step around it.
func (r *Rows[V]) Tick() bool { return r.ck != nil && r.ck.Tick() != nil }

// Store memoizes x on [lo, hi] for v, computed at the uncovered budget
// b, and returns x with its interval: the triple a DP cell returns.
// The step is stored only while the guard has not tripped (partial
// results must not persist) and the memo-entry budget lasts (the
// charge trips the guard for the rest of the solve once it runs out).
func (r *Rows[V]) Store(v cdag.NodeID, b, lo, hi cdag.Weight, x V) (V, cdag.Weight, cdag.Weight) {
	if r.ck == nil || (r.ck.Err() == nil && r.ck.AddMemo(1) == nil) {
		stored, clipped := r.rows[v].Store(b, Step[V]{Lo: lo, Hi: hi, V: x})
		if stored {
			r.live++
		}
		if clipped {
			r.ck.NoteSplit()
		}
	}
	return x, lo, hi
}

// Patch applies weight deltas to g and empties every memo row whose
// value can change, keeping its capacity. A DP value at v depends only
// on weights inside v's subtree, so a change at u stales u and its
// descendants. In an in-tree the descendants of u are exactly u's root
// chain.
//
// validate, when non-nil, runs once the deltas are applied. On any
// error (a bad node or weight, or validate failing) every applied
// delta is reverted, in reverse order so duplicate-node lists unwind
// correctly, and the graph and memo are left unchanged; weight errors
// are reported as "<family>: patch: …", validate's errors as they are.
// dirty, when non-nil, is called on every node to be emptied, in
// ascending ID order, which is topological for every family's graph,
// just before its row is emptied; Dirtied already answers for the
// whole patch, and the callback may Swap the row to a node the patch
// left clean. Patch returns the number of steps invalidated and the
// number surviving, and notes both in the observation counts.
func (r *Rows[V]) Patch(g *cdag.Graph, ds []cdag.WeightDelta, family string, validate func() error, dirty func(cdag.NodeID)) (invalidated, reused int64, err error) {
	r.saved = r.saved[:0]
	for _, d := range ds {
		var old cdag.Weight
		if int(d.Node) >= 0 && int(d.Node) < g.Len() {
			old = g.Weight(d.Node)
		}
		if err = g.TrySetWeight(d.Node, d.Weight); err != nil {
			err = fmt.Errorf("%s: patch: %w", family, err)
			break
		}
		r.saved = append(r.saved, old)
	}
	if err == nil && validate != nil {
		err = validate()
	}
	if err != nil {
		for j := len(r.saved) - 1; j >= 0; j-- {
			g.SetWeight(ds[j].Node, r.saved[j])
		}
		return 0, 0, err
	}
	r.epoch++
	if r.epoch == 0 { // wrapped: every stale mark now looks current
		clear(r.marks)
		r.epoch = 1
	}
	stack, dl := r.stack[:0], r.dirty[:0]
	for _, d := range ds {
		stack = append(stack, d.Node)
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if r.marks[v] == r.epoch {
			continue
		}
		r.marks[v] = r.epoch
		dl = append(dl, v)
		stack = append(stack, g.Children(v)...)
	}
	r.stack, r.dirty = stack, dl
	if dirty != nil {
		slices.Sort(dl)
	}
	for _, v := range dl {
		if dirty != nil {
			dirty(v)
		}
		row := &r.rows[v]
		invalidated += int64(len(row.steps))
		row.steps = row.steps[:0]
	}
	r.live -= invalidated
	r.q.NoteInvalidation(invalidated, r.live)
	return invalidated, r.live, nil
}
