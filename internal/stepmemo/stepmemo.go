// Package stepmemo is the budget memo shared by the paper's optimal
// dynamic programs: P(v, b) for DWT graphs (Lemma 3.3), Pt(v, b) for
// k-ary trees (Eq. 6) and Pm(v, b, I, R) for memory states (Eq. 8).
//
// Each of those values is a step function of the budget b. A cold DP
// cell derives the interval on which its value holds by intersecting
// its own co-residency cutoff with the intervals of every sub-call it
// consulted, shifted by the red weight held while that sub-call ran.
// On the intersection every consulted value is constant, so the
// minimum and its argmin are too, and one computed value answers a
// whole budget interval: a query at a nearby budget, the dominant
// access pattern of budget sweeps and the memory-design binary
// search, is a warm hit instead of a fresh enumeration.
//
// A Row holds one memo key's steps as a sorted, disjoint list; a Memo
// holds the per-node generations, live-step counts, the reusable query
// guard and patch scratch; Rows pairs a Memo with one slab-backed Row
// per node (ktree, dwt), while memstate keeps Rows in its own hash
// table keyed by node and memory states. Memo.Patch applies weight deltas and
// invalidates, by generation stamp, exactly the rows whose value can
// change; Rows.Patch also empties them on the spot.
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

// Row is one memo key's steps, sorted by Lo and pairwise disjoint,
// stamped with the generation its node had when they were stored. A
// row stamped with an older generation was invalidated by a patch: it
// reads as empty and is emptied, keeping its capacity, by its next
// store. (A stale stamp could only look current again after 2^32
// patches of one node.)
type Row[V any] struct {
	steps []Step[V]
	gen   uint32
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

// find returns the step covering budget b, or nil, ignoring the
// generation stamp. It repeats search's loop so that Rows.Find stays
// within the inlining budget: a warm hit is then no call at all.
func (r *Row[V]) find(b cdag.Weight) *Step[V] {
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

// Find returns the step covering budget b, or nil when none does or
// the row predates generation gen. It is one binary search over a
// short slice and allocates nothing.
func (r *Row[V]) Find(gen uint32, b cdag.Weight) *Step[V] {
	if r.gen != gen {
		return nil
	}
	return r.find(b)
}

// insert stores s, computed at the uncovered budget b ∈ [s.Lo, s.Hi],
// clipped to the gap around b. Neighbouring steps are restrictions of
// the same step function, so wherever they overlap they agree and
// clipping discards only redundancy. It reports whether s was stored
// (a step that clips to nothing is dropped) and whether it was
// clipped.
func (r *Row[V]) insert(gen uint32, b cdag.Weight, s Step[V]) (stored, clipped bool) {
	if r.gen != gen {
		r.gen = gen
		r.steps = r.steps[:0]
	}
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

// Store inserts s, computed for node v at the uncovered budget b, into
// r (one of v's rows) under v's current generation, and accounts it
// as live. Call it only after Memo.Admit.
func (r *Row[V]) Store(m *Memo, v cdag.NodeID, b cdag.Weight, s Step[V]) {
	n := &m.nodes[v]
	stored, clipped := r.insert(n.gen, b, s)
	if stored {
		n.live++
		m.live++
	}
	if clipped {
		m.ck.NoteSplit()
	}
}

// node is the per-node memo state.
type node struct {
	// gen is the node's memo generation: rows stamped older are stale.
	gen uint32
	// mark equal to Memo.epoch means the node was already invalidated
	// by the current patch, so shared descendants are walked once.
	mark uint32
	// live counts the steps stored for the node under gen.
	live int64
}

// Memo is the bookkeeping every budget memo shares: per-node
// generations and live-step counts, the query guard, and the scratch
// of Patch. Its zero value is not usable; build it with New.
type Memo struct {
	// q is the memo's reusable query guard. ck points at it while a
	// guarded query (Begin … End) runs and is nil otherwise: the DP
	// checks it per cold cell and never stores results computed after
	// it trips, so an aborted query cannot poison later ones, and an
	// unguarded query pays one pointer test per cell.
	q     guard.Checker
	ck    *guard.Checker
	nodes []node
	// live is the sum of nodes[·].live; Patch reports it as the reused
	// count.
	live  int64
	epoch uint32
	saved []cdag.Weight
	stack []cdag.NodeID
	dirty []cdag.NodeID
}

// New returns the memo state for a graph of n nodes.
func New(n int) Memo { return Memo{nodes: make([]node, n)} }

// Begin Resets the memo's reusable checker under ctx and lim and
// installs it as the guard of one query; defer End right after it, so
// a panicking query cannot leave its guard installed. Limits are per
// query, while observation counts accumulate until TakeCounts, so a
// warm query allocates nothing for its guard when lim carries no
// deadline.
func (m *Memo) Begin(ctx context.Context, lim guard.Limits) {
	m.q.Reset(ctx, lim)
	m.ck = &m.q
}

// End uninstalls the query guard and frees its deadline timer, if any.
func (m *Memo) End() {
	m.ck = nil
	m.q.Release()
}

// Err returns the abort reason of the last guarded query, or nil.
func (m *Memo) Err() error { return m.q.Err() }

// TakeCounts returns and zeroes the observation counts (memo hits,
// entries, interval splits, patch invalidations) of the guarded queries
// and patches since the last call, teeing them into the sink of the
// last query's context (guard.Checker.TakeCounts).
func (m *Memo) TakeCounts() guard.Counts { return m.q.TakeCounts() }

// Gen returns v's current generation, for Row.Find.
func (m *Memo) Gen(v cdag.NodeID) uint32 { return m.nodes[v].gen }

// Hit records one warm memo hit.
func (m *Memo) Hit() { m.ck.NoteHit() }

// Tick is the cold-path cancellation checkpoint: it reports whether
// the solve must abort. A caller that aborts returns its poisoned
// value with the empty-width interval [b, b], so no enclosing cell can
// widen its own step around it.
func (m *Memo) Tick() bool { return m.ck != nil && m.ck.Tick() != nil }

// Admit reports whether a freshly computed step may be stored: never
// after the guard tripped (partial results must not persist), and only
// while the memo-entry budget lasts (the charge trips the guard for
// the rest of the solve once it runs out).
func (m *Memo) Admit() bool {
	return m.ck == nil || (m.ck.Err() == nil && m.ck.AddMemo(1) == nil)
}

// Patch applies weight deltas to g and invalidates every memo row
// whose value can change. A DP value at v depends only on weights
// inside v's subtree, so a change at u stales u and its descendants:
// the walk bumps their generations and drops their live counts. In an
// in-tree the descendants of u are exactly u's root chain.
//
// validate, when non-nil, runs once the deltas are applied. On any
// error (a bad node or weight, or validate failing) every applied
// delta is reverted, in reverse order so duplicate-node lists unwind
// correctly, and the graph and memo are left unchanged; weight errors
// are reported as "<family>: patch: …", validate's errors as they are.
// dirty, when non-nil, is called on every invalidated node in
// ascending ID order, which is topological for every family's graph.
// Patch returns the number of steps invalidated and the number
// surviving, and notes both in the observation counts.
func (m *Memo) Patch(g *cdag.Graph, ds []cdag.WeightDelta, family string, validate func() error, dirty func(cdag.NodeID)) (invalidated, reused int64, err error) {
	m.saved = m.saved[:0]
	for _, d := range ds {
		var old cdag.Weight
		if int(d.Node) >= 0 && int(d.Node) < g.Len() {
			old = g.Weight(d.Node)
		}
		if err = g.TrySetWeight(d.Node, d.Weight); err != nil {
			err = fmt.Errorf("%s: patch: %w", family, err)
			break
		}
		m.saved = append(m.saved, old)
	}
	if err == nil && validate != nil {
		err = validate()
	}
	if err != nil {
		for j := len(m.saved) - 1; j >= 0; j-- {
			g.SetWeight(ds[j].Node, m.saved[j])
		}
		return 0, 0, err
	}
	m.epoch++
	if m.epoch == 0 { // wrapped: every stale mark now looks current
		for i := range m.nodes {
			m.nodes[i].mark = 0
		}
		m.epoch = 1
	}
	stack, dl := m.stack[:0], m.dirty[:0]
	for _, d := range ds {
		stack = append(stack, d.Node)
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &m.nodes[v]
		if n.mark == m.epoch {
			continue
		}
		n.mark = m.epoch
		n.gen++
		invalidated += n.live
		m.live -= n.live
		n.live = 0
		dl = append(dl, v)
		stack = append(stack, g.Children(v)...)
	}
	m.stack, m.dirty = stack, dl
	if dirty != nil {
		slices.Sort(dl)
		for _, v := range dl {
			dirty(v)
		}
	}
	m.q.NoteInvalidation(invalidated, m.live)
	return invalidated, m.live, nil
}

// Rows is a Memo with one Row per node, for DPs keyed by node alone.
type Rows[V any] struct {
	Memo
	rows []Row[V]
}

// rowSlots is the number of steps each Rows row holds before it moves
// to a heap slice of its own.
const rowSlots = 2

// NewRows returns the memo for a graph of n nodes. Every row starts
// as a private window of rowSlots steps cut from one slab, capped so
// that a row outgrowing it moves to a heap slice of its own instead of
// overwriting its neighbour's window.
func NewRows[V any](n int) Rows[V] {
	rows := make([]Row[V], n)
	slab := make([]Step[V], rowSlots*n)
	for v := range rows {
		rows[v].steps = slab[rowSlots*v : rowSlots*v : rowSlots*(v+1)]
	}
	return Rows[V]{Memo: New(n), rows: rows}
}

// Find returns v's step covering budget b, or nil. Patch empties
// stale rows on the spot, so Find skips the generation check.
func (r *Rows[V]) Find(v cdag.NodeID, b cdag.Weight) *Step[V] {
	return r.rows[v].find(b)
}

// Patch is Memo.Patch that also empties every invalidated row, keeping
// its capacity.
func (r *Rows[V]) Patch(g *cdag.Graph, ds []cdag.WeightDelta, family string, validate func() error, dirty func(cdag.NodeID)) (invalidated, reused int64, err error) {
	if invalidated, reused, err = r.Memo.Patch(g, ds, family, validate, dirty); err == nil {
		for _, v := range r.dirty {
			r.rows[v].steps = r.rows[v].steps[:0]
		}
	}
	return invalidated, reused, err
}

// Store memoizes x on [lo, hi] for v, computed at the uncovered budget
// b, unless Admit refuses it, and returns x with its interval: the
// triple a DP cell returns.
func (r *Rows[V]) Store(v cdag.NodeID, b, lo, hi cdag.Weight, x V) (V, cdag.Weight, cdag.Weight) {
	if r.Admit() {
		r.rows[v].Store(&r.Memo, v, b, Step[V]{Lo: lo, Hi: hi, V: x})
	}
	return x, lo, hi
}
