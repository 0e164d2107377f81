package stepmemo

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"wrbpg/internal/cdag"
	"wrbpg/internal/guard"
)

// stepFn is a non-increasing step function of the budget: Inf below 0,
// then 10 per cut point above b, so it drops by 10 at every cut.
type stepFn []cdag.Weight

func (f stepFn) at(b cdag.Weight) cdag.Weight {
	if b < 0 {
		return Inf
	}
	var v cdag.Weight
	for _, c := range f {
		if c > b {
			v += 10
		}
	}
	return v
}

// around returns the maximal step of f containing b: [-Inf, -1] below
// zero, otherwise from the last cut at or below b (or 0) to just
// before the next cut above b (or Inf).
func (f stepFn) around(b cdag.Weight) (lo, hi cdag.Weight) {
	if b < 0 {
		return -Inf, -1
	}
	lo, hi = 0, Inf
	for _, c := range f {
		if c <= b && c > lo {
			lo = c
		}
		if c > b && c-1 < hi {
			hi = c - 1
		}
	}
	return lo, hi
}

// checkRow asserts r's steps are non-empty, sorted, disjoint and agree
// with f at both ends (f is monotone, so that covers the whole step).
func checkRow(t *testing.T, r *Row[cdag.Weight], f stepFn) {
	t.Helper()
	for i, s := range r.steps {
		if s.Lo > s.Hi {
			t.Fatalf("step %d is empty: %+v", i, s)
		}
		if i > 0 && r.steps[i-1].Hi >= s.Lo {
			t.Fatalf("steps %d and %d overlap or are unsorted: %+v %+v", i-1, i, r.steps[i-1], s)
		}
		lo, hi := max(s.Lo, -1), min(s.Hi, 1<<20)
		if f.at(lo) != s.V || f.at(hi) != s.V {
			t.Fatalf("step %+v disagrees with the function (%d at %d, %d at %d)", s, f.at(lo), lo, f.at(hi), hi)
		}
	}
}

// FuzzRow drives one Row the way a DP does: a query that misses
// computes the value at b and inserts a step around b that is any
// sub-interval of the function's maximal step there (a cell's derived
// interval is an intersection, often narrower than the true step).
// Find must miss or agree with the function, and the row must stay
// sorted and disjoint.
func FuzzRow(f *testing.F) {
	f.Add([]byte{3, 5, 9, 20, 7, 0, 0, 30, 2, 1, 12, 0, 9, 255, 0, 0, 12, 0, 0})
	f.Add([]byte{1, 40, 60, 3, 3, 200, 1, 1, 41, 0, 0, 39, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := int(data[0] % 8)
		data = data[1:]
		if len(data) < k {
			return
		}
		fn := make(stepFn, k)
		for i := range fn {
			fn[i] = cdag.Weight(data[i] % 64)
		}
		data = data[k:]
		var r Row[cdag.Weight]
		for ; len(data) >= 3; data = data[3:] {
			b := cdag.Weight(int8(data[0]))
			if s := r.Find(b); s != nil {
				if s.Lo > b || s.Hi < b {
					t.Fatalf("Find(%d) returned %+v, which does not cover it", b, *s)
				}
				if want := fn.at(b); s.V != want {
					t.Fatalf("Find(%d) = %d, function says %d", b, s.V, want)
				}
				continue
			}
			lo, hi := fn.around(b)
			if d := cdag.Weight(data[1] % 16); lo+d <= b {
				lo += d
			}
			if d := cdag.Weight(data[2] % 16); hi-d >= b {
				hi -= d
			}
			stored, _ := r.Store(b, Step[cdag.Weight]{Lo: lo, Hi: hi, V: fn.at(b)})
			if !stored {
				t.Fatalf("store at uncovered budget %d stored nothing", b)
			}
			if s := r.Find(b); s == nil || s.V != fn.at(b) {
				t.Fatalf("budget %d not answered right after its insert", b)
			}
			checkRow(t, &r, fn)
		}
	})
}

// TestRowClipsToGap: a step overlapping both neighbours is clipped to
// the gap around its query budget, and the clip is reported.
func TestRowClipsToGap(t *testing.T) {
	var r Row[cdag.Weight]
	r.Store(0, Step[cdag.Weight]{Lo: 0, Hi: 9, V: 1})
	r.Store(30, Step[cdag.Weight]{Lo: 30, Hi: 39, V: 1})
	stored, clipped := r.Store(20, Step[cdag.Weight]{Lo: 5, Hi: 35, V: 1})
	if !stored || !clipped {
		t.Fatalf("Store: stored=%v clipped=%v, want true true", stored, clipped)
	}
	if got := r.steps[1]; got.Lo != 10 || got.Hi != 29 {
		t.Fatalf("middle step %+v, want [10, 29]", got)
	}
	if stored, _ := r.Store(5, Step[cdag.Weight]{Lo: 3, Hi: 8, V: 1}); stored {
		t.Fatalf("a step inside an existing one was stored: %+v", r.steps)
	}
}

// TestRowsSlabWindows: every non-source row owns a slab window of
// rowSlots steps and a row outgrowing it moves to its own slice without
// overwriting its neighbour's steps; a source owns no window, and a
// store into its row is found again.
func TestRowsSlabWindows(t *testing.T) {
	g := chain()
	m := NewRows[int](g, inner(g))
	for v := range m.rows {
		want := rowSlots
		if g.IsSource(cdag.NodeID(v)) {
			want = 0
		}
		if c := cap(m.rows[v].steps); c != want {
			t.Fatalf("node %d: window of %d steps, want %d", v, c, want)
		}
	}
	m.Store(3, 0, 0, 0, 30)
	for b := cdag.Weight(0); b < 5; b++ {
		m.Store(1, b, b, b, 10+int(b))
	}
	for b := cdag.Weight(0); b < 5; b++ {
		if s := m.Find(1, b); s == nil || s.V != 10+int(b) {
			t.Fatalf("node 1 budget %d: %+v", b, s)
		}
	}
	if s := m.Find(3, 0); s == nil || s.V != 30 {
		t.Fatalf("neighbour row clobbered: %+v", s)
	}
	if s := m.Find(0, 0); s != nil {
		t.Fatalf("empty source row answered %+v", *s)
	}
	m.Store(2, 4, 4, 7, 20)
	if s := m.Find(2, 6); s == nil || s.V != 20 {
		t.Fatalf("source row store not found again: %+v", s)
	}
	if m.live != 7 {
		t.Fatalf("live = %d, want 7", m.live)
	}
}

// TestStoreRefusedAfterTrip: once the guard trips, no step is stored,
// and the memo-entry budget trips it when exhausted.
func TestStoreRefusedAfterTrip(t *testing.T) {
	g := chain()
	m := NewRows[int](g, inner(g))
	m.Begin(context.Background(), guard.Limits{MaxMemoEntries: 1})
	m.Store(0, 0, 0, 0, 1)
	m.Store(0, 1, 1, 1, 1)
	if m.Err() == nil {
		t.Fatal("second store did not trip the memo-entry budget")
	}
	m.End()
	if m.Find(0, 0) == nil || m.Find(0, 1) != nil || m.live != 1 {
		t.Fatalf("want only the first step stored, live=%d", m.live)
	}
}

// chain builds the in-tree 0 → 1 → 3 with a side source 2 → 3, all
// weights 1.
// inner is the stored predicate of a DP that answers sources without
// the memo.
func inner(g *cdag.Graph) func(cdag.NodeID) bool {
	return func(v cdag.NodeID) bool { return !g.IsSource(v) }
}

func chain() *cdag.Graph {
	g := &cdag.Graph{}
	a := g.AddNode(1, "a")
	b := g.AddNode(1, "b", a)
	d := g.AddNode(1, "d")
	g.AddNode(1, "c", b, d)
	return g
}

// fill stores one step on every node.
func fill(m *Rows[int]) {
	for v := range m.rows {
		m.Store(cdag.NodeID(v), 0, 0, Inf, v)
	}
}

// TestPatchInvalidatesCone: a change empties the rows of the changed
// node and its descendants (here its root chain), reports the cleared
// and surviving step counts (and notes them in the observation counts),
// and visits the dirtied nodes in ascending ID order.
func TestPatchInvalidatesCone(t *testing.T) {
	g := chain()
	m := NewRows[int](g, inner(g))
	fill(&m)
	var seen []cdag.NodeID
	inv, reused, err := m.Patch(g, []cdag.WeightDelta{{Node: 1, Weight: 3}, {Node: 0, Weight: 2}}, "test", nil,
		func(v cdag.NodeID) { seen = append(seen, v) })
	if err != nil || inv != 3 || reused != 1 {
		t.Fatalf("Patch: inv=%d reused=%d err=%v, want 3 1 nil", inv, reused, err)
	}
	if c := m.TakeCounts(); c.CellsInvalidated != 3 || c.CellsReused != 1 {
		t.Fatalf("counts %+v, want 3 invalidated and 1 reused", c)
	}
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 3 {
		t.Fatalf("dirty order %v, want [0 1 3]", seen)
	}
	for v, want := range []bool{false, false, true, false} {
		if got := m.Find(cdag.NodeID(v), 5) != nil; got != want {
			t.Fatalf("node %d warm=%v after patch, want %v", v, got, want)
		}
	}
	if g.Weight(0) != 2 || g.Weight(1) != 3 {
		t.Fatalf("weights not applied: %d %d", g.Weight(0), g.Weight(1))
	}
	for _, v := range []cdag.NodeID{0, 1, 3} {
		if n := len(m.rows[v].steps); n != 0 {
			t.Fatalf("node %d kept %d steps after the patch", v, n)
		}
	}
	// An emptied row takes new steps in place.
	m.Store(3, 0, 0, 4, 9)
	if s := m.Find(3, 0); s == nil || s.V != 9 || len(m.rows[3].steps) != 1 {
		t.Fatalf("emptied row after store: %+v", m.rows[3].steps)
	}
}

// TestRowsResetEmptiesKeepingCapacity: Reset empties every row, keeps
// each row's capacity (a slab window, or the heap slice a row outgrew
// it into), zeroes the live count, notes no invalidation, and leaves
// the memo storing and finding as a new one does, without allocating.
func TestRowsResetEmptiesKeepingCapacity(t *testing.T) {
	g := chain()
	m := NewRows[int](g, inner(g))
	fill(&m)
	for b := cdag.Weight(1); b <= 4; b++ {
		m.Store(1, b, b, b, int(b)) // node 1 outgrows its window
	}
	caps := make([]int, len(m.rows))
	for v := range m.rows {
		caps[v] = cap(m.rows[v].steps)
	}
	m.Reset()
	for v := range m.rows {
		if n, c := len(m.rows[v].steps), cap(m.rows[v].steps); n != 0 || c != caps[v] {
			t.Fatalf("node %d: %d steps, capacity %d after Reset; want 0 and %d", v, n, c, caps[v])
		}
	}
	if m.live != 0 {
		t.Fatalf("live = %d after Reset", m.live)
	}
	if c := m.TakeCounts(); c.CellsInvalidated != 0 || c.CellsReused != 0 {
		t.Fatalf("Reset noted an invalidation: %+v", c)
	}
	if a := testing.AllocsPerRun(10, func() {
		m.Reset()
		m.Store(3, 0, 0, Inf, 30)
		for b := cdag.Weight(1); b <= 4; b++ {
			m.Store(1, b, b, b, int(b))
		}
	}); a != 0 {
		t.Fatalf("refilling a reset memo allocates %.1f allocs/op, want 0", a)
	}
	if s := m.Find(1, 3); s == nil || s.V != 3 || m.Find(0, 0) != nil || m.live != 5 {
		t.Fatalf("after refill: step %+v, live %d", s, m.live)
	}
}

// TestPatchRevertsOnError: a failing delta list or validation leaves
// every weight, row and live count as it was, and notes no
// invalidation.
func TestPatchRevertsOnError(t *testing.T) {
	g := chain()
	m := NewRows[int](g, inner(g))
	fill(&m)
	reject := func() error { return errLemma }
	for _, tc := range []struct {
		ds       []cdag.WeightDelta
		validate func() error
		want     string
	}{
		{[]cdag.WeightDelta{{Node: 0, Weight: 5}, {Node: 1, Weight: 0}}, nil, "test: patch: "},
		{[]cdag.WeightDelta{{Node: 0, Weight: 5}, {Node: 0, Weight: 6}, {Node: 9, Weight: 1}}, nil, "test: patch: "},
		{[]cdag.WeightDelta{{Node: 2, Weight: 4}}, reject, errLemma.Error()},
	} {
		_, _, err := m.Patch(g, tc.ds, "test", tc.validate, nil)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Fatalf("Patch(%v) = %v, want error starting %q", tc.ds, err, tc.want)
		}
		for v := 0; v < g.Len(); v++ {
			if g.Weight(cdag.NodeID(v)) != 1 || m.Find(cdag.NodeID(v), 1) == nil {
				t.Fatalf("after failed %v: node %d weight %d, row %+v", tc.ds, v, g.Weight(cdag.NodeID(v)), m.rows[v].steps)
			}
		}
		if m.live != 4 {
			t.Fatalf("after failed %v: live %d, want 4", tc.ds, m.live)
		}
		if c := m.TakeCounts(); c != (guard.Counts{}) {
			t.Fatalf("after failed %v: counts %+v, want none", tc.ds, c)
		}
	}
}

var errLemma = errors.New("weight assumption violated")

// TestPatchEpochWraparound: when the patch epoch wraps, the marks are
// reset, so a node marked long ago with the epoch the counter restarts
// at is still walked (without the reset its stale mark would look
// current and its rows would survive the patch).
func TestPatchEpochWraparound(t *testing.T) {
	g := chain()
	m := NewRows[int](g, inner(g))
	if _, _, err := m.Patch(g, []cdag.WeightDelta{{Node: 0, Weight: 2}}, "test", nil, nil); err != nil {
		t.Fatal(err)
	}
	if m.epoch != 1 || m.marks[0] != 1 {
		t.Fatalf("epoch %d mark %d, want 1 1", m.epoch, m.marks[0])
	}
	m.epoch = math.MaxUint32 - 1
	if _, _, err := m.Patch(g, []cdag.WeightDelta{{Node: 2, Weight: 2}}, "test", nil, nil); err != nil {
		t.Fatal(err)
	}
	fill(&m)
	inv, reused, err := m.Patch(g, []cdag.WeightDelta{{Node: 0, Weight: 3}}, "test", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", m.epoch)
	}
	if inv != 3 || reused != 1 {
		t.Fatalf("patch across the wrap: inv=%d reused=%d, want 3 1", inv, reused)
	}
	for _, v := range []cdag.NodeID{0, 1, 3} {
		if s := m.Find(v, 1); s != nil {
			t.Fatalf("node %d kept a stale step %+v across the epoch wrap", v, *s)
		}
	}
}

// TestWarmFindZeroAlloc: a warm Find allocates nothing.
func TestWarmFindZeroAlloc(t *testing.T) {
	g := chain()
	m := NewRows[int](g, inner(g))
	fill(&m)
	if n := testing.AllocsPerRun(100, func() {
		if m.Find(2, 7) == nil {
			t.Fatal("miss")
		}
		m.Hit()
	}); n != 0 {
		t.Fatalf("warm Find allocates %v times, want 0", n)
	}
}
