package stepmemo_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/dwt"
	"wrbpg/internal/guard"
	"wrbpg/internal/ktree"
	"wrbpg/internal/stepmemo"
	"wrbpg/internal/wcfg"
)

// scheduler is the surface of a family scheduler built on DP.
type scheduler interface {
	MinCost(b cdag.Weight) cdag.Weight
	ScheduleCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (core.Schedule, error)
	Schedule(b cdag.Weight) (core.Schedule, error)
	SetWeights(ds []cdag.WeightDelta) (invalidated, reused int64, err error)
	Exist() cdag.Weight
	Rep(v cdag.NodeID) cdag.NodeID
}

// family is one graph of the engine tests with its scheduler.
type family struct {
	name string
	g    *cdag.Graph
	s    scheduler
	// fresh builds a new scheduler over g's current weights.
	fresh func() scheduler
}

// families returns DWT graphs and k-ary trees whose equal subtrees
// share class cells, and one random tree.
func families(t *testing.T) []family {
	t.Helper()
	var out []family
	for _, c := range []struct {
		n, d int
		cfg  wcfg.Config
	}{{16, 4, wcfg.Equal(4)}, {32, 3, wcfg.DoubleAccumulator(4)}} {
		g, err := dwt.Build(c.n, c.d, dwt.ConfigWeights(c.cfg))
		if err != nil {
			t.Fatal(err)
		}
		s, err := dwt.NewScheduler(g)
		if err != nil {
			t.Fatal(err)
		}
		fresh := func() scheduler {
			s, err := dwt.NewScheduler(g)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		out = append(out, family{"dwt/" + c.cfg.Name, g.G, s, fresh})
	}
	for _, kh := range [][2]int{{2, 4}, {3, 3}} {
		tr, err := ktree.FullTree(kh[0], kh[1], func(d, _ int) cdag.Weight { return 1 + cdag.Weight(d%3) })
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, family{"ktree/full", tr.G, ktree.NewScheduler(tr), func() scheduler { return ktree.NewScheduler(tr) }})
	}
	tr, err := ktree.Random(rand.New(rand.NewSource(5)), 12, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, family{"ktree/random", tr.G, ktree.NewScheduler(tr), func() scheduler { return ktree.NewScheduler(tr) }})
}

// checkBound fails unless s's existence bound is the graph's, recomputed
// with a full pass, and MinCost is Inf just below it and finite on it.
func checkBound(t *testing.T, f family, step string) {
	t.Helper()
	e := f.s.Exist()
	if want := core.MinExistenceBudget(f.g); e != want {
		t.Fatalf("%s: %s: Exist %d, recomputed %d", f.name, step, e, want)
	}
	if c := f.s.MinCost(e - 1); c < stepmemo.Inf {
		t.Fatalf("%s: %s: MinCost(Exist−1) = %d, want Inf", f.name, step, c)
	}
	if c := f.s.MinCost(e); c >= stepmemo.Inf {
		t.Fatalf("%s: %s: MinCost(Exist) = Inf", f.name, step)
	}
}

// sameSubtree reports whether the subtrees rooted at u and v have the
// same shape and weights, parents compared in order.
func sameSubtree(g *cdag.Graph, u, v cdag.NodeID) bool {
	pu, pv := g.Parents(u), g.Parents(v)
	if g.Weight(u) != g.Weight(v) || len(pu) != len(pv) {
		return false
	}
	for j := range pu {
		if !sameSubtree(g, pu[j], pv[j]) {
			return false
		}
	}
	return true
}

// TestPatchMatchesFresh: through random patches of several nodes at
// once, most on class representatives, so that one patch stales
// several shared representatives, and through their reverts, for both
// families: the existence bound kept along the patched chains is the
// graph's (checkBound), every node reads the row of a representative
// of its own that roots a subtree equal to its own, and every cost and
// schedule is a fresh engine's. A DWT patch that breaks Lemma 3.2 is
// refused and must leave the bound as it was.
func TestPatchMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, f := range families(t) {
		check := func(step string) {
			t.Helper()
			checkBound(t, f, step)
			for v := range f.g.Len() {
				r := f.s.Rep(cdag.NodeID(v))
				if f.s.Rep(r) != r || !sameSubtree(f.g, cdag.NodeID(v), r) {
					t.Fatalf("%s: %s: node %d reads the row of %d (its representative %d)", f.name, step, v, r, f.s.Rep(r))
				}
			}
			fresh := f.fresh()
			for b := f.s.Exist() - 1; b < f.s.Exist()+24; b += 2 {
				if got, want := f.s.MinCost(b), fresh.MinCost(b); got != want {
					t.Fatalf("%s: %s: budget %d: MinCost %d, fresh %d", f.name, step, b, got, want)
				}
				got, gerr := f.s.Schedule(b)
				want, werr := fresh.Schedule(b)
				if (gerr == nil) != (werr == nil) || !slices.Equal(got, want) {
					t.Fatalf("%s: %s: budget %d: schedule differs from a fresh engine's (%v, %v)", f.name, step, b, gerr, werr)
				}
			}
		}
		check("new")
		applied := 0
		for round := range 30 {
			for b := f.s.Exist(); b < f.s.Exist()+24; b += 1 + cdag.Weight(rng.Intn(5)) {
				f.s.MinCost(b)
			}
			ds := make([]cdag.WeightDelta, 1+rng.Intn(4))
			undo := make([]cdag.WeightDelta, len(ds))
			for i := range ds {
				v := cdag.NodeID(rng.Intn(f.g.Len()))
				if rng.Intn(4) != 0 {
					v = f.s.Rep(v)
				}
				w := f.g.Weight(v)
				ds[i] = cdag.WeightDelta{Node: v, Weight: max(1, w+cdag.Weight(rng.Intn(5)-2))}
				undo[len(ds)-1-i] = cdag.WeightDelta{Node: v, Weight: w}
			}
			if _, _, err := f.s.SetWeights(ds); err != nil {
				checkBound(t, f, "refused patch")
				continue
			}
			applied++
			check("patch")
			if round%2 == 0 {
				if _, _, err := f.s.SetWeights(undo); err != nil {
					t.Fatalf("%s: revert %v: %v", f.name, undo, err)
				}
				check("revert")
			}
		}
		if applied < 10 {
			t.Fatalf("%s: only %d of 30 patches applied", f.name, applied)
		}
	}
}

// TestScheduleSizedAfterClassSplit: after a patch that splits a class
// (one on a shared representative, or on its first member) and after
// its revert, every schedule is sized exactly (capacity equal to
// length, Schedule's contract) and simulates to MinCost, for both
// families.
func TestScheduleSizedAfterClassSplit(t *testing.T) {
	for _, f := range families(t) {
		var split []cdag.NodeID
		seen := map[cdag.NodeID]bool{}
		for v := range f.g.Len() {
			if r := f.s.Rep(cdag.NodeID(v)); r != cdag.NodeID(v) && !seen[r] {
				seen[r] = true
				split = append(split, r, cdag.NodeID(v))
			}
		}
		if len(split) == 0 {
			t.Fatalf("%s: no two nodes share a class", f.name)
		}
		check := func(step string) {
			t.Helper()
			for b := f.s.Exist(); b < f.s.Exist()+24; b += 3 {
				sched, err := f.s.Schedule(b)
				if err != nil {
					t.Fatalf("%s: %s: budget %d: %v", f.name, step, b, err)
				}
				if cap(sched) != len(sched) {
					t.Fatalf("%s: %s: budget %d: capacity %d, length %d", f.name, step, b, cap(sched), len(sched))
				}
				st, err := core.Simulate(f.g, b, sched)
				if err != nil || st.Cost != f.s.MinCost(b) {
					t.Fatalf("%s: %s: budget %d: simulated %+v (%v), MinCost %d", f.name, step, b, st, err, f.s.MinCost(b))
				}
			}
		}
		check("warm")
		for _, v := range split {
			w := f.g.Weight(v)
			for _, nw := range []cdag.Weight{w + 1, w} {
				if _, _, err := f.s.SetWeights([]cdag.WeightDelta{{Node: v, Weight: nw}}); err != nil {
					continue // Lemma 3.2 refused it
				}
				check("patch")
			}
		}
	}
}

// TestAbortThenReuse: a query that a memo-entry limit or a canceled
// context aborts fails typed, and the same engine then answers every
// budget with a fresh one's schedule, before and after a patch: an
// aborted query stores nothing it computed after the abort.
func TestAbortThenReuse(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	fresh := families(t)
	for i, f := range families(t) {
		b := f.s.Exist() + 6
		if _, err := f.s.ScheduleCtx(context.Background(), guard.Limits{MaxMemoEntries: 1}, b+3); !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatalf("%s: limited query: %v, want ErrBudgetExceeded", f.name, err)
		}
		if _, err := f.s.ScheduleCtx(canceled, guard.Limits{}, b+5); !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("%s: canceled query: %v, want ErrCanceled", f.name, err)
		}
		for round := range 2 {
			for b := f.s.Exist(); b < f.s.Exist()+12; b++ {
				got, gerr := f.s.ScheduleCtx(context.Background(), guard.Limits{}, b)
				want, werr := fresh[i].s.Schedule(b)
				if gerr != nil || werr != nil || !slices.Equal(got, want) {
					t.Fatalf("%s: round %d: budget %d: schedule differs from a fresh engine's (%v, %v)", f.name, round, b, gerr, werr)
				}
			}
			// The same patch on both, then a limited query, which
			// aborts unless the patch left it warm.
			d := []cdag.WeightDelta{{Node: f.s.Rep(cdag.NodeID(f.g.Len() - 2)), Weight: 1}}
			_, _, err := f.s.SetWeights(d)
			if _, _, ferr := fresh[i].s.SetWeights(d); (err == nil) != (ferr == nil) {
				t.Fatalf("%s: patch %v: %v, fresh %v", f.name, d, err, ferr)
			}
			f.s.ScheduleCtx(context.Background(), guard.Limits{MaxMemoEntries: 1}, f.s.Exist()+9) //nolint:errcheck // see above
		}
	}
}
