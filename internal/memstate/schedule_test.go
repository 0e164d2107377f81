package memstate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wrbpg/internal/bitset"
	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/ktree"
)

// replay builds the starting state and runs the fragment, returning
// the final state and stats.
func replay(t *testing.T, s *Scheduler, b cdag.Weight, ini, reuse bitset.Set, frag core.Schedule) (*core.State, core.Stats) {
	t.Helper()
	st, err := core.NewStateWithLabels(s.g, b, s.StartLabels(ini, reuse))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := core.SimulateFrom(st, frag)
	if err != nil {
		t.Fatalf("fragment invalid: %v", err)
	}
	return st, stats
}

// TestFragmentContract: across small trees, budgets and random
// initial/reuse sets, the fragment (a) obeys all rules, (b) ends with
// the target and every reuse node red, (c) costs at most Pm.
func TestFragmentContract(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		wf := func(depth, index int) cdag.Weight { return 1 + cdag.Weight(rng.Intn(2)) }
		tr, err := ktree.FullTree(2, 1+rng.Intn(3), wf)
		if err != nil {
			return false
		}
		s, err := NewScheduler(tr.G)
		if err != nil {
			return false
		}
		root := tr.Root
		// Random initial state: maybe the root, maybe a mid node.
		ini := bitset.Set{}
		if rng.Intn(3) == 0 {
			ini = ini.With(root)
		}
		all := tr.G.TopoOrder()
		if rng.Intn(2) == 0 {
			ini = ini.With(all[rng.Intn(len(all))])
		}
		// Random reuse: a couple of nodes.
		reuse := bitset.Set{}
		for i := 0; i < rng.Intn(3); i++ {
			reuse = reuse.With(all[rng.Intn(len(all))])
		}
		reuse = s.Restrict(reuse, root)
		ini = s.Restrict(ini, root)

		b := core.MinExistenceBudget(tr.G) + ini.Weight(tr.G) + reuse.Weight(tr.G) + cdag.Weight(rng.Intn(6))
		cost := s.Cost(root, b, ini, reuse)
		if cost >= Inf {
			return true // infeasible combination; nothing to generate
		}
		frag, err := s.Schedule(root, b, ini, reuse)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		st, err := core.NewStateWithLabels(tr.G, b, s.StartLabels(ini, reuse))
		if err != nil {
			return false
		}
		stats, err := core.SimulateFrom(st, frag)
		if err != nil {
			t.Logf("seed %d: fragment invalid: %v", seed, err)
			return false
		}
		if !st.Label(root).HasRed() {
			t.Logf("seed %d: root not red at end", seed)
			return false
		}
		for _, r := range reuse.Sorted() {
			if !st.Label(r).HasRed() {
				t.Logf("seed %d: reuse node %d not red at end", seed, r)
				return false
			}
		}
		if stats.Cost > cost {
			t.Logf("seed %d: fragment cost %d exceeds Pm %d", seed, stats.Cost, cost)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestFragmentPlainMatchesKtreeSchedule: with empty states the
// fragment cost equals Pm exactly on instances where no source spill
// is chosen (generous budgets force keep strategies).
func TestFragmentPlainGenerousBudget(t *testing.T) {
	tr, err := ktree.FullTree(2, 3, func(d, i int) cdag.Weight { return 2 })
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(tr.G)
	if err != nil {
		t.Fatal(err)
	}
	b := tr.G.TotalWeight()
	frag, err := s.Schedule(tr.Root, b, bitset.Set{}, bitset.Set{})
	if err != nil {
		t.Fatal(err)
	}
	_, stats := replay(t, s, b, bitset.Set{}, bitset.Set{}, frag)
	if want := s.PlainCost(tr.Root, b); stats.Cost != want {
		t.Errorf("fragment cost %d != Pm %d", stats.Cost, want)
	}
	// With the whole tree resident, only leaf loads are paid.
	if stats.Cost != tr.G.SourceWeight() {
		t.Errorf("cost %d, want leaf weight %d", stats.Cost, tr.G.SourceWeight())
	}
}

// TestFragmentRootInInitial: nothing to compute, only reuse loads.
func TestFragmentRootInInitial(t *testing.T) {
	tr, err := ktree.FullTree(2, 2, func(d, i int) cdag.Weight { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(tr.G)
	if err != nil {
		t.Fatal(err)
	}
	leaf := tr.G.Sources()[1]
	ini := bitset.New(tr.Root)
	reuse := bitset.New(leaf)
	frag, err := s.Schedule(tr.Root, 10, ini, reuse)
	if err != nil {
		t.Fatal(err)
	}
	if len(frag) != 1 || frag[0].Kind != core.M1 || frag[0].Node != leaf {
		t.Fatalf("fragment = %v, want single M1(leaf)", frag)
	}
	st, stats := replay(t, s, 10, ini, reuse, frag)
	if stats.Cost != 1 || !st.Label(leaf).HasRed() || !st.Label(tr.Root).HasRed() {
		t.Errorf("unexpected end state")
	}
}

// TestFragmentResidentParents: with both parents in I, computing the
// root moves nothing.
func TestFragmentResidentParents(t *testing.T) {
	tr, err := ktree.FullTree(2, 1, func(d, i int) cdag.Weight { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(tr.G)
	if err != nil {
		t.Fatal(err)
	}
	ps := tr.G.Parents(tr.Root)
	ini := bitset.New(ps[0], ps[1])
	frag, err := s.Schedule(tr.Root, 10, ini, bitset.Set{})
	if err != nil {
		t.Fatal(err)
	}
	st, stats := replay(t, s, 10, ini, bitset.Set{}, frag)
	if stats.Cost != 0 {
		t.Errorf("cost = %d, want 0", stats.Cost)
	}
	if !st.Label(tr.Root).HasRed() {
		t.Error("root not computed")
	}
}

// TestFragmentReuseStaysThroughTightBudget: a reused leaf survives a
// budget that forces spilling elsewhere.
func TestFragmentReuseStaysThroughTightBudget(t *testing.T) {
	tr, err := ktree.FullTree(2, 2, func(d, i int) cdag.Weight { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(tr.G)
	if err != nil {
		t.Fatal(err)
	}
	leaf := tr.G.Sources()[0]
	reuse := bitset.New(leaf)
	b := core.MinExistenceBudget(tr.G) + 1 // 4: tight but feasible with reuse
	cost := s.Cost(tr.Root, b, bitset.Set{}, reuse)
	if cost >= Inf {
		t.Skip("combination infeasible at this budget")
	}
	frag, err := s.Schedule(tr.Root, b, bitset.Set{}, reuse)
	if err != nil {
		t.Fatal(err)
	}
	st, stats := replay(t, s, b, bitset.Set{}, reuse, frag)
	if !st.Label(leaf).HasRed() {
		t.Error("reuse leaf evicted")
	}
	if stats.PeakRedWeight > b {
		t.Errorf("peak %d > budget %d", stats.PeakRedWeight, b)
	}
}

// TestScheduleInfeasible: generation refuses infeasible inputs.
func TestScheduleInfeasible(t *testing.T) {
	tr, err := ktree.FullTree(2, 1, func(d, i int) cdag.Weight { return 5 })
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(tr.G)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(tr.Root, 10, bitset.Set{}, bitset.Set{}); err == nil {
		t.Error("budget 10 < 15 should fail")
	}
}
