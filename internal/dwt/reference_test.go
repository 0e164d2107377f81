package dwt

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/stepmemo"
	"wrbpg/internal/wcfg"
)

// refScheduler is the Lemma 3.3 DP in its plain form, the differential
// oracle for Scheduler: every cell, leaves and budgets below the local
// co-residency cutoff included, is probed in the memo and stored as a
// step. Scheduler must agree with it on every cost and emit
// byte-identical schedules.
type refScheduler struct {
	dg     *Graph
	memo   stepmemo.Rows[entry]
	roots  []cdag.NodeID
	pruned []cdag.NodeID
	exist  cdag.Weight
}

func newRefScheduler(t *testing.T, dg *Graph) *refScheduler {
	t.Helper()
	s := mustScheduler(t, dg)
	return &refScheduler{dg: dg, memo: stepmemo.NewRows[entry](dg.G, func(cdag.NodeID) bool { return true }), roots: s.roots, pruned: s.pruned, exist: s.exist}
}

func (r *refScheduler) p(v cdag.NodeID, b cdag.Weight) (entry, cdag.Weight, cdag.Weight) {
	if st := r.memo.Find(v, b); st != nil {
		return st.V, st.Lo, st.Hi
	}
	g := r.dg.G
	if g.IsSource(v) {
		w := g.Weight(v)
		if w > b {
			return r.memo.Store(v, b, -Inf, w-1, entry{cost: Inf, choice: stratLeaf})
		}
		return r.memo.Store(v, b, w, Inf, entry{cost: w, choice: stratLeaf})
	}
	ps := g.Parents(v)
	p1, p2 := ps[0], ps[1]
	w1, w2 := g.Weight(p1), g.Weight(p2)
	lo, hi := g.Weight(v)+w1+w2, Inf
	if lo > b {
		return r.memo.Store(v, b, -Inf, lo-1, entry{cost: Inf, choice: stratKeepP1})
	}
	sub := func(p cdag.NodeID, shift cdag.Weight) cdag.Weight {
		e, slo, shi := r.p(p, b-shift)
		lo, hi = max(lo, slo+shift), min(hi, shi+shift)
		return e.cost
	}
	add := func(a, b cdag.Weight) cdag.Weight {
		if a >= Inf || b >= Inf {
			return Inf
		}
		return a + b
	}
	a1, a2 := sub(p1, 0), sub(p2, 0)
	best := entry{cost: Inf, choice: stratKeepP1}
	for _, c := range [...]entry{
		{add(a1, sub(p2, w1)), stratKeepP1},
		{add(a2, sub(p1, w2)), stratKeepP2},
		{add(add(a1, a2), 2*w1), stratSpillP1},
		{add(add(a2, a1), 2*w2), stratSpillP2},
	} {
		if c.cost < best.cost {
			best = c
		}
	}
	return r.memo.Store(v, b, lo, hi, best)
}

func (r *refScheduler) minCost(b cdag.Weight) cdag.Weight {
	if b < r.exist {
		return Inf
	}
	g := r.dg.G
	var total cdag.Weight
	for _, root := range r.roots {
		e, _, _ := r.p(root, b)
		if e.cost >= Inf {
			return Inf
		}
		total += e.cost + g.Weight(root)
	}
	for _, v := range r.pruned {
		total += g.Weight(v)
	}
	return total
}

func (r *refScheduler) schedule(b cdag.Weight) (core.Schedule, error) {
	if r.minCost(b) >= Inf {
		return nil, fmt.Errorf("ref: no valid schedule under budget %d", b)
	}
	var sched core.Schedule
	for _, root := range r.roots {
		if err := r.gen(root, b, &sched); err != nil {
			return nil, err
		}
		sched = sched.Append(
			core.Move{Kind: core.M2, Node: root},
			core.Move{Kind: core.M4, Node: root},
		)
	}
	return sched, nil
}

func (r *refScheduler) gen(v cdag.NodeID, b cdag.Weight, sched *core.Schedule) error {
	g := r.dg.G
	e, _, _ := r.p(v, b)
	if e.cost >= Inf {
		return fmt.Errorf("ref: infeasible subproblem node %d budget %d", v, b)
	}
	if e.choice == stratLeaf {
		*sched = sched.Append(core.Move{Kind: core.M1, Node: v})
		return nil
	}
	ps := g.Parents(v)
	first, second := ps[0], ps[1]
	if e.choice == stratKeepP2 || e.choice == stratSpillP2 {
		first, second = second, first
	}
	if err := r.gen(first, b, sched); err != nil {
		return err
	}
	if e.choice == stratSpillP1 || e.choice == stratSpillP2 {
		*sched = sched.Append(
			core.Move{Kind: core.M2, Node: first},
			core.Move{Kind: core.M4, Node: first},
		)
		if err := r.gen(second, b, sched); err != nil {
			return err
		}
		*sched = sched.Append(core.Move{Kind: core.M1, Node: first})
	} else if err := r.gen(second, b-g.Weight(first), sched); err != nil {
		return err
	}
	if u := r.dg.Sibling(v); u != cdag.None {
		*sched = sched.Append(
			core.Move{Kind: core.M3, Node: u},
			core.Move{Kind: core.M2, Node: u},
			core.Move{Kind: core.M4, Node: u},
		)
	}
	*sched = sched.Append(
		core.Move{Kind: core.M3, Node: v},
		core.Move{Kind: core.M4, Node: ps[0]},
		core.Move{Kind: core.M4, Node: ps[1]},
	)
	return nil
}

// matchReference checks s against ref at budget b: equal MinCost, and
// either both schedules fail or they are move-for-move identical, s's
// sized exactly.
func matchReference(t *testing.T, s *Scheduler, ref *refScheduler, b cdag.Weight) {
	t.Helper()
	if got, want := s.MinCost(b), ref.minCost(b); got != want {
		t.Fatalf("budget %d: MinCost %d, reference %d", b, got, want)
	}
	got, gerr := s.Schedule(b)
	want, werr := ref.schedule(b)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("budget %d: Schedule err %v, reference err %v", b, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if !slices.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("budget %d: schedules differ at move %d of %d/%d", b, i, len(got), len(want))
	}
	if cap(got) != len(got) {
		t.Fatalf("budget %d: schedule capacity %d, length %d: moves miscounted", b, cap(got), len(got))
	}
}

// randomLemmaWeights sets every node of g to a random weight in
// [1, 8], drawing each coefficient no heavier than its paired
// average, so Lemma 3.2's assumption holds.
func randomLemmaWeights(t *testing.T, rng *rand.Rand, g *Graph) {
	t.Helper()
	for i, l := range g.Layers {
		for j, v := range l {
			w := 1 + cdag.Weight(rng.Intn(8))
			if i > 0 && j%2 == 1 {
				w = 1 + cdag.Weight(rng.Int63n(int64(g.G.Weight(l[j-1]))))
			}
			if err := g.G.TrySetWeight(v, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := g.CheckWeightAssumption(); err != nil {
		t.Fatal(err)
	}
}

// referenceGraph is one named graph of the differential tests.
type referenceGraph struct {
	name string
	g    *Graph
}

// referenceGraphs returns small DWT(n, d) graphs under the Equal and
// Double Accumulator weightings and under random Lemma 3.2 weights.
func referenceGraphs(t *testing.T, rng *rand.Rand) []referenceGraph {
	t.Helper()
	var out []referenceGraph
	for _, nd := range [][2]int{{2, 1}, {4, 1}, {4, 2}, {8, 2}, {8, 3}, {12, 2}, {16, 4}} {
		for _, cfg := range []wcfg.Config{wcfg.Equal(4), wcfg.DoubleAccumulator(4)} {
			out = append(out, referenceGraph{fmt.Sprintf("%s_%d_%d", cfg.Name, nd[0], nd[1]), buildOrFatal(t, nd[0], nd[1], ConfigWeights(cfg))})
		}
		g := buildOrFatal(t, nd[0], nd[1], ConfigWeights(wcfg.Equal(4)))
		randomLemmaWeights(t, rng, g)
		out = append(out, referenceGraph{fmt.Sprintf("random_%d_%d", nd[0], nd[1]), g})
	}
	return out
}

// referenceBudgets returns every budget from one below g's existence
// bound to its total weight, shuffled, so a warm scheduler meets
// budgets on both sides of the steps it has stored.
func referenceBudgets(rng *rand.Rand, g *Graph) []cdag.Weight {
	var bs []cdag.Weight
	for b := core.MinExistenceBudget(g.G) - 1; b <= g.G.TotalWeight(); b++ {
		bs = append(bs, b)
	}
	rng.Shuffle(len(bs), func(i, j int) { bs[i], bs[j] = bs[j], bs[i] })
	return bs
}

// TestPMatchesReference: one warm Scheduler per graph answers every
// budget with the reference's cost and schedule, and so does a cold
// one.
func TestPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, rg := range referenceGraphs(t, rng) {
		t.Run(rg.name, func(t *testing.T) {
			g := rg.g
			s, ref := mustScheduler(t, g), newRefScheduler(t, g)
			for i, b := range referenceBudgets(rng, g) {
				matchReference(t, s, ref, b)
				if i%8 == 0 {
					matchReference(t, mustScheduler(t, g), ref, b)
				}
			}
		})
	}
}

func mustScheduler(t *testing.T, g *Graph) *Scheduler {
	t.Helper()
	s, err := NewScheduler(g)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPMatchesReferenceAfterSetWeights: a warm Scheduler patched
// through random weight deltas keeps answering like a reference built
// cold at the patched weights. Deltas that would break Lemma 3.2 are
// refused by SetWeights and leave both sides unchanged.
func TestPMatchesReferenceAfterSetWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, rg := range referenceGraphs(t, rng) {
		t.Run(rg.name, func(t *testing.T) {
			g := rg.g
			s := mustScheduler(t, g)
			bs := referenceBudgets(rng, g)
			for _, b := range bs[:min(8, len(bs))] {
				s.MinCost(b) // warm the memo the patches will cut into
			}
			for range 4 {
				ds := make([]cdag.WeightDelta, 1+rng.Intn(3))
				for i := range ds {
					ds[i] = cdag.WeightDelta{Node: cdag.NodeID(rng.Intn(g.G.Len())), Weight: 1 + cdag.Weight(rng.Intn(8))}
				}
				s.SetWeights(ds) //nolint:errcheck // a refused delta is a no-op
				ref := newRefScheduler(t, g)
				for _, b := range referenceBudgets(rng, g) {
					matchReference(t, s, ref, b)
				}
			}
		})
	}
}
