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

// entry is one reference cell: its cost and its strategy, stratLeaf
// at an input.
type entry struct {
	cost   cdag.Weight
	choice strategy
}

const stratLeaf strategy = -1

func newRefScheduler(t *testing.T, dg *Graph) *refScheduler {
	t.Helper()
	mustScheduler(t, dg) // the weights must meet Lemma 3.2
	var pruned []cdag.NodeID
	for v := range dg.PrunedNodes() {
		pruned = append(pruned, v)
	}
	return &refScheduler{dg: dg, memo: stepmemo.NewRows[entry](dg.G, func(cdag.NodeID) bool { return true }), roots: dg.Roots(), pruned: pruned, exist: core.MinExistenceBudget(dg.G)}
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

// sharedGraphs returns DWT graphs whose layers share class cells:
// the Equal and Double Accumulator weightings, and random Lemma 3.2
// weights fixed per layer (one average and one coefficient weight).
func sharedGraphs(t *testing.T, rng *rand.Rand) []referenceGraph {
	t.Helper()
	var out []referenceGraph
	for _, nd := range [][2]int{{8, 2}, {8, 3}, {16, 3}, {16, 4}, {24, 3}} {
		for _, cfg := range []wcfg.Config{wcfg.Equal(4), wcfg.DoubleAccumulator(4)} {
			out = append(out, referenceGraph{fmt.Sprintf("%s_%d_%d", cfg.Name, nd[0], nd[1]), buildOrFatal(t, nd[0], nd[1], ConfigWeights(cfg))})
		}
		avg := make([]cdag.Weight, nd[1]+1)
		coef := make([]cdag.Weight, nd[1]+1)
		for i := range avg {
			avg[i] = 1 + cdag.Weight(rng.Intn(8))
			coef[i] = 1 + cdag.Weight(rng.Int63n(int64(avg[i])))
		}
		out = append(out, referenceGraph{fmt.Sprintf("layers_%d_%d", nd[0], nd[1]), buildOrFatal(t, nd[0], nd[1], func(layer, j int) cdag.Weight {
			if layer > 1 && j%2 == 0 {
				return coef[layer-1]
			}
			return avg[layer-1]
		})})
	}
	return out
}

// sharedRoots returns the representatives that other nodes share,
// with the first node sharing each.
func sharedRoots(s *Scheduler) []cdag.NodeID {
	var out []cdag.NodeID
	seen := map[cdag.NodeID]bool{}
	for v := range s.Graph().G.Len() {
		if r := s.Rep(cdag.NodeID(v)); r != cdag.NodeID(v) && !seen[r] {
			seen[r] = true
			out = append(out, r, cdag.NodeID(v))
		}
	}
	return out
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

// checkReps fails unless every node's representative roots a subtree
// equal to the node's own: all that P reads.
func checkReps(t *testing.T, s *Scheduler) {
	t.Helper()
	g := s.Graph().G
	for v := range g.Len() {
		if r := s.Rep(cdag.NodeID(v)); !sameSubtree(g, cdag.NodeID(v), r) {
			t.Fatalf("node %d shares the cells of node %d, whose subtree differs", v, r)
		}
	}
}

// TestSetWeightsSharedCellsMatchReference holds the class-shared memo
// to the reference on DWT graphs whose layers share classes: cold
// schedulers, one warm scheduler over every budget, a pooled scheduler
// Reset to the graph, and a warm scheduler through patch → revert
// sequences on every shared representative and its first member, each
// answering every budget with the reference's cost and schedule.
// Patches that would break Lemma 3.2 are refused and change nothing.
func TestSetWeightsSharedCellsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	graphs := sharedGraphs(t, rng)
	for gi, rg := range graphs {
		t.Run(rg.name, func(t *testing.T) {
			g := rg.g
			ref := newRefScheduler(t, g)
			s := mustScheduler(t, g)
			if len(sharedRoots(s)) == 0 {
				t.Fatal("no two nodes share a class")
			}
			other := graphs[gi/3*3+(gi+1)%3] // same shape, other weights
			pooled := mustScheduler(t, other.g)
			pooled.MinCost(core.MinExistenceBudget(other.g.G))
			if err := pooled.Reset(g); err != nil {
				t.Fatal(err)
			}
			for i, b := range referenceBudgets(rng, g) {
				matchReference(t, s, ref, b)
				matchReference(t, pooled, ref, b)
				if i%4 == 0 {
					matchReference(t, mustScheduler(t, g), ref, b)
				}
			}
			checkReps(t, s)
			for _, v := range sharedRoots(s) {
				w := g.G.Weight(v)
				for _, nw := range []cdag.Weight{w%3 + 1, w} {
					s.SetWeights([]cdag.WeightDelta{{Node: v, Weight: nw}}) //nolint:errcheck // a refused delta is a no-op
					checkReps(t, s)
					ref := newRefScheduler(t, g)
					for _, b := range referenceBudgets(rng, g) {
						matchReference(t, s, ref, b)
					}
				}
			}
		})
	}
}

// decodeGraph builds a small DWT(n, d) with every choice read from
// data: d in [1, 3], n a multiple of 2^d up to 3·2^d, and weights in
// [1, 8] with each coefficient no heavier than its paired average.
func decodeGraph(data *byteStream) (*Graph, error) {
	d := 1 + data.next()%3
	n := (1 + data.next()%3) << d
	g, err := Build(n, d, func(int, int) cdag.Weight { return 1 })
	if err != nil {
		return nil, err
	}
	for i, l := range g.Layers {
		for j, v := range l {
			w := 1 + cdag.Weight(data.next()%8)
			if i > 0 && j%2 == 1 {
				w = 1 + cdag.Weight(data.next())%g.G.Weight(l[j-1])
			}
			g.G.SetWeight(v, w)
		}
	}
	return g, nil
}

// byteStream reads a fuzz input one byte at a time, then zeros.
type byteStream []byte

func (s *byteStream) next() int {
	if len(*s) == 0 {
		return 0
	}
	c := (*s)[0]
	*s = (*s)[1:]
	return int(c)
}

// FuzzPMatchesReference decodes a DWT graph under Lemma 3.2 weights, a
// budget and one weight patch from the input, and holds Scheduler to
// the reference cold, after a Reset from another weighting of the
// shape, after the patch (a refused one changes nothing) and after its
// revert.
func FuzzPMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4})
	f.Add([]byte{2, 1, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := byteStream(data)
		g, err := decodeGraph(&in)
		if err != nil {
			t.Fatal(err)
		}
		exist, total := core.MinExistenceBudget(g.G), g.G.TotalWeight()
		b := exist - 1 + cdag.Weight(in.next())%(total-exist+2)
		s := mustScheduler(t, g)
		matchReference(t, s, newRefScheduler(t, g), b)
		pooled := mustScheduler(t, buildOrFatal(t, g.N, g.D, ConfigWeights(wcfg.DoubleAccumulator(4))))
		pooled.MinCost(b)
		if err := pooled.Reset(g); err != nil {
			t.Fatal(err)
		}
		matchReference(t, pooled, newRefScheduler(t, g), b)
		d := cdag.WeightDelta{Node: cdag.NodeID(in.next() % g.G.Len()), Weight: 1 + cdag.Weight(in.next()%8)}
		undo := cdag.WeightDelta{Node: d.Node, Weight: g.G.Weight(d.Node)}
		for _, d := range []cdag.WeightDelta{d, undo} {
			s.SetWeights([]cdag.WeightDelta{d}) //nolint:errcheck // a refused delta is a no-op
			matchReference(t, s, newRefScheduler(t, g), b)
		}
	})
}
