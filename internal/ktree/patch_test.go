package ktree

import (
	"math/rand"
	"slices"
	"testing"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
)

// coldTreeMinCost rebuilds the full tree at tr's current weights and
// solves cold — the reference a patched scheduler must match
// bit-identically. FullTree numbers nodes deterministically, so the
// rebuilt tree shares tr's node IDs.
func coldTreeMinCost(t *testing.T, k, height int, tr *Tree, b cdag.Weight) cdag.Weight {
	t.Helper()
	tr2, err := FullTree(k, height, func(d, i int) cdag.Weight { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < tr.G.Len(); v++ {
		if err := tr2.G.TrySetWeight(cdag.NodeID(v), tr.G.Weight(cdag.NodeID(v))); err != nil {
			t.Fatal(err)
		}
	}
	return NewScheduler(tr2).MinCost(b)
}

// TestSetWeightsMatchesColdScheduler is the incremental-determinism
// property: a scheduler patched through a shuffled random delta
// sequence — any node, duplicates allowed — must answer every budget
// bit-identically to a cold scheduler at the same weights.
func TestSetWeightsMatchesColdScheduler(t *testing.T) {
	const k, height = 3, 3
	rng := rand.New(rand.NewSource(23))
	tr, err := FullTree(k, height, func(d, i int) cdag.Weight { return 1 + cdag.Weight((d+i)%2) })
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(tr)
	n := tr.G.Len()
	for round := 0; round < 30; round++ {
		ds := make([]cdag.WeightDelta, 1+rng.Intn(3))
		for i := range ds {
			ds[i] = cdag.WeightDelta{
				Node:   cdag.NodeID(rng.Intn(n)),
				Weight: 1 + cdag.Weight(rng.Intn(4)),
			}
		}
		if _, _, err := s.SetWeights(ds); err != nil {
			t.Fatalf("round %d: SetWeights(%v): %v", round, ds, err)
		}
		min := core.MinExistenceBudget(tr.G)
		for _, b := range []cdag.Weight{min - 1, min, min + 2, min + 7} {
			warm := s.MinCost(b)
			if cold := coldTreeMinCost(t, k, height, tr, b); warm != cold {
				t.Fatalf("round %d budget %d: warm %d != cold %d after %v", round, b, warm, cold, ds)
			}
		}
	}
}

// TestSetWeightsRevertsOnError: a failing delta list leaves the tree,
// the memo and the existence table exactly as they were.
func TestSetWeightsRevertsOnError(t *testing.T) {
	tr, err := FullTree(3, 3, func(d, i int) cdag.Weight { return 1 + cdag.Weight((d+i)%2) })
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(tr)
	b := core.MinExistenceBudget(tr.G) + 5
	want := s.MinCost(b)
	saved := make([]cdag.Weight, tr.G.Len())
	for v := range saved {
		saved[v] = tr.G.Weight(cdag.NodeID(v))
	}
	for _, bad := range [][]cdag.WeightDelta{
		{{Node: 0, Weight: 0}},
		{{Node: -3, Weight: 1}},
		{{Node: cdag.NodeID(tr.G.Len() + 1), Weight: 1}},
		// Applied prefix must unwind when a later delta fails.
		{{Node: 0, Weight: 7}, {Node: 1, Weight: -2}},
	} {
		if _, _, err := s.SetWeights(bad); err == nil {
			t.Fatalf("SetWeights(%v): want error", bad)
		}
		for v := range saved {
			if w := tr.G.Weight(cdag.NodeID(v)); w != saved[v] {
				t.Fatalf("after failed %v: node %d weight %d, want %d", bad, v, w, saved[v])
			}
		}
		if got := s.MinCost(b); got != want {
			t.Fatalf("after failed %v: MinCost %d, want %d", bad, got, want)
		}
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

// checkReps fails unless every node's representative roots a subtree
// equal to the node's own.
func checkReps(t *testing.T, s *Scheduler) {
	t.Helper()
	for v := range s.t.G.Len() {
		if r := s.Rep(cdag.NodeID(v)); !sameSubtree(s.t.G, cdag.NodeID(v), r) {
			t.Fatalf("node %d shares the cells of node %d, whose subtree differs", v, r)
		}
	}
}

// coveredBudgets returns, per node, the budgets in bs at which the
// memo row v reads, its representative's, holds a step.
func coveredBudgets(s *Scheduler, bs []cdag.Weight) [][]cdag.Weight {
	out := make([][]cdag.Weight, s.t.G.Len())
	for v := range out {
		for _, b := range bs {
			if s.Covers(s.Rep(cdag.NodeID(v)), b) {
				out[v] = append(out[v], b)
			}
		}
	}
	return out
}

// TestSetWeightsInvalidatesOnlyRootChain: in an in-tree, a leaf weight
// change empties exactly the rows on the leaf-to-root chain. Every
// node off the chain still reads each step it read before, the
// invalidated and reused counts add up to the steps live before the
// patch, every node is left with a representative whose subtree is its
// own, and a node keeps its representative unless the chain holds it
// or that representative. On a uniform tree the class representatives
// are the leftmost chain: patching the first leaf hands each shared
// class's row to its next member, and patching the last leaf empties
// the root's row alone, so either way the shared cells stay warm.
func TestSetWeightsInvalidatesOnlyRootChain(t *testing.T) {
	for _, first := range []bool{true, false} {
		tr, err := FullTree(3, 3, func(d, i int) cdag.Weight { return 2 })
		if err != nil {
			t.Fatal(err)
		}
		g := tr.G
		s := NewScheduler(tr)
		b := core.MinExistenceBudget(g) + 4
		s.MinCost(b)
		var bs []cdag.Weight
		for x := core.MinExistenceBudget(g) - 1; x <= g.TotalWeight()+1; x++ {
			bs = append(bs, x)
		}
		before := coveredBudgets(s, bs)
		_, live, err := s.SetWeights(nil)
		if err != nil {
			t.Fatal(err)
		}
		reps := make([]cdag.NodeID, g.Len())
		for v := range reps {
			reps[v] = s.Rep(cdag.NodeID(v))
		}
		leaf := g.Sources()[0]
		if !first {
			leaf = g.Sources()[len(g.Sources())-1]
		}
		chain := map[cdag.NodeID]bool{}
		for v := leaf; ; v = g.Children(v)[0] {
			chain[v] = true
			if v == tr.Root {
				break
			}
		}
		inv, reused, err := s.SetWeights([]cdag.WeightDelta{{Node: leaf, Weight: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if inv <= 0 || inv+reused != live {
			t.Fatalf("leaf %d patch: inv=%d reused=%d, want inv > 0 and a sum of %d live steps", leaf, inv, reused, live)
		}
		if reused <= inv {
			t.Errorf("leaf %d patch invalidated %d but only %d survived; expected the shared cells to stay warm", leaf, inv, reused)
		}
		after := coveredBudgets(s, bs)
		for v := range after {
			id := cdag.NodeID(v)
			switch {
			case chain[id] && len(after[v]) > 0:
				t.Errorf("leaf %d patch: chain node %d still holds steps at budgets %v", leaf, v, after[v])
			case !chain[id] && !slices.Equal(after[v], before[v]):
				t.Errorf("leaf %d patch: off-chain node %d reads %v, read %v", leaf, v, after[v], before[v])
			case !chain[id] && !chain[reps[v]] && s.Rep(id) != reps[v]:
				t.Errorf("leaf %d patch: node %d moved from representative %d to %d", leaf, v, reps[v], s.Rep(id))
			}
		}
		checkReps(t, s)
		matchReference(t, s, newRefScheduler(tr), b)
	}
}
