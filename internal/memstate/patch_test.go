package memstate

import (
	"math/rand"
	"testing"

	"wrbpg/internal/bitset"
	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/ktree"
)

// TestSetWeightsMatchesColdScheduler is the incremental-determinism
// property for the state-threaded DP: a Scheduler patched through a
// shuffled random delta sequence must answer Pm(root, b, I, R)
// bit-identically to a cold scheduler at the same weights, across
// random initial/reuse states — the generation stamps must never
// serve a stale interval.
func TestSetWeightsMatchesColdScheduler(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	tr, err := ktree.FullTree(2, 4, func(d, i int) cdag.Weight { return 1 + cdag.Weight((d+i)%2) })
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(tr.G)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.G.Len()
	all := tr.G.TopoOrder()
	for round := 0; round < 25; round++ {
		ds := make([]cdag.WeightDelta, 1+rng.Intn(3))
		for i := range ds {
			ds[i] = cdag.WeightDelta{
				Node:   cdag.NodeID(rng.Intn(n)),
				Weight: 1 + cdag.Weight(rng.Intn(3)),
			}
		}
		if _, _, err := s.SetWeights(ds); err != nil {
			t.Fatalf("round %d: SetWeights(%v): %v", round, ds, err)
		}
		// Random states restricted to the root's subtree (the whole
		// tree) — a couple of reuse nodes, sometimes an initial one.
		ini, reuse := bitset.Set{}, bitset.Set{}
		if rng.Intn(2) == 0 {
			ini = ini.With(all[rng.Intn(len(all))])
		}
		for i := 0; i < rng.Intn(3); i++ {
			reuse = reuse.With(all[rng.Intn(len(all))])
		}
		cold, err := NewScheduler(cloneTree(t, tr, 2, 4))
		if err != nil {
			t.Fatal(err)
		}
		min := core.MinExistenceBudget(tr.G)
		for _, b := range []cdag.Weight{min - 1, min + 1, min + 4, min + 9} {
			warm := s.Cost(tr.Root, b, ini, reuse)
			if c := cold.Cost(tr.Root, b, ini, reuse); warm != c {
				t.Fatalf("round %d budget %d: warm %d != cold %d after %v", round, b, warm, c, ds)
			}
		}
	}
}

// cloneTree rebuilds tr's graph at its current weights (FullTree
// numbering is deterministic, so node IDs coincide).
func cloneTree(t *testing.T, tr *ktree.Tree, k, height int) *cdag.Graph {
	t.Helper()
	tr2, err := ktree.FullTree(k, height, func(d, i int) cdag.Weight { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < tr.G.Len(); v++ {
		if err := tr2.G.TrySetWeight(cdag.NodeID(v), tr.G.Weight(cdag.NodeID(v))); err != nil {
			t.Fatal(err)
		}
	}
	return tr2.G
}

// TestSetWeightsRevertsOnError: a failing delta list leaves the graph
// and every generation stamp untouched, so prior answers still serve.
func TestSetWeightsRevertsOnError(t *testing.T) {
	tr, err := ktree.FullTree(2, 3, func(d, i int) cdag.Weight { return 2 })
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(tr.G)
	if err != nil {
		t.Fatal(err)
	}
	b := core.MinExistenceBudget(tr.G) + 3
	want := s.PlainCost(tr.Root, b)
	gens := make([]uint32, tr.G.Len())
	for v := range gens {
		gens[v] = s.memo.Gen(cdag.NodeID(v))
	}
	for _, bad := range [][]cdag.WeightDelta{
		{{Node: 0, Weight: 0}},
		{{Node: -1, Weight: 1}},
		{{Node: 0, Weight: 3}, {Node: cdag.NodeID(tr.G.Len()), Weight: 1}},
	} {
		if _, _, err := s.SetWeights(bad); err == nil {
			t.Fatalf("SetWeights(%v): want error", bad)
		}
		for v, g := range gens {
			if s.memo.Gen(cdag.NodeID(v)) != g {
				t.Fatalf("after failed %v: node %d generation bumped", bad, v)
			}
		}
		if got := s.PlainCost(tr.Root, b); got != want {
			t.Fatalf("after failed %v: PlainCost %d, want %d", bad, got, want)
		}
	}
}
