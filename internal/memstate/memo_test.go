package memstate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wrbpg/internal/bitset"
	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/exact"
	"wrbpg/internal/ktree"
)

// TestCostMemoHitZeroAlloc: once a (v,b,I,R) tuple is memoized,
// re-querying it performs no allocations — the packed pmKey and the
// inline-word handles keep the hot path off the heap.
func TestCostMemoHitZeroAlloc(t *testing.T) {
	tr, err := ktree.FullTree(2, 4, func(d, i int) cdag.Weight { return 1 + cdag.Weight((d+i)%3) })
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(tr.G)
	if err != nil {
		t.Fatal(err)
	}
	leaf := tr.G.Sources()[0]
	reuse := bitset.New(leaf)
	b := core.MinExistenceBudget(tr.G) + 4
	want := s.Cost(tr.Root, b, bitset.Set{}, reuse) // warm the memo
	if n := testing.AllocsPerRun(100, func() {
		if got := s.Cost(tr.Root, b, bitset.Set{}, reuse); got != want {
			t.Fatalf("cost changed: %d != %d", got, want)
		}
	}); n != 0 {
		t.Errorf("memo-hit Cost allocates %v times per run, want 0", n)
	}
}

// TestPmMatchesExactOptimum: on randomly weighted small binary trees
// the bitset-keyed DP is cross-checked against the exact Dijkstra
// optimum. The DP cost is achievable, so it can never undercut the
// exact solver, and the two agree exactly once the budget holds the
// whole tree. Under tight budgets the exact solver may be strictly
// cheaper: Pm evaluates subtrees contiguously, while the full schedule
// space also contains interleavings that pause one subtree to hold a
// grandchild red (see the ktree optimality test for a 10-node
// counterexample). The exact cost includes the final store of the
// root, which PlainCost excludes, so the comparison adds w_root.
func TestPmMatchesExactOptimum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := randomBinary(rng, 1+rng.Intn(3), 3)
		if err != nil || tr.G.Len() > exact.MaxNodes {
			return true // skip shapes the exact solver cannot take
		}
		s, err := NewScheduler(tr.G)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		b := core.MinExistenceBudget(tr.G) + cdag.Weight(rng.Intn(5))
		res, err := exact.Solve(tr.G, b)
		if err != nil {
			return true
		}
		got := s.PlainCost(tr.Root, b) + tr.G.Weight(tr.Root)
		if got < res.Cost {
			t.Logf("seed %d (n=%d, b=%d): DP %d below exact %d", seed, tr.G.Len(), b, got, res.Cost)
			return false
		}
		if b >= tr.G.TotalWeight() && got != res.Cost {
			t.Logf("seed %d (n=%d, b=%d ≥ total): DP %d != exact %d", seed, tr.G.Len(), b, got, res.Cost)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomBinary builds a random binary in-tree: each of the internal
// nodes takes two parents, each either a fresh leaf or the root of an
// earlier subtree, and the remaining subtree roots are then joined
// pairwise under one root. Weights are uniform in [1, maxW].
func randomBinary(rng *rand.Rand, internal int, maxW int64) (*ktree.Tree, error) {
	g := &cdag.Graph{}
	w := func() cdag.Weight { return 1 + cdag.Weight(rng.Int63n(maxW)) }
	var frontier []cdag.NodeID
	pick := func() cdag.NodeID {
		if len(frontier) > 0 && rng.Intn(2) == 0 {
			j := rng.Intn(len(frontier))
			v := frontier[j]
			frontier = append(frontier[:j], frontier[j+1:]...)
			return v
		}
		return g.AddNode(w(), "")
	}
	for i := 0; i < internal; i++ {
		a := pick()
		frontier = append(frontier, g.AddNode(w(), "", a, pick()))
	}
	for len(frontier) > 1 {
		a, b := frontier[0], frontier[1]
		frontier = append(frontier[2:], g.AddNode(w(), "", a, b))
	}
	return ktree.New(g)
}

func BenchmarkSchedulerCostWarm(b *testing.B) {
	tr, err := ktree.FullTree(2, 6, func(d, i int) cdag.Weight { return 1 + cdag.Weight((d+i)%3) })
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewScheduler(tr.G)
	if err != nil {
		b.Fatal(err)
	}
	reuse := bitset.New(tr.G.Sources()[0])
	budget := core.MinExistenceBudget(tr.G) + 4
	s.Cost(tr.Root, budget, bitset.Set{}, reuse)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cost(tr.Root, budget, bitset.Set{}, reuse)
	}
}
