package ktree

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/exact"
)

func unitW(depth, index int) cdag.Weight { return 1 }

func TestFullTreeShape(t *testing.T) {
	cases := []struct {
		k, h   int
		nodes  int
		leaves int
	}{
		{2, 1, 3, 2},
		{2, 3, 15, 8},
		{3, 2, 13, 9},
		{4, 1, 5, 4},
	}
	for _, c := range cases {
		tr, err := FullTree(c.k, c.h, unitW)
		if err != nil {
			t.Fatalf("FullTree(%d,%d): %v", c.k, c.h, err)
		}
		if tr.G.Len() != c.nodes {
			t.Errorf("FullTree(%d,%d) nodes = %d, want %d", c.k, c.h, tr.G.Len(), c.nodes)
		}
		if got := len(tr.G.Sources()); got != c.leaves {
			t.Errorf("FullTree(%d,%d) leaves = %d, want %d", c.k, c.h, got, c.leaves)
		}
		if tr.K != c.k {
			t.Errorf("FullTree(%d,%d) K = %d", c.k, c.h, tr.K)
		}
		if !tr.G.IsTree() {
			t.Errorf("FullTree(%d,%d) not a tree", c.k, c.h)
		}
	}
}

func TestNewRejectsNonTrees(t *testing.T) {
	// Diamond: a node with out-degree 2.
	g := &cdag.Graph{}
	a := g.AddNode(1, "a")
	b := g.AddNode(1, "b", a)
	c := g.AddNode(1, "c", a)
	g.AddNode(1, "d", b, c)
	if _, err := New(g); err == nil {
		t.Error("diamond should be rejected")
	}
	// Too-high in-degree.
	g2 := &cdag.Graph{}
	var ps []cdag.NodeID
	for i := 0; i < MaxK+1; i++ {
		ps = append(ps, g2.AddNode(1, "l"))
	}
	g2.AddNode(1, "r", ps...)
	if _, err := New(g2); err == nil {
		t.Error("in-degree beyond MaxK should be rejected")
	}
}

func TestChainCost(t *testing.T) {
	// A path leaf → ... → root: optimal cost is w_leaf + w_root as
	// long as every adjacent pair fits in the budget.
	tr, err := Chain(6, func(i int) cdag.Weight { return cdag.Weight(i + 1) })
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(tr)
	minB := core.MinExistenceBudget(tr.G) // = 5+6 = 11
	if minB != 11 {
		t.Fatalf("existence bound = %d, want 11", minB)
	}
	want := cdag.Weight(1 + 6)
	if got := s.MinCost(minB); got != want {
		t.Errorf("chain MinCost(%d) = %d, want %d", minB, got, want)
	}
	if got := s.MinCost(minB - 1); got < Inf {
		t.Errorf("chain below existence bound should be Inf, got %d", got)
	}
}

func TestStarCost(t *testing.T) {
	// Root consuming k leaves directly: cost = k·w_leaf + w_root at
	// the existence bound (all leaves must be red simultaneously).
	for k := 1; k <= 5; k++ {
		tr, err := Star(k, 3, 7)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(tr)
		b := core.MinExistenceBudget(tr.G)
		if b != cdag.Weight(3*k+7) {
			t.Fatalf("star existence bound = %d", b)
		}
		want := cdag.Weight(3*k + 7)
		if got := s.MinCost(b); got != want {
			t.Errorf("star(k=%d) cost = %d, want %d", k, got, want)
		}
	}
}

func TestScheduleSimulatesToMinCost(t *testing.T) {
	trees := []*Tree{}
	for _, c := range []struct{ k, h int }{{2, 2}, {2, 3}, {3, 2}, {4, 1}} {
		tr, err := FullTree(c.k, c.h, func(depth, index int) cdag.Weight {
			return cdag.Weight(1 + (depth+index)%3)
		})
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	for _, tr := range trees {
		s := NewScheduler(tr)
		minB := core.MinExistenceBudget(tr.G)
		for b := minB; b <= minB+6; b++ {
			want := s.MinCost(b)
			if want >= Inf {
				t.Fatalf("infeasible above existence bound (b=%d)", b)
			}
			sched, err := s.Schedule(b)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := core.Simulate(tr.G, b, sched)
			if err != nil {
				t.Fatalf("b=%d: %v", b, err)
			}
			if cap(sched) != len(sched) {
				t.Errorf("b=%d: schedule cap %d, want its length %d", b, cap(sched), len(sched))
			}
			if stats.Cost != want {
				t.Errorf("b=%d: simulated %d != DP %d", b, stats.Cost, want)
			}
		}
	}
}

func TestOptimalityAgainstExactBinary(t *testing.T) {
	tr, err := FullTree(2, 2, func(depth, index int) cdag.Weight {
		return cdag.Weight(1 + depth)
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(tr)
	minB := core.MinExistenceBudget(tr.G)
	for b := minB; b <= minB+5; b++ {
		res, err := exact.Solve(tr.G, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.MinCost(b); got != res.Cost {
			t.Errorf("b=%d: DP=%d exact=%d", b, got, res.Cost)
		}
	}
}

func TestOptimalityAgainstExactTernary(t *testing.T) {
	tr, err := FullTree(3, 1, func(depth, index int) cdag.Weight {
		return cdag.Weight(1 + index%2)
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(tr)
	minB := core.MinExistenceBudget(tr.G)
	for b := minB; b <= minB+4; b++ {
		res, err := exact.Solve(tr.G, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.MinCost(b); got != res.Cost {
			t.Errorf("b=%d: DP=%d exact=%d", b, got, res.Cost)
		}
	}
}

// TestOptimalityRandomTreesQuick cross-checks random small weighted
// trees against the exact solver. Pt enumerates subtree-contiguous
// strategies (child permutation × spill subset), so its cost is
// always achievable — never below the exact optimum — and matches it
// exactly once the budget is generous enough to hold the whole tree.
// Under tight budgets the exact solver can be strictly cheaper by
// interleaving sibling subtrees (e.g. a 10-node binary tree at
// b = minB where pausing one subtree to hold a grandchild red beats
// every contiguous order, DP 16 vs exact 12), so exact equality at
// arbitrary budgets is NOT a property of Pt.
func TestOptimalityRandomTreesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := Random(rng, 2+rng.Intn(2), 3, 3)
		if err != nil || tr.G.Len() > 12 {
			return true // skip oversized instances
		}
		s := NewScheduler(tr)
		b := core.MinExistenceBudget(tr.G) + cdag.Weight(rng.Intn(4))
		res, err := exact.Solve(tr.G, b)
		if err != nil {
			return true
		}
		dp := s.MinCost(b)
		if dp < res.Cost {
			t.Logf("seed=%d b=%d DP=%d below exact=%d nodes=%d", seed, b, dp, res.Cost, tr.G.Len())
			return false
		}
		if generous := tr.G.TotalWeight(); b >= generous {
			if dp != res.Cost {
				t.Logf("seed=%d b=%d ≥ total %d but DP=%d != exact=%d", seed, b, generous, dp, res.Cost)
				return false
			}
		}
		// The emitted schedule must realize exactly the DP cost.
		sched, err := s.Schedule(b)
		if err != nil {
			return false
		}
		stats, err := core.Simulate(tr.G, b, sched)
		return err == nil && stats.Cost == dp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMinCostMonotone: more budget never hurts.
func TestMinCostMonotone(t *testing.T) {
	tr, err := FullTree(3, 2, func(depth, index int) cdag.Weight {
		return cdag.Weight(1 + (depth*3+index)%4)
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(tr)
	minB := core.MinExistenceBudget(tr.G)
	prev := s.MinCost(minB)
	for b := minB + 1; b <= minB+20; b++ {
		cur := s.MinCost(b)
		if cur > prev {
			t.Fatalf("MinCost not monotone: b=%d cost=%d, b-1 cost=%d", b, cur, prev)
		}
		prev = cur
	}
}

func TestMinMemory(t *testing.T) {
	// Complete binary tree, unit weights: the minimum budget meeting
	// the lower bound is height + 2 pebbles (classic tree pebbling).
	for h := 1; h <= 5; h++ {
		tr, err := FullTree(2, h, unitW)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(tr)
		got, err := s.MinMemory(1)
		if err != nil {
			t.Fatal(err)
		}
		if want := cdag.Weight(h + 2); got != want {
			t.Errorf("height %d: MinMemory = %d, want %d", h, got, want)
		}
	}
}

func TestMinMemoryMatchesExact(t *testing.T) {
	tr, err := FullTree(2, 2, func(depth, index int) cdag.Weight {
		return cdag.Weight(1 + depth%2)
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(tr)
	got, err := s.MinMemory(1)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := exact.MinimumBudget(tr.G, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("MinMemory = %d, exact = %d", got, want)
	}
}

func TestStrategyCount(t *testing.T) {
	cases := map[int]int{1: 2, 2: 8, 3: 48, 4: 384}
	for k, want := range cases {
		if got := StrategyCount(k); got != want {
			t.Errorf("StrategyCount(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestRandomTreeValid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		tr, err := Random(rng, 1+rng.Intn(6), 1+rng.Intn(4), 4)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.G.IsTree() {
			t.Fatal("Random produced a non-tree")
		}
		if err := tr.G.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkScheduleBinaryHeight6(b *testing.B) {
	tr, err := FullTree(2, 6, unitW)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s := NewScheduler(tr)
		if _, err := s.Schedule(8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrategyEnumerationK4(b *testing.B) {
	tr, err := FullTree(4, 2, unitW)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s := NewScheduler(tr)
		s.MinCost(core.MinExistenceBudget(tr.G) + 2)
	}
}

// TestFullTreeNamesMatchFormulas: the derived names equal the strings
// FullTree once stored per node, in insertion order leafI, then nD_I
// level by level toward the root.
func TestFullTreeNamesMatchFormulas(t *testing.T) {
	for _, s := range [][2]int{{1, 3}, {2, 1}, {2, 8}, {3, 4}, {4, 3}, {5, 2}} {
		k, h := s[0], s[1]
		tr, err := FullTree(k, h, unitW)
		if err != nil {
			t.Fatal(err)
		}
		leaves := 1
		for i := 0; i < h; i++ {
			leaves *= k
		}
		var want []string
		for i := 0; i < leaves; i++ {
			want = append(want, "leaf"+strconv.Itoa(i))
		}
		for depth, size := h-1, leaves/k; depth >= 0; depth, size = depth-1, size/k {
			for i := 0; i < size; i++ {
				want = append(want, "n"+strconv.Itoa(depth)+"_"+strconv.Itoa(i))
			}
		}
		if tr.G.Len() != len(want) {
			t.Fatalf("FullTree(%d,%d): %d nodes, want %d", k, h, tr.G.Len(), len(want))
		}
		for v, w := range want {
			if got := tr.G.Name(cdag.NodeID(v)); got != w {
				t.Fatalf("FullTree(%d,%d) node %d: name %q, want %q", k, h, v, got, w)
			}
		}
	}
}

// TestTopologyTreeMatchesNew: Topology.Tree checks only the weights of
// the tree it makes, so that tree must be the one New derives from the
// same graph: the same root and arity, for every k up to MaxK at small
// heights. A non-positive weight is still refused, with New's error.
func TestTopologyTreeMatchesNew(t *testing.T) {
	for k := 1; k <= MaxK; k++ {
		for h := 1; h <= 3; h++ {
			topo, err := NewTopology(k, h)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := topo.Tree(func(d, i int) cdag.Weight { return cdag.Weight(1 + (d+i)%3) })
			if err != nil {
				t.Fatalf("k=%d h=%d: %v", k, h, err)
			}
			want, err := New(tr.G)
			if err != nil {
				t.Fatalf("k=%d h=%d: New refuses the tree: %v", k, h, err)
			}
			if tr.Root != want.Root || tr.K != want.K {
				t.Fatalf("k=%d h=%d: Tree gives root %d arity %d, New root %d arity %d", k, h, tr.Root, tr.K, want.Root, want.K)
			}
			for _, bad := range []cdag.Weight{0, -3} {
				wf := func(d, i int) cdag.Weight {
					if d == h && i == k-1 {
						return bad
					}
					return 1
				}
				_, err := topo.Tree(wf)
				w := make([]cdag.Weight, topo.g.Len())
				for v := range w {
					w[v] = 1
				}
				w[k-1] = bad // leaf k−1: the leaves take the first IDs
				_, nerr := New(topo.g.WithWeights(w))
				if err == nil || nerr == nil || err.Error() != nerr.Error() {
					t.Fatalf("k=%d h=%d weight %d: Tree error %v, New error %v", k, h, bad, err, nerr)
				}
			}
		}
	}
}
