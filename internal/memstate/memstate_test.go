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

// buildBinary returns a complete binary tree of the given height with
// the weight function.
func buildBinary(t *testing.T, height int, wf func(depth, index int) cdag.Weight) (*ktree.Tree, *Scheduler) {
	t.Helper()
	tr, err := ktree.FullTree(2, height, wf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(tr.G)
	if err != nil {
		t.Fatal(err)
	}
	return tr, s
}

func TestRejectsNonBinary(t *testing.T) {
	tr, err := ktree.FullTree(3, 1, func(d, i int) cdag.Weight { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScheduler(tr.G); err == nil {
		t.Error("ternary tree should be rejected (Eq. 8 is for k=2)")
	}
	chain, err := ktree.Chain(3, func(i int) cdag.Weight { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScheduler(chain.G); err == nil {
		t.Error("chain (in-degree 1) should be rejected")
	}
}

// TestEmptyStatesMatchKtree: with I = R = ∅, Pm coincides with the
// k-ary tree DP Pt on binary trees.
func TestEmptyStatesMatchKtree(t *testing.T) {
	for _, h := range []int{1, 2, 3} {
		wf := func(depth, index int) cdag.Weight { return cdag.Weight(1 + (depth+index)%3) }
		tr, s := buildBinary(t, h, wf)
		ks := ktree.NewScheduler(tr)
		minB := core.MinExistenceBudget(tr.G)
		for b := minB; b <= minB+6; b++ {
			want := ks.MinCost(b) - tr.G.Weight(tr.Root) // Pt(root,b) without the final store
			got := s.PlainCost(tr.Root, b)
			if got != want {
				t.Errorf("h=%d b=%d: Pm=%d Pt=%d", h, b, got, want)
			}
		}
	}
}

func TestEmptyStatesMatchKtreeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		wf := func(depth, index int) cdag.Weight { return 1 + cdag.Weight(rng.Intn(3)) }
		tr, err := ktree.FullTree(2, 1+rng.Intn(3), wf)
		if err != nil {
			return false
		}
		s, err := NewScheduler(tr.G)
		if err != nil {
			return false
		}
		ks := ktree.NewScheduler(tr)
		b := core.MinExistenceBudget(tr.G) + cdag.Weight(rng.Intn(6))
		return s.PlainCost(tr.Root, b) == ks.MinCost(b)-tr.G.Weight(tr.Root)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestInitialStateSkipsComputation: if v itself is in I and R is
// empty, nothing needs to move: cost 0.
func TestInitialStateSkipsComputation(t *testing.T) {
	tr, s := buildBinary(t, 2, func(d, i int) cdag.Weight { return 2 })
	root := tr.Root
	got := s.Cost(root, 100, bitset.New(root), bitset.Set{})
	if got != 0 {
		t.Errorf("Pm(v∈I, R=∅) = %d, want 0", got)
	}
}

// TestInitialStateWithReuse: v ∈ I and R \ I nonempty costs exactly
// the weight of the missing reuse nodes.
func TestInitialStateWithReuse(t *testing.T) {
	tr, s := buildBinary(t, 2, func(d, i int) cdag.Weight { return 2 })
	root := tr.Root
	leaf := tr.G.Sources()[0]
	got := s.Cost(root, 100, bitset.New(root), bitset.New(leaf))
	if got != 2 {
		t.Errorf("Pm = %d, want 2 (one leaf brought in)", got)
	}
	// If the reuse node is already in I, it costs nothing.
	got = s.Cost(root, 100, bitset.New(root, leaf), bitset.New(leaf))
	if got != 0 {
		t.Errorf("Pm = %d, want 0 (reuse node already resident)", got)
	}
}

// TestReuseTightensBudget: demanding a reuse node makes tight budgets
// infeasible — the guard includes R ∪ H(v) ∪ {v}.
func TestReuseTightensBudget(t *testing.T) {
	tr, s := buildBinary(t, 1, func(d, i int) cdag.Weight { return 1 })
	root := tr.Root
	leaf := tr.G.Sources()[0]
	// Computing the root alone needs budget 3 (root + 2 leaves).
	if got := s.Cost(root, 3, bitset.Set{}, bitset.Set{}); got >= Inf {
		t.Fatalf("plain cost should be feasible at 3, got Inf")
	}
	// Keeping one leaf around afterwards does not change the guard
	// (it is already a parent)...
	if got := s.Cost(root, 3, bitset.Set{}, bitset.New(leaf)); got >= Inf {
		t.Errorf("reuse of a parent should still fit in budget 3")
	}
}

// TestReuseOfDistantNodeRaisesGuard: reusing a node that is not a
// parent of v raises the co-residency requirement.
func TestReuseOfDistantNodeRaisesGuard(t *testing.T) {
	tr, s := buildBinary(t, 2, func(d, i int) cdag.Weight { return 1 })
	root := tr.Root
	leaf := tr.G.Sources()[0] // a grandparent-level input, not a parent of root
	// Plain: root + 2 mid nodes = 3.
	if got := s.Cost(root, 3, bitset.Set{}, bitset.Set{}); got >= Inf {
		t.Fatalf("plain cost should be feasible at 3")
	}
	// With leaf reuse the guard becomes 4.
	if got := s.Cost(root, 3, bitset.Set{}, bitset.New(leaf)); got < Inf {
		t.Errorf("budget 3 with distant reuse should be infeasible, got %d", got)
	}
	if got := s.Cost(root, 4, bitset.Set{}, bitset.New(leaf)); got >= Inf {
		t.Errorf("budget 4 with distant reuse should be feasible")
	}
}

// TestInitialStateReducesCost: parents already resident cut the cost
// of computing v to zero I/O.
func TestInitialStateReducesCost(t *testing.T) {
	tr, s := buildBinary(t, 1, func(d, i int) cdag.Weight { return 1 })
	root := tr.Root
	ps := tr.G.Parents(root)
	plain := s.Cost(root, 10, bitset.Set{}, bitset.Set{})
	if plain != 2 {
		t.Fatalf("plain cost = %d, want 2 (two leaf loads)", plain)
	}
	withI := s.Cost(root, 10, bitset.New(ps[0], ps[1]), bitset.Set{})
	if withI != 0 {
		t.Errorf("cost with resident parents = %d, want 0", withI)
	}
	half := s.Cost(root, 10, bitset.New(ps[0]), bitset.Set{})
	if half != 1 {
		t.Errorf("cost with one resident parent = %d, want 1", half)
	}
}

// TestMonotoneInBudget: Pm never increases with budget.
func TestMonotoneInBudget(t *testing.T) {
	tr, s := buildBinary(t, 3, func(d, i int) cdag.Weight { return cdag.Weight(1 + d%2) })
	root := tr.Root
	leaf := tr.G.Sources()[2]
	minB := core.MinExistenceBudget(tr.G)
	prev := s.Cost(root, minB, bitset.Set{}, bitset.New(leaf))
	for b := minB + 1; b <= minB+15; b++ {
		cur := s.Cost(root, b, bitset.Set{}, bitset.New(leaf))
		if cur > prev {
			t.Fatalf("not monotone at b=%d: %d > %d", b, cur, prev)
		}
		prev = cur
	}
}

// TestReuseCostBounds: requiring a leaf to stay resident can only
// raise the cost (more constraints), and never beyond the plain cost
// at the budget reduced by the leaf's weight — take the optimal plain
// schedule under b − w(leaf) and keep the leaf red from its first
// load onward; the peak grows by at most w(leaf) and no move gets
// more expensive. (The naive bound plain(b) + w(leaf) does NOT hold:
// Eq. 8 keeps reuse nodes co-resident from the moment they are
// computed, and under tight budgets that forces spill strategies
// elsewhere that cost more than one extra load of the leaf.)
func TestReuseCostBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		wf := func(depth, index int) cdag.Weight { return 1 + cdag.Weight(rng.Intn(2)) }
		tr, err := ktree.FullTree(2, 1+rng.Intn(2), wf)
		if err != nil {
			return false
		}
		s, err := NewScheduler(tr.G)
		if err != nil {
			return false
		}
		leaves := tr.G.Sources()
		leaf := leaves[rng.Intn(len(leaves))]
		b := core.MinExistenceBudget(tr.G) + tr.G.Weight(leaf) + cdag.Weight(rng.Intn(4))
		plain := s.PlainCost(tr.Root, b)
		withR := s.Cost(tr.Root, b, bitset.Set{}, bitset.New(leaf))
		if plain >= Inf || withR >= Inf {
			return true
		}
		if withR < plain {
			t.Logf("seed %d: withR %d < plain %d", seed, withR, plain)
			return false
		}
		reduced := s.PlainCost(tr.Root, b-tr.G.Weight(leaf))
		if reduced < Inf && withR > reduced {
			t.Logf("seed %d: withR %d > plain(b-w) %d", seed, withR, reduced)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDescribe(t *testing.T) {
	tr, _ := buildBinary(t, 1, func(d, i int) cdag.Weight { return 1 })
	set := bitset.New(tr.G.Sources()[0], tr.Root)
	s := Describe(tr.G, set)
	if s == "" || s == "{}" {
		t.Errorf("Describe = %q", s)
	}
}
