package cdag

import (
	"strings"
	"testing"
	"testing/quick"
)

// diamond builds a→{b,c}→d with the given weights.
func diamond(t *testing.T) (*Graph, []NodeID) {
	t.Helper()
	g := &Graph{}
	a := g.AddNode(1, "a")
	b := g.AddNode(2, "b", a)
	c := g.AddNode(3, "c", a)
	d := g.AddNode(4, "d", b, c)
	return g, []NodeID{a, b, c, d}
}

func TestAddNodeBasics(t *testing.T) {
	g, ids := diamond(t)
	if g.Len() != 4 {
		t.Fatalf("Len = %d", g.Len())
	}
	if g.Weight(ids[1]) != 2 || g.Name(ids[1]) != "b" {
		t.Errorf("node b: weight %d name %q", g.Weight(ids[1]), g.Name(ids[1]))
	}
	if g.InDegree(ids[3]) != 2 || g.OutDegree(ids[0]) != 2 {
		t.Errorf("degrees wrong")
	}
	ps := g.Parents(ids[3])
	if len(ps) != 2 || ps[0] != ids[1] || ps[1] != ids[2] {
		t.Errorf("parents of d = %v", ps)
	}
	cs := g.Children(ids[0])
	if len(cs) != 2 || cs[0] != ids[1] || cs[1] != ids[2] {
		t.Errorf("children of a = %v", cs)
	}
}

func TestAddNodePanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("zero weight", func() {
		g := &Graph{}
		g.AddNode(0, "x")
	})
	assertPanics("negative weight", func() {
		g := &Graph{}
		g.AddNode(-1, "x")
	})
	assertPanics("forward parent", func() {
		g := &Graph{}
		g.AddNode(1, "x", 0)
	})
	assertPanics("SetWeight zero", func() {
		g := &Graph{}
		v := g.AddNode(1, "x")
		g.SetWeight(v, 0)
	})
}

func TestSourcesSinks(t *testing.T) {
	g, ids := diamond(t)
	srcs := g.Sources()
	if len(srcs) != 1 || srcs[0] != ids[0] {
		t.Errorf("sources = %v", srcs)
	}
	sinks := g.Sinks()
	if len(sinks) != 1 || sinks[0] != ids[3] {
		t.Errorf("sinks = %v", sinks)
	}
	if !g.IsSource(ids[0]) || g.IsSource(ids[1]) {
		t.Error("IsSource wrong")
	}
	if !g.IsSink(ids[3]) || g.IsSink(ids[2]) {
		t.Error("IsSink wrong")
	}
	if g.SourceWeight() != 1 || g.SinkWeight() != 4 {
		t.Errorf("weights: src %d sink %d", g.SourceWeight(), g.SinkWeight())
	}
	if g.TotalWeight() != 10 {
		t.Errorf("total = %d", g.TotalWeight())
	}
}

func TestEdgeQueries(t *testing.T) {
	g, ids := diamond(t)
	if g.EdgeCount() != 4 {
		t.Errorf("edges = %d", g.EdgeCount())
	}
	if !g.HasEdge(ids[0], ids[1]) || g.HasEdge(ids[1], ids[0]) || g.HasEdge(ids[0], ids[3]) {
		t.Error("HasEdge wrong")
	}
}

func TestValidate(t *testing.T) {
	g, _ := diamond(t)
	if err := g.Validate(); err != nil {
		t.Errorf("diamond should validate: %v", err)
	}
	empty := &Graph{}
	if err := empty.Validate(); err == nil {
		t.Error("empty graph should fail")
	}
	isolated := &Graph{}
	isolated.AddNode(1, "lonely")
	if err := isolated.Validate(); err == nil {
		t.Error("isolated node should fail (source ∩ sink must be empty)")
	}
}

func TestTopoOrder(t *testing.T) {
	g, _ := diamond(t)
	order := g.TopoOrder()
	pos := map[NodeID]int{}
	for i, v := range order {
		pos[v] = i
	}
	for v := 0; v < g.Len(); v++ {
		for _, p := range g.Parents(NodeID(v)) {
			if pos[p] >= pos[NodeID(v)] {
				t.Fatalf("parent %d not before child %d", p, v)
			}
		}
	}
}

func TestMaxComputePressure(t *testing.T) {
	g, _ := diamond(t)
	// d: 4+2+3 = 9; b: 2+1 = 3; c: 3+1 = 4.
	if got := g.MaxComputePressure(); got != 9 {
		t.Errorf("pressure = %d, want 9", got)
	}
}

func TestIsTreeAndMaxInDegree(t *testing.T) {
	g, _ := diamond(t)
	if g.IsTree() {
		t.Error("diamond is not a tree (node a has out-degree 2)")
	}
	tree := &Graph{}
	l1 := tree.AddNode(1, "l1")
	l2 := tree.AddNode(1, "l2")
	l3 := tree.AddNode(1, "l3")
	tree.AddNode(1, "r", l1, l2, l3)
	if !tree.IsTree() {
		t.Error("star should be a tree")
	}
	if tree.MaxInDegree() != 3 {
		t.Errorf("max in-degree = %d", tree.MaxInDegree())
	}
	// Two sinks → not a tree.
	two := &Graph{}
	a := two.AddNode(1, "a")
	two.AddNode(1, "b", a)
	two.AddNode(1, "c", a)
	if two.IsTree() {
		t.Error("two sinks should not be a tree")
	}
}

func TestAncestorsDescendants(t *testing.T) {
	g, ids := diamond(t)
	anc := g.Ancestors(ids[3])
	if len(anc) != 3 || !anc[ids[0]] || !anc[ids[1]] || !anc[ids[2]] {
		t.Errorf("ancestors of d = %v", anc)
	}
	if len(g.Ancestors(ids[0])) != 0 {
		t.Error("source has no ancestors")
	}
	desc := g.Descendants(ids[0])
	if len(desc) != 3 {
		t.Errorf("descendants of a = %v", desc)
	}
	if len(g.Descendants(ids[3])) != 0 {
		t.Error("sink has no descendants")
	}
}

func TestPrune(t *testing.T) {
	g, ids := diamond(t)
	// Removing c (and nothing else) is legal: d depends on it? Yes —
	// d is a child of c, so removing c alone must fail.
	if _, _, err := g.Prune(map[NodeID]bool{ids[2]: true}); err == nil {
		t.Error("pruning a node with kept children should fail")
	}
	// Removing c and d works, leaving a→b.
	pruned, mapping, err := g.Prune(map[NodeID]bool{ids[2]: true, ids[3]: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Len() != 2 {
		t.Fatalf("pruned len = %d", pruned.Len())
	}
	if mapping[ids[2]] != None || mapping[ids[3]] != None {
		t.Error("removed nodes should map to None")
	}
	if pruned.Weight(mapping[ids[1]]) != 2 {
		t.Error("weights not preserved")
	}
	if !pruned.HasEdge(mapping[ids[0]], mapping[ids[1]]) {
		t.Error("edge a→b lost")
	}
}

func TestClone(t *testing.T) {
	g, ids := diamond(t)
	c := g.Clone()
	if c.Len() != g.Len() || c.EdgeCount() != g.EdgeCount() {
		t.Fatal("clone shape differs")
	}
	c.SetWeight(ids[0], 100)
	if g.Weight(ids[0]) == 100 {
		t.Error("clone shares weight storage")
	}
}

func TestDOT(t *testing.T) {
	g, _ := diamond(t)
	dot := g.DOT("diamond")
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "n0 -> n1") {
		t.Errorf("DOT output malformed:\n%s", dot)
	}
}

func TestSortedIDs(t *testing.T) {
	set := map[NodeID]bool{5: true, 1: true, 3: true}
	ids := SortedIDs(set)
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 3 || ids[2] != 5 {
		t.Errorf("SortedIDs = %v", ids)
	}
}

// TestBuilderInvariantsQuick: any graph built through AddNode
// validates, has consistent parent/child mirrors, and insertion order
// is topological.
func TestBuilderInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := &Graph{}
		r := seed
		next := func(n int64) int64 {
			r = r*6364136223846793005 + 1442695040888963407
			v := r % n
			if v < 0 {
				v = -v
			}
			return v
		}
		// First two nodes are sources, the rest pick 1–2 earlier
		// parents.
		g.AddNode(Weight(next(5)+1), "s0")
		g.AddNode(Weight(next(5)+1), "s1")
		for i := 2; i < 10; i++ {
			p1 := NodeID(next(int64(i)))
			if next(2) == 0 {
				p2 := NodeID(next(int64(i)))
				if p2 != p1 {
					g.AddNode(Weight(next(5)+1), "n", p1, p2)
					continue
				}
			}
			g.AddNode(Weight(next(5)+1), "n", p1)
		}
		// Parent/child mirror consistency.
		for v := 0; v < g.Len(); v++ {
			for _, p := range g.Parents(NodeID(v)) {
				found := false
				for _, c := range g.Children(p) {
					if c == NodeID(v) {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		// Validate may only fail for isolated nodes (a random source
		// that never got children); everything else must hold.
		isolated := false
		for v := 0; v < g.Len(); v++ {
			if g.InDegree(NodeID(v)) == 0 && g.OutDegree(NodeID(v)) == 0 {
				isolated = true
			}
		}
		return isolated || g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestValidateWeights: ValidateWeights gives Validate's error for the
// first non-positive weight and checks nothing else, so it passes a
// graph whose only fault is structural.
func TestValidateWeights(t *testing.T) {
	g := &Graph{}
	a := g.AddNode(2, "a")
	b := g.AddNode(3, "b")
	g.AddNode(1, "c", a, b)
	if err := g.ValidateWeights(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Weight{0, -4} {
		h := g.WithWeights([]Weight{2, bad, bad})
		err, verr := h.ValidateWeights(), h.Validate()
		if err == nil || verr == nil || err.Error() != verr.Error() {
			t.Fatalf("weight %d: ValidateWeights %v, Validate %v", bad, err, verr)
		}
	}
	g.AddNode(5, "isolated")
	if g.Validate() == nil || g.ValidateWeights() != nil {
		t.Fatal("an isolated node must fail Validate alone")
	}
}
