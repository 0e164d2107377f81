package cdag

import (
	"slices"
	"testing"
)

// diamondWithNamer is a small graph whose names come from a namer, as
// the family topologies' do.
func diamondWithNamer() *Graph {
	g := &Graph{}
	a := g.AddNode(1, "")
	b := g.AddNode(1, "")
	c := g.AddNode(1, "", a, b)
	d := g.AddNode(1, "", a, c)
	g.AddNode(1, "", c, d)
	g.SetNamer(func(v NodeID) string { return string(rune('a' + v)) })
	return g
}

// sameAdjacency reports whether two graphs have equal parents,
// children and names.
func sameAdjacency(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	for v := 0; v < want.Len(); v++ {
		id := NodeID(v)
		if !slices.Equal(got.Parents(id), want.Parents(id)) || !slices.Equal(got.Children(id), want.Children(id)) {
			t.Errorf("node %d: parents %v children %v, want %v %v", v,
				got.Parents(id), got.Children(id), want.Parents(id), want.Children(id))
		}
		if got.Name(id) != want.Name(id) {
			t.Errorf("node %d: name %q, want %q", v, got.Name(id), want.Name(id))
		}
	}
}

// TestWithWeightsOwnsOnlyWeights: a graph made by WithWeights reads its
// source's adjacency and names, and writing its weights leaves the
// source and its siblings alone.
func TestWithWeightsOwnsOnlyWeights(t *testing.T) {
	src := diamondWithNamer()
	x := src.WithWeights([]Weight{2, 3, 4, 5, 6})
	y := src.WithWeights([]Weight{7, 7, 7, 7, 7})
	sameAdjacency(t, x, src)
	sameAdjacency(t, y, src)
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	x.SetWeight(2, 40)
	if x.Weight(2) != 40 || y.Weight(2) != 7 || src.Weight(2) != 1 {
		t.Errorf("weights after SetWeight: x %d y %d src %d, want 40 7 1", x.Weight(2), y.Weight(2), src.Weight(2))
	}
	if err := src.WithWeights([]Weight{1, 0, 1, 1, 1}).Validate(); err == nil {
		t.Error("Validate accepted a non-positive weight given to WithWeights")
	}
}

// TestTopologyAddNodeCopiesSharedAdjacency: AddNode and Reserve on a
// graph made by WithWeights copy its adjacency first, so neither the
// source nor a sibling sees the new node or edges, and every child
// window of the source stays as it was.
func TestTopologyAddNodeCopiesSharedAdjacency(t *testing.T) {
	src := diamondWithNamer()
	want := src.Clone()
	x := src.WithWeights([]Weight{1, 2, 3, 4, 5})
	y := src.WithWeights([]Weight{5, 4, 3, 2, 1})
	// Node 4 has spare child capacity in the source's slab: an append
	// that did not copy would write into it.
	e := x.AddNode(9, "extra", 0, 4)
	if e != 5 || x.Len() != 6 || !x.HasEdge(0, e) || !x.HasEdge(4, e) {
		t.Fatalf("AddNode on the derived graph: id %d len %d", e, x.Len())
	}
	if x.Weight(e) != 9 || x.Weight(1) != 2 {
		t.Errorf("derived weights after AddNode: %d %d, want 9 2", x.Weight(e), x.Weight(1))
	}
	sameAdjacency(t, src, want)
	sameAdjacency(t, y, want)
	z := src.WithWeights([]Weight{1, 1, 1, 1, 1})
	z.Reserve(4, 8)
	z.AddNode(1, "", 0)
	z.AddNode(1, "", 1, 2)
	sameAdjacency(t, src, want)
	sameAdjacency(t, y, want)
	if got := x.Children(0); !slices.Equal(got, []NodeID{2, 3, e}) {
		t.Errorf("derived children of 0 = %v, want [2 3 %d]", got, e)
	}
}

// TestSourcesSinksExact: Sources and Sinks return exactly sized slices,
// and nil when there are none.
func TestSourcesSinksExact(t *testing.T) {
	g := diamondWithNamer()
	src, snk := g.Sources(), g.Sinks()
	if !slices.Equal(src, []NodeID{0, 1}) || cap(src) != len(src) {
		t.Errorf("Sources = %v (cap %d), want [0 1] at exact capacity", src, cap(src))
	}
	if !slices.Equal(snk, []NodeID{4}) || cap(snk) != len(snk) {
		t.Errorf("Sinks = %v (cap %d), want [4] at exact capacity", snk, cap(snk))
	}
	if (&Graph{}).Sources() != nil {
		t.Error("Sources of an empty graph is not nil")
	}
}
