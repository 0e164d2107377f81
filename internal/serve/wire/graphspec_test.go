// GraphSpec compilation: structural validation naming the offending
// node or edge, deterministic toposort, and canonical cache identity
// across isomorphic submissions.

package wire

import (
	"strings"
	"testing"

	"wrbpg/internal/solve"
)

func specNode(name string, w int64, deps ...string) GraphNode {
	return GraphNode{Name: name, WeightBits: w, Deps: deps}
}

func TestGraphSpecCompile(t *testing.T) {
	// Nodes deliberately out of topological order.
	spec := &GraphSpec{Nodes: []GraphNode{
		specNode("out", 16, "x", "y"),
		specNode("y", 8),
		specNode("x", 8),
	}}
	g, err := spec.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Fatalf("compiled %d nodes, want 3", g.Len())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	sinks := g.Sinks()
	if len(sinks) != 1 || g.Name(sinks[0]) != "out" || len(g.Parents(sinks[0])) != 2 {
		t.Fatalf("sink structure wrong: sinks=%v", sinks)
	}
}

func TestGraphSpecErrorsNameOffenders(t *testing.T) {
	cases := []struct {
		name string
		spec GraphSpec
		want string // substring the error must carry
	}{
		{"empty", GraphSpec{}, "no nodes"},
		{"unnamed", GraphSpec{Nodes: []GraphNode{{WeightBits: 8}}}, "no name"},
		{"duplicate name", GraphSpec{Nodes: []GraphNode{
			specNode("a", 8), specNode("a", 8)}}, `"a"`},
		{"non-positive weight", GraphSpec{Nodes: []GraphNode{
			specNode("heavy", 0)}}, `"heavy"`},
		{"dangling edge", GraphSpec{Nodes: []GraphNode{
			specNode("a", 8, "ghost")}}, `"ghost" -> "a"`},
		{"self cycle", GraphSpec{Nodes: []GraphNode{
			specNode("a", 8, "a")}}, "self-cycle"},
		{"duplicate edge", GraphSpec{Nodes: []GraphNode{
			specNode("p", 8), specNode("a", 8, "p", "p")}}, "twice"},
		{"two cycle", GraphSpec{Nodes: []GraphNode{
			specNode("a", 8, "b"), specNode("b", 8, "a")}}, "cycle"},
	}
	for _, tc := range cases {
		_, err := tc.spec.Graph()
		if err == nil {
			t.Errorf("%s: compiled without error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the offender %q", tc.name, err, tc.want)
		}
	}
}

// TestGraphSpecCycleNamesMembers: the cycle error prints the loop's
// node names, not just "cycle detected".
func TestGraphSpecCycleNamesMembers(t *testing.T) {
	spec := &GraphSpec{Nodes: []GraphNode{
		specNode("src", 8),
		specNode("a", 8, "src", "c"),
		specNode("b", 8, "a"),
		specNode("c", 8, "b"),
		specNode("sink", 8, "c"),
	}}
	_, err := spec.Graph()
	if err == nil {
		t.Fatal("cyclic spec compiled")
	}
	for _, name := range []string{`"a"`, `"b"`, `"c"`} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("cycle error %q misses member %s", err, name)
		}
	}
	if strings.Contains(err.Error(), `"src"`) || strings.Contains(err.Error(), `"sink"`) {
		t.Fatalf("cycle error %q names nodes outside the loop", err)
	}
}

// TestCDAGRequestIsomorphicKeys: the same dataflow submitted with
// different node names and orderings — and across the two wire forms —
// lands on one canonical cache key.
func TestCDAGRequestIsomorphicKeys(t *testing.T) {
	a := &Spec{Family: solve.FamilyCDAG,
		CDAG: &GraphSpec{Nodes: []GraphNode{
			specNode("x", 8), specNode("y", 4), specNode("r", 16, "x", "y"),
		}}}
	b := &Spec{Family: solve.FamilyCDAG,
		CDAG: &GraphSpec{Nodes: []GraphNode{
			specNode("result", 16, "right", "left"),
			specNode("right", 8), specNode("left", 4),
		}}}
	ia, err := a.Instance()
	if err != nil {
		t.Fatal(err)
	}
	ib, err := b.Instance()
	if err != nil {
		t.Fatal(err)
	}
	if ia.Key(64) != ib.Key(64) {
		t.Fatalf("isomorphic cdag specs keyed differently:\n  %s\n  %s", ia.Key(64), ib.Key(64))
	}
	if len(ia.Perm) != 3 || len(ib.Perm) != 3 {
		t.Fatalf("permutations not recorded: %v %v", ia.Perm, ib.Perm)
	}
}

func TestScheduleRequestRejectsBothGraphForms(t *testing.T) {
	g := &GraphSpec{Nodes: []GraphNode{specNode("a", 8)}}
	ga, err := g.Graph()
	if err != nil {
		t.Fatal(err)
	}
	r := &Spec{Family: solve.FamilyCDAG, Graph: ga, CDAG: g}
	if _, err := r.Instance(); err == nil {
		t.Fatal("request with both graph and cdag accepted")
	}
}
