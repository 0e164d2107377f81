package dwt

import (
	"fmt"
	"testing"

	"wrbpg/internal/cdag"
	"wrbpg/internal/wcfg"
)

func equalWeights(layer, index int) cdag.Weight { return 16 }

func buildOrFatal(t *testing.T, n, d int, wf WeightFunc) *Graph {
	t.Helper()
	g, err := Build(n, d, wf)
	if err != nil {
		t.Fatalf("Build(%d,%d): %v", n, d, err)
	}
	return g
}

func TestBuildRejectsBadParams(t *testing.T) {
	cases := []struct{ n, d int }{
		{0, 1}, {-4, 1}, {4, 0}, {3, 1}, {6, 2}, {4, 3}, {2, 2}, {5, 1},
	}
	for _, c := range cases {
		if _, err := Build(c.n, c.d, equalWeights); err == nil {
			t.Errorf("Build(%d,%d) should fail", c.n, c.d)
		}
	}
}

func TestBuildAcceptsNonPowerOfTwoMultiples(t *testing.T) {
	// n = k·2^d with k not a power of two is explicitly allowed.
	for _, c := range []struct{ n, d int }{{6, 1}, {12, 2}, {24, 3}, {80, 4}} {
		g := buildOrFatal(t, c.n, c.d, equalWeights)
		if err := g.G.Validate(); err != nil {
			t.Errorf("DWT(%d,%d): %v", c.n, c.d, err)
		}
	}
}

func TestDWT41Structure(t *testing.T) {
	// Figure 2a: DWT(4,1) — S1 and S2 with 4 nodes each.
	g := buildOrFatal(t, 4, 1, equalWeights)
	if got := g.G.Len(); got != 8 {
		t.Fatalf("node count = %d, want 8", got)
	}
	if len(g.Layers) != 2 || len(g.Layers[0]) != 4 || len(g.Layers[1]) != 4 {
		t.Fatalf("layer sizes wrong: %v", g.Layers)
	}
	// v²_1 and v²_2 share parents {v¹_1, v¹_2}; v²_3 and v²_4 share
	// parents {v¹_3, v¹_4}.
	for j := 1; j <= 4; j++ {
		v := g.NodeAt(2, j)
		ps := g.G.Parents(v)
		if len(ps) != 2 {
			t.Fatalf("v2_%d has %d parents", j, len(ps))
		}
		pair := (j + 1) / 2
		want1, want2 := g.NodeAt(1, 2*pair-1), g.NodeAt(1, 2*pair)
		if ps[0] != want1 || ps[1] != want2 {
			t.Errorf("v2_%d parents = %v, want {%d,%d}", j, ps, want1, want2)
		}
	}
	// All of S2 are sinks; all of S1 are sources.
	if got := len(g.G.Sources()); got != 4 {
		t.Errorf("sources = %d, want 4", got)
	}
	if got := len(g.G.Sinks()); got != 4 {
		t.Errorf("sinks = %d, want 4", got)
	}
}

func TestDWT42Structure(t *testing.T) {
	// Figure 2b: DWT(4,2) — layers of size 4, 4, 2.
	g := buildOrFatal(t, 4, 2, equalWeights)
	if got := g.G.Len(); got != 10 {
		t.Fatalf("node count = %d, want 10", got)
	}
	// v³_1 (avg) and v³_2 (coeff) both have parents {v²_1, v²_3}.
	for j := 1; j <= 2; j++ {
		ps := g.G.Parents(g.NodeAt(3, j))
		if len(ps) != 2 || ps[0] != g.NodeAt(2, 1) || ps[1] != g.NodeAt(2, 3) {
			t.Errorf("v3_%d parents = %v, want {v2_1, v2_3}", j, ps)
		}
	}
	// Sinks: v²_2, v²_4 (coefficients) and v³_1, v³_2.
	sinks := g.G.Sinks()
	want := []cdag.NodeID{g.NodeAt(2, 2), g.NodeAt(2, 4), g.NodeAt(3, 1), g.NodeAt(3, 2)}
	if len(sinks) != len(want) {
		t.Fatalf("sinks = %v, want %v", sinks, want)
	}
	for i := range want {
		if sinks[i] != want[i] {
			t.Fatalf("sinks = %v, want %v", sinks, want)
		}
	}
}

func TestDWT83StructureMatchesFigure3(t *testing.T) {
	g := buildOrFatal(t, 8, 3, equalWeights)
	// Layers: 8, 8, 4, 2.
	sizes := []int{8, 8, 4, 2}
	for i, want := range sizes {
		if got := len(g.Layers[i]); got != want {
			t.Errorf("|S%d| = %d, want %d", i+1, got, want)
		}
	}
	// v³_3, v³_4 have parents {v²_5, v²_7} (Figure 3a).
	for j := 3; j <= 4; j++ {
		ps := g.G.Parents(g.NodeAt(3, j))
		if ps[0] != g.NodeAt(2, 5) || ps[1] != g.NodeAt(2, 7) {
			t.Errorf("v3_%d parents = %v, want {v2_5, v2_7}", j, ps)
		}
	}
	// v⁴_1, v⁴_2 have parents {v³_1, v³_3}.
	for j := 1; j <= 2; j++ {
		ps := g.G.Parents(g.NodeAt(4, j))
		if ps[0] != g.NodeAt(3, 1) || ps[1] != g.NodeAt(3, 3) {
			t.Errorf("v4_%d parents = %v, want {v3_1, v3_3}", j, ps)
		}
	}
}

func TestLayerSizes(t *testing.T) {
	g := buildOrFatal(t, 256, 8, equalWeights)
	want := []int{256, 256, 128, 64, 32, 16, 8, 4, 2}
	if len(g.Layers) != len(want) {
		t.Fatalf("layer count = %d, want %d", len(g.Layers), len(want))
	}
	total := 0
	for i, w := range want {
		if len(g.Layers[i]) != w {
			t.Errorf("|S%d| = %d, want %d", i+1, len(g.Layers[i]), w)
		}
		total += w
	}
	if g.G.Len() != total {
		t.Errorf("total nodes = %d, want %d", g.G.Len(), total)
	}
}

func TestPruneFormsBinaryTrees(t *testing.T) {
	// Figure 3b: pruning DWT(8,3) leaves a single binary tree with
	// 8 leaves and 7 internal nodes.
	g := buildOrFatal(t, 8, 3, equalWeights)
	pruned, mapping, err := g.Prune()
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if got := pruned.Len(); got != 15 {
		t.Fatalf("pruned node count = %d, want 15", got)
	}
	if !pruned.IsTree() {
		t.Error("pruned DWT(8,3) should be a single binary tree")
	}
	if pruned.MaxInDegree() != 2 {
		t.Errorf("pruned max in-degree = %d, want 2", pruned.MaxInDegree())
	}
	// Mapping marks removed nodes as None.
	removed := 0
	for _, m := range mapping {
		if m == cdag.None {
			removed++
		}
	}
	if removed != 22-15 {
		t.Errorf("removed = %d, want 7", removed)
	}
}

func TestPruneDWT41TwoTrees(t *testing.T) {
	g := buildOrFatal(t, 4, 1, equalWeights)
	pruned, _, err := g.Prune()
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if pruned.Len() != 6 {
		t.Fatalf("pruned node count = %d, want 6", pruned.Len())
	}
	if pruned.IsTree() {
		t.Error("pruned DWT(4,1) has two independent trees; IsTree should be false")
	}
	if got := len(g.Roots()); got != 2 {
		t.Errorf("roots = %d, want 2", got)
	}
}

func TestSibling(t *testing.T) {
	g := buildOrFatal(t, 8, 3, equalWeights)
	if u := g.Sibling(g.NodeAt(2, 1)); u != g.NodeAt(2, 2) {
		t.Errorf("sibling(v2_1) = %d, want v2_2", u)
	}
	if u := g.Sibling(g.NodeAt(4, 1)); u != g.NodeAt(4, 2) {
		t.Errorf("sibling(v4_1) = %d, want v4_2", u)
	}
	if u := g.Sibling(g.NodeAt(2, 2)); u != cdag.None {
		t.Errorf("sibling of even node = %d, want None", u)
	}
	if u := g.Sibling(g.NodeAt(1, 1)); u != cdag.None {
		t.Errorf("sibling of input = %d, want None", u)
	}
}

func TestLocate(t *testing.T) {
	g := buildOrFatal(t, 16, 4, equalWeights)
	for i := 1; i <= 5; i++ {
		for j := 1; j <= len(g.Layers[i-1]); j++ {
			v := g.NodeAt(i, j)
			if g.Layer(v) != i || g.Index(v) != j {
				t.Fatalf("locate(v%d_%d) = (%d,%d)", i, j, g.Layer(v), g.Index(v))
			}
		}
	}
}

func TestWeightAssumption(t *testing.T) {
	g := buildOrFatal(t, 4, 1, ConfigWeights(wcfg.DoubleAccumulator(16)))
	if err := g.CheckWeightAssumption(); err != nil {
		t.Errorf("DA weights should satisfy the assumption: %v", err)
	}
	// Make a coefficient heavier than its average sibling.
	g.G.SetWeight(g.NodeAt(2, 2), 64)
	if err := g.CheckWeightAssumption(); err == nil {
		t.Error("expected weight assumption violation")
	}
}

func TestMaxLevel(t *testing.T) {
	cases := map[int]int{2: 1, 4: 2, 6: 1, 8: 3, 12: 2, 256: 8, 192: 6, 100: 2}
	for n, want := range cases {
		if got := MaxLevel(n); got != want {
			t.Errorf("MaxLevel(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestConfigWeights(t *testing.T) {
	da := ConfigWeights(wcfg.DoubleAccumulator(16))
	if da(1, 3) != 16 {
		t.Errorf("input weight = %d, want 16", da(1, 3))
	}
	if da(2, 1) != 32 {
		t.Errorf("node weight = %d, want 32", da(2, 1))
	}
}

// TestNamesMatchFormulas: the derived names equal the strings Build
// once stored per node, in insertion order x[j], then a<level>[j] /
// c<level>[j] layer by layer, and survive Prune.
func TestNamesMatchFormulas(t *testing.T) {
	for _, s := range [][2]int{{2, 1}, {8, 1}, {8, 3}, {24, 3}, {64, 6}, {128, 7}} {
		n, d := s[0], s[1]
		g := buildOrFatal(t, n, d, equalWeights)
		var want []string
		for j := 1; j <= n; j++ {
			want = append(want, fmt.Sprintf("x[%d]", j))
		}
		for layer, size := 2, n; layer <= d+1; layer, size = layer+1, size/2 {
			for j := 1; j <= size; j++ {
				kind := "a"
				if j%2 == 0 {
					kind = "c"
				}
				want = append(want, fmt.Sprintf("%s%d[%d]", kind, layer-1, j))
			}
		}
		if g.G.Len() != len(want) {
			t.Fatalf("DWT(%d,%d): %d nodes, want %d", n, d, g.G.Len(), len(want))
		}
		for v, w := range want {
			if got := g.G.Name(cdag.NodeID(v)); got != w {
				t.Fatalf("DWT(%d,%d) node %d: name %q, want %q", n, d, v, got, w)
			}
		}
		pruned, mapping, err := g.Prune()
		if err != nil {
			t.Fatal(err)
		}
		for v, nv := range mapping {
			if nv != cdag.None && pruned.Name(nv) != want[v] {
				t.Fatalf("DWT(%d,%d) pruned node %d: name %q, want %q", n, d, nv, pruned.Name(nv), want[v])
			}
		}
	}
}

// TestTopologyGraphRejectsNonPositiveWeight: Topology.Graph checks
// only the weights, and still refuses a non-positive one, on an input
// or an inner node, with the error a full Validate gives.
func TestTopologyGraphRejectsNonPositiveWeight(t *testing.T) {
	topo, err := NewTopology(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range [][2]int{{1, 5}, {3, 2}} {
		for _, bad := range []cdag.Weight{0, -1} {
			wf := func(layer, index int) cdag.Weight {
				if layer == at[0] && index == at[1] {
					return bad
				}
				return 16
			}
			_, err := topo.Graph(wf)
			w := make([]cdag.Weight, topo.g.Len())
			for i, l := range topo.layers {
				for j, v := range l {
					w[v] = wf(i+1, j+1)
				}
			}
			verr := topo.g.WithWeights(w).Validate()
			if err == nil || verr == nil || err.Error() != "dwt: "+verr.Error() {
				t.Fatalf("weight %d at %v: Graph error %v, Validate error %v", bad, at, err, verr)
			}
		}
	}
	if _, err := topo.Graph(equalWeights); err != nil {
		t.Fatal(err)
	}
}
