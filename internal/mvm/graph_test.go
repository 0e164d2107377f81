package mvm

import (
	"fmt"
	"testing"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/wcfg"
)

func buildOrFatal(t *testing.T, m, n int, cfg wcfg.Config) *Graph {
	t.Helper()
	g, err := Build(m, n, cfg)
	if err != nil {
		t.Fatalf("Build(%d,%d): %v", m, n, err)
	}
	return g
}

func TestBuildRejectsBadParams(t *testing.T) {
	eq := wcfg.Equal(16)
	for _, c := range []struct{ m, n int }{{1, 2}, {0, 2}, {2, 0}, {-3, 4}} {
		if _, err := Build(c.m, c.n, eq); err == nil {
			t.Errorf("Build(%d,%d) should fail", c.m, c.n)
		}
	}
}

// TestMVM32Structure matches Figure 4a: MVM(3,2) has layers of size
// 8, 6, 3 and 18 edges.
func TestMVM32Structure(t *testing.T) {
	g := buildOrFatal(t, 3, 2, wcfg.Equal(16))
	sizes := g.LayerSizes()
	want := []int{8, 6, 3}
	if len(sizes) != len(want) {
		t.Fatalf("layer sizes = %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("layer sizes = %v, want %v", sizes, want)
		}
	}
	if got := g.G.Len(); got != 17 {
		t.Errorf("nodes = %d, want 17", got)
	}
	if got := g.G.EdgeCount(); got != 18 {
		t.Errorf("edges = %d, want 18", got)
	}
	// x_1 feeds the three column-1 products; a_{2,1} feeds p[2,1].
	for r := 1; r <= 3; r++ {
		if !g.G.HasEdge(g.X[0], g.Prod[r-1][0]) {
			t.Errorf("missing edge x1 → p[%d,1]", r)
		}
	}
	if !g.G.HasEdge(g.A[1][0], g.Prod[1][0]) {
		t.Error("missing edge a[2,1] → p[2,1]")
	}
	// Rule 2: column-1 products feed the accumulators.
	for r := 1; r <= 3; r++ {
		if !g.G.HasEdge(g.Prod[r-1][0], g.Acc[r-1][0]) {
			t.Errorf("missing edge p[%d,1] → s[%d,2]", r, r)
		}
		if !g.G.HasEdge(g.Prod[r-1][1], g.Acc[r-1][0]) {
			t.Errorf("missing edge p[%d,2] → s[%d,2]", r, r)
		}
	}
	// Outputs are the final accumulators.
	sinks := g.G.Sinks()
	if len(sinks) != 3 {
		t.Fatalf("sinks = %v", sinks)
	}
	for r := 1; r <= 3; r++ {
		if g.Output(r) != sinks[r-1] {
			t.Errorf("output %d mismatch", r)
		}
	}
}

// TestMVM23Structure matches Figure 4b: MVM(2,3) has layers
// 9, 6, 2, 2.
func TestMVM23Structure(t *testing.T) {
	g := buildOrFatal(t, 2, 3, wcfg.Equal(16))
	sizes := g.LayerSizes()
	want := []int{9, 6, 2, 2}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("layer sizes = %v, want %v", sizes, want)
		}
	}
	// Accumulator chain: s[r,2] → s[r,3].
	for r := 1; r <= 2; r++ {
		if !g.G.HasEdge(g.Acc[r-1][0], g.Acc[r-1][1]) {
			t.Errorf("missing chain edge for row %d", r)
		}
	}
}

func TestMVMN1ProductsAreOutputs(t *testing.T) {
	g := buildOrFatal(t, 3, 1, wcfg.Equal(16))
	if len(g.Acc) != 0 {
		t.Errorf("n=1 should have no accumulators")
	}
	sinks := g.G.Sinks()
	if len(sinks) != 3 {
		t.Fatalf("sinks = %v", sinks)
	}
	for r := 1; r <= 3; r++ {
		if g.Output(r) != g.Prod[r-1][0] {
			t.Errorf("output of row %d should be its product", r)
		}
	}
}

func TestLowerBoundAnchors(t *testing.T) {
	// Fig. 5 anchors: Equal MVM(96,120) LB = (96·120+120+96)·16.
	eq := buildOrFatal(t, 96, 120, wcfg.Equal(16))
	if lb := core.LowerBound(eq.G); lb != 187776 {
		t.Errorf("Equal LB = %d, want 187776", lb)
	}
	da := buildOrFatal(t, 96, 120, wcfg.DoubleAccumulator(16))
	if lb := core.LowerBound(da.G); lb != 189312 {
		t.Errorf("DA LB = %d, want 189312", lb)
	}
}

func TestHeadAndOutput(t *testing.T) {
	g := buildOrFatal(t, 2, 3, wcfg.Equal(16))
	if g.Head(1, 1) != g.Prod[0][0] {
		t.Error("Head(1,1) should be the first product")
	}
	if g.Head(1, 2) != g.Acc[0][0] || g.Head(1, 3) != g.Acc[0][1] {
		t.Error("Head chain broken")
	}
	if g.Output(1) != g.Acc[0][1] {
		t.Error("Output(1) should be the last accumulator")
	}
}

func TestWeightsByClass(t *testing.T) {
	g := buildOrFatal(t, 2, 2, wcfg.DoubleAccumulator(16))
	if w := g.G.Weight(g.X[0]); w != 16 {
		t.Errorf("vector weight = %d", w)
	}
	if w := g.G.Weight(g.A[0][0]); w != 16 {
		t.Errorf("matrix weight = %d", w)
	}
	if w := g.G.Weight(g.Prod[0][0]); w != 32 {
		t.Errorf("product weight = %d", w)
	}
	if w := g.G.Weight(g.Acc[0][0]); w != 32 {
		t.Errorf("accumulator weight = %d", w)
	}
}

func TestNodeCountLarge(t *testing.T) {
	g := buildOrFatal(t, 96, 120, wcfg.Equal(16))
	// mn+n inputs, mn products, m(n−1) accumulators.
	want := 96*120 + 120 + 96*120 + 96*119
	if g.G.Len() != want {
		t.Errorf("nodes = %d, want %d", g.G.Len(), want)
	}
}

// TestNamesMatchFormulas: the derived names equal the strings Build
// once stored per node, in insertion order x[c], a[r,c] column by
// column, then p[r,c] and s[r,c].
func TestNamesMatchFormulas(t *testing.T) {
	for _, s := range [][2]int{{2, 1}, {3, 5}, {5, 2}, {12, 16}, {16, 32}} {
		m, n := s[0], s[1]
		g := buildOrFatal(t, m, n, wcfg.Equal(16))
		var want []string
		for c := 1; c <= n; c++ {
			want = append(want, fmt.Sprintf("x[%d]", c))
			for r := 1; r <= m; r++ {
				want = append(want, fmt.Sprintf("a[%d,%d]", r, c))
			}
		}
		for c := 1; c <= n; c++ {
			for r := 1; r <= m; r++ {
				want = append(want, fmt.Sprintf("p[%d,%d]", r, c))
			}
		}
		for c := 2; c <= n; c++ {
			for r := 1; r <= m; r++ {
				want = append(want, fmt.Sprintf("s[%d,%d]", r, c))
			}
		}
		if g.G.Len() != len(want) {
			t.Fatalf("MVM(%d,%d): %d nodes, want %d", m, n, g.G.Len(), len(want))
		}
		for v, w := range want {
			if got := g.G.Name(cdag.NodeID(v)); got != w {
				t.Fatalf("MVM(%d,%d) node %d: name %q, want %q", m, n, v, got, w)
			}
		}
	}
}
