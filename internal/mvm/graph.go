// Package mvm builds the MVM(m, n) matrix-vector multiplication
// dataflow graphs of Definition 4.1 and implements the paper's tiling
// scheduler (Section 4.3), which composes minimal tile schedules under
// initial/reuse memory-state semantics into a schedule for the whole
// graph.
//
// Layer S_1 interleaves the inputs column by column — x_c followed by
// a_{1,c} … a_{m,c} — exactly as the definition's indexing demands.
// Layer S_2 holds the mn products a_{r,c}·x_c; layers S_3 … S_{n+1}
// hold the m running accumulators after each additional column. The
// outputs are the final accumulators (the products themselves when
// n = 1).
package mvm

import (
	"fmt"
	"strconv"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/wcfg"
)

// Graph is an MVM(m, n) CDAG plus its layout and weight classes.
type Graph struct {
	// G is the underlying node-weighted CDAG.
	G *cdag.Graph
	// M is the number of matrix rows (outputs), N the number of
	// columns (vector length).
	M, N int
	// Cfg records the weight configuration the graph was built with.
	Cfg wcfg.Config
	// X[c-1] is the vector input x_c.
	X []cdag.NodeID
	// A[r-1][c-1] is the matrix input a_{r,c}.
	A [][]cdag.NodeID
	// Prod[r-1][c-1] is the product a_{r,c}·x_c (layer S_2).
	Prod [][]cdag.NodeID
	// Acc[r-1][c-2] is the accumulator of row r after column c ≥ 2
	// (layer S_{c+1}).
	Acc [][]cdag.NodeID
	// lb caches core.LowerBound(G), which is a full-graph scan; the
	// graph is immutable after Build and Search's candidate loop hits
	// PredictCost once or twice per height.
	lb cdag.Weight
	// cand caches the candidate tile heights (see Candidates): they
	// depend only on M, so NewTopology computes them once for every
	// Graph of the shape and Search's hot path reads them without
	// allocating.
	cand []int
}

// Topology is MVM(m, n) without its weights: the nodes, edges,
// display names, row tables and candidate tile heights, which depend
// on m and n alone. It is immutable, so any number of Graphs in any
// goroutines may share one; Graph fills in one weight configuration.
type Topology struct {
	// g holds the adjacency every Graph shares. Its weights are
	// placeholders, and it is never handed out.
	g *cdag.Graph
	// m is the number of matrix rows, n the number of columns.
	m, n int
	// x, a, prod and acc are the node tables every Graph shares (see
	// the Graph fields X, A, Prod and Acc).
	x            []cdag.NodeID
	a, prod, acc [][]cdag.NodeID
	// cand holds the candidate tile heights, which depend only on m.
	cand []int
}

// Build constructs MVM(m, n) with class weights from cfg. m ≥ 2 and
// n ≥ 1 per Definition 4.1. It is NewTopology followed by Graph.
func Build(m, n int, cfg wcfg.Config) (*Graph, error) {
	t, err := NewTopology(m, n)
	if err != nil {
		return nil, err
	}
	return t.Graph(cfg)
}

// NewTopology constructs the nodes, edges and row tables of MVM(m, n).
// m ≥ 2 and n ≥ 1 per Definition 4.1.
func NewTopology(m, n int) (*Topology, error) {
	if m < 2 {
		return nil, fmt.Errorf("mvm: m=%d must be ≥ 2", m)
	}
	if n < 1 {
		return nil, fmt.Errorf("mvm: n=%d must be ≥ 1", n)
	}
	// n inputs x_c, mn matrix entries, mn products with two parents
	// each and m(n−1) accumulators with two parents each. Each row
	// table is cut from one backing array.
	g := &cdag.Graph{}
	g.Reserve(n+3*m*n-m, 4*m*n-2*m)
	t := &Topology{g: g, m: m, n: n, x: make([]cdag.NodeID, n), a: rows(m, n), prod: rows(m, n)}
	if n > 1 {
		t.acc = rows(m, n-1)
	}
	head := func(r, c int) cdag.NodeID {
		if c == 1 {
			return t.prod[r-1][0]
		}
		return t.acc[r-1][c-2]
	}

	// S_1: for each column c, x_c then a_{1,c} … a_{m,c} — this is
	// exactly the j = (c−1)(m+1)+1 … c(m+1) indexing of rule (1).
	for c := 1; c <= n; c++ {
		t.x[c-1] = g.AddNode(1, "")
		for r := 1; r <= m; r++ {
			t.a[r-1][c-1] = g.AddNode(1, "")
		}
	}
	// S_2: products v²_{(c−1)m+r} with parents {x_c, a_{r,c}}.
	for c := 1; c <= n; c++ {
		for r := 1; r <= m; r++ {
			t.prod[r-1][c-1] = g.AddNode(1, "", t.x[c-1], t.a[r-1][c-1])
		}
	}
	// S_3 … S_{n+1}: accumulators. Rule (2) supplies the edge from the
	// previous partial sum, rule (3) the edge from the column product.
	for c := 2; c <= n; c++ {
		for r := 1; r <= m; r++ {
			t.acc[r-1][c-2] = g.AddNode(1, "", head(r, c-1), t.prod[r-1][c-1])
		}
	}
	g.SetNamer(t.name)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("mvm: internal construction error: %w", err)
	}
	t.cand = candidates(m)
	return t, nil
}

// Graph returns MVM(m, n) with the input weight of cfg on x and A and
// its node weight on the products and accumulators. The graph shares
// t's adjacency, names and tables and owns its weights and its cached
// lower bound; its namer keeps t reachable for as long as it lives.
// NewTopology validated the shared adjacency, so only the weights are
// checked here.
func (t *Topology) Graph(cfg wcfg.Config) (*Graph, error) {
	w := make([]cdag.Weight, t.g.Len())
	// The inputs take the first n(m+1) IDs (NewTopology's S_1).
	inputs := t.n * (t.m + 1)
	wi, wn := cfg.Input(), cfg.Node()
	for v := range w {
		if v < inputs {
			w[v] = wi
		} else {
			w[v] = wn
		}
	}
	g := t.g.WithWeights(w)
	if err := g.ValidateWeights(); err != nil {
		return nil, fmt.Errorf("mvm: %w", err)
	}
	return &Graph{G: g, M: t.m, N: t.n, Cfg: cfg, X: t.x, A: t.a, Prod: t.prod, Acc: t.acc,
		lb: core.LowerBound(g), cand: t.cand}, nil
}

// rows returns an m×n table of node IDs cut from one backing array.
func rows(m, n int) [][]cdag.NodeID {
	flat := make([]cdag.NodeID, m*n)
	out := make([][]cdag.NodeID, m)
	for r := range out {
		out[r], flat = flat[:n:n], flat[n:]
	}
	return out
}

// name derives a node's display name from its ID, following
// NewTopology's insertion order: x[c] and a[r,c] interleaved by
// column, then the products p[r,c] and the accumulators s[r,c], each
// column by column.
func (t *Topology) name(v cdag.NodeID) string {
	i, m := int(v), t.m
	rc := func(kind string, r, c int) string {
		return kind + "[" + strconv.Itoa(r) + "," + strconv.Itoa(c) + "]"
	}
	inputs, prods := t.n*(m+1), t.n*m
	switch {
	case i < inputs:
		c, r := i/(m+1)+1, i%(m+1)
		if r == 0 {
			return "x[" + strconv.Itoa(c) + "]"
		}
		return rc("a", r, c)
	case i < inputs+prods:
		i -= inputs
		return rc("p", i%m+1, i/m+1)
	default:
		i -= inputs + prods
		return rc("s", i%m+1, i/m+2)
	}
}

// Head returns the node holding row r's partial sum after column c
// (both 1-based): the product for c = 1, the accumulator otherwise.
func (g *Graph) Head(r, c int) cdag.NodeID {
	if c == 1 {
		return g.Prod[r-1][0]
	}
	return g.Acc[r-1][c-2]
}

// Output returns the sink node of row r: y_r = Head(r, n).
func (g *Graph) Output(r int) cdag.NodeID { return g.Head(r, g.N) }

// Outputs returns all m sink nodes in row order.
func (g *Graph) Outputs() []cdag.NodeID {
	out := make([]cdag.NodeID, g.M)
	for r := 1; r <= g.M; r++ {
		out[r-1] = g.Output(r)
	}
	return out
}

// LayerSizes returns |S_1| … |S_{n+1}| for cross-checking against
// Definition 4.1.
func (g *Graph) LayerSizes() []int {
	sizes := []int{g.M*g.N + g.N, g.M * g.N}
	for c := 2; c <= g.N; c++ {
		sizes = append(sizes, g.M)
	}
	return sizes
}
