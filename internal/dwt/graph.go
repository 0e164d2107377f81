// Package dwt builds the DWT(n, d) dataflow graphs of Definition 3.1
// — the Haar discrete wavelet transform as a CDAG — and implements the
// paper's optimum WRBPG scheduler for them (Algorithm 1,
// Theorem 3.5), together with the pruning transform of Lemma 3.2 and
// the minimum fast memory search of Definition 2.6.
//
// Layer S_1 holds the n input samples; layer S_i (i ≥ 2) holds the
// level-(i−1) averages at odd indices and coefficients at even
// indices. Every even-index node in layers above S_1 is a sink
// (coefficient output); the odd-index nodes of the final layer S_{d+1}
// are the final averages, also sinks.
package dwt

import (
	"fmt"
	"strconv"

	"wrbpg/internal/cdag"
	"wrbpg/internal/wcfg"
)

// WeightFunc assigns a weight (in bits) to the node at 1-based
// (layer, index); layer 1 nodes are inputs.
type WeightFunc func(layer, index int) cdag.Weight

// ConfigWeights adapts a wcfg.Config to a WeightFunc.
func ConfigWeights(c wcfg.Config) WeightFunc {
	return func(layer, index int) cdag.Weight {
		if layer == 1 {
			return c.Input()
		}
		return c.Node()
	}
}

// Graph is a DWT(n, d) CDAG plus its layer layout.
type Graph struct {
	// G is the underlying node-weighted CDAG.
	G *cdag.Graph
	// N is the number of input samples, D the transform level.
	N, D int
	// Layers[i-1] lists the node IDs of layer S_i in index order, so
	// Layers[i-1][j-1] is v^i_j in the paper's notation.
	Layers [][]cdag.NodeID
}

// Topology is DWT(n, d) without its weights: the nodes, edges,
// display names and layer table, which depend on n and d alone. It is
// immutable, so any number of Graphs in any goroutines may share one;
// Graph fills in one weighting.
type Topology struct {
	// g holds the adjacency every Graph shares. Its weights are
	// placeholders, and it is never handed out.
	g *cdag.Graph
	// n is the number of input samples, d the transform level.
	n, d int
	// layers is the layer table every Graph shares (see Graph.Layers).
	layers [][]cdag.NodeID
}

// Build constructs DWT(n, d) per Definition 3.1. n must be a positive
// multiple of 2^d and d ≥ 1. It is NewTopology followed by Graph.
func Build(n, d int, wf WeightFunc) (*Graph, error) {
	t, err := NewTopology(n, d)
	if err != nil {
		return nil, err
	}
	return t.Graph(wf)
}

// NewTopology constructs the nodes, edges and layers of DWT(n, d) per
// Definition 3.1. n must be a positive multiple of 2^d and d ≥ 1.
func NewTopology(n, d int) (*Topology, error) {
	if d < 1 {
		return nil, fmt.Errorf("dwt: level d must be ≥ 1, got %d", d)
	}
	if d > 30 {
		return nil, fmt.Errorf("dwt: level d=%d too large", d)
	}
	p := 1 << uint(d)
	if n <= 0 || n%p != 0 {
		return nil, fmt.Errorf("dwt: n=%d must be a positive multiple of 2^d=%d", n, p)
	}
	// |S_1| = |S_2| = n, then halving up to S_{d+1}: 3n − n/2^(d−1)
	// nodes, each non-input with two parents. The layer tables are cut
	// from one backing array.
	total := 3*n - n>>uint(d-1)
	g := &cdag.Graph{}
	g.Reserve(total, 2*(total-n))
	flat := make([]cdag.NodeID, total)
	layers := make([][]cdag.NodeID, d+1)
	for i, sz := 0, n; i <= d; i++ {
		layers[i], flat = flat[:sz:sz], flat[sz:]
		if i > 0 {
			sz /= 2
		}
	}

	// S_1: inputs.
	for j := 1; j <= n; j++ {
		layers[0][j-1] = g.AddNode(1, "")
	}
	// S_2: n nodes; v²_j (j odd) = average of inputs (j, j+1),
	// v²_j (j even) = coefficient of inputs (j−1, j).
	for j := 1; j <= n; j++ {
		var p1, p2 cdag.NodeID
		if j%2 == 1 {
			p1, p2 = layers[0][j-1], layers[0][j]
		} else {
			p1, p2 = layers[0][j-2], layers[0][j-1]
		}
		layers[1][j-1] = g.AddNode(1, "", p1, p2)
	}
	// S_{i+1} for 2 ≤ i ≤ d: |S_{i+1}| = |S_i|/2. Parents of v^{i+1}_J:
	// J odd → {v^i_{2J−1}, v^i_{2J+1}}; J even → {v^i_{2J−3}, v^i_{2J−1}}.
	// (These are the averages of layer i, which sit at odd indices.)
	for i := 2; i <= d; i++ {
		sz := len(layers[i-1]) / 2
		for J := 1; J <= sz; J++ {
			var a, b int
			if J%2 == 1 {
				a, b = 2*J-1, 2*J+1
			} else {
				a, b = 2*J-3, 2*J-1
			}
			p1 := layers[i-1][a-1]
			p2 := layers[i-1][b-1]
			layers[i][J-1] = g.AddNode(1, "", p1, p2)
		}
	}
	t := &Topology{g: g, n: n, d: d, layers: layers}
	g.SetNamer(t.name)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("dwt: internal construction error: %w", err)
	}
	return t, nil
}

// Graph returns DWT(n, d) with weight wf(i, j) on v^i_j. The graph
// shares t's adjacency, names and layer table and owns only its
// weights, so SetWeight and the schedulers' SetWeights change it
// alone; its namer keeps t reachable for as long as it lives.
// NewTopology validated the shared adjacency, so only the weights are
// checked here.
func (t *Topology) Graph(wf WeightFunc) (*Graph, error) {
	w := make([]cdag.Weight, t.g.Len())
	for i, l := range t.layers {
		for j, v := range l {
			w[v] = wf(i+1, j+1)
		}
	}
	g := t.g.WithWeights(w)
	if err := g.ValidateWeights(); err != nil {
		return nil, fmt.Errorf("dwt: %w", err)
	}
	return &Graph{G: g, N: t.n, D: t.d, Layers: t.layers}, nil
}

// name derives a node's display name from its (layer, index): x[j]
// for inputs, a<level>[j] for averages and c<level>[j] for
// coefficients.
func (t *Topology) name(v cdag.NodeID) string {
	layer, j, _ := locate(t.layers, v)
	if layer == 1 {
		return "x[" + strconv.Itoa(j) + "]"
	}
	kind := "a"
	if j%2 == 0 {
		kind = "c"
	}
	return kind + strconv.Itoa(layer-1) + "[" + strconv.Itoa(j) + "]"
}

// NodeAt returns v^layer_j (1-based layer and index).
func (d *Graph) NodeAt(layer, j int) cdag.NodeID { return d.Layers[layer-1][j-1] }

// Roots returns the odd-index nodes of the final layer S_{d+1}: the
// roots of the independent binary trees of the pruned graph, in index
// order. PebbleDWT (Algorithm 1) iterates over exactly these.
func (d *Graph) Roots() []cdag.NodeID {
	last := d.Layers[d.D]
	out := make([]cdag.NodeID, 0, (len(last)+1)/2)
	for j := 1; j <= len(last); j += 2 {
		out = append(out, last[j-1])
	}
	return out
}

// Sibling returns the pruned sibling u = v^i_{j+1} of an odd-index
// non-input node v = v^i_j — the coefficient sharing v's parents — or
// cdag.None for inputs and even-index nodes.
func (d *Graph) Sibling(v cdag.NodeID) cdag.NodeID {
	layer, j, ok := d.locate(v)
	if !ok || layer == 1 || j%2 == 0 {
		return cdag.None
	}
	return d.Layers[layer-1][j]
}

// locate returns the (layer, index) of a node, both 1-based.
func (d *Graph) locate(v cdag.NodeID) (layer, index int, ok bool) {
	return locate(d.Layers, v)
}

// locate returns the (layer, index) of a node in a layer table, both
// 1-based.
func locate(layers [][]cdag.NodeID, v cdag.NodeID) (layer, index int, ok bool) {
	// Node IDs are assigned layer by layer in index order, so locate
	// can binary-search by first-ID per layer; layers are small enough
	// that a linear scan over layers suffices.
	for i, l := range layers {
		if len(l) == 0 {
			continue
		}
		first, last := l[0], l[len(l)-1]
		if v >= first && v <= last {
			return i + 1, int(v-first) + 1, true
		}
	}
	return 0, 0, false
}

// Layer returns the 1-based layer of node v.
func (d *Graph) Layer(v cdag.NodeID) int {
	layer, _, _ := d.locate(v)
	return layer
}

// Index returns the 1-based index of node v within its layer.
func (d *Graph) Index(v cdag.NodeID) int {
	_, j, _ := d.locate(v)
	return j
}

// PrunedNodes returns the node set removed by Lemma 3.2: every
// even-index node in layers i > 1 (all coefficient outputs).
func (d *Graph) PrunedNodes() map[cdag.NodeID]bool {
	out := map[cdag.NodeID]bool{}
	for i := 2; i <= d.D+1; i++ {
		l := d.Layers[i-1]
		for j := 2; j <= len(l); j += 2 {
			out[l[j-1]] = true
		}
	}
	return out
}

// Prune returns the pruned graph G′ of Lemma 3.2 — the disjoint
// union of binary trees obtained by deleting all even-index nodes in
// layers above S_1 — plus the old→new ID mapping.
func (d *Graph) Prune() (*cdag.Graph, []cdag.NodeID, error) {
	return d.G.Prune(d.PrunedNodes())
}

// CheckWeightAssumption verifies the hypothesis of Lemma 3.2: for
// every layer i > 1, even-index (coefficient) weights do not exceed
// odd-index (average) sibling weights. The optimum scheduler requires
// it; Equal and Double Accumulator configurations satisfy it.
func (d *Graph) CheckWeightAssumption() error {
	for i := 2; i <= d.D+1; i++ {
		l := d.Layers[i-1]
		for j := 1; j+1 <= len(l); j += 2 {
			wv := d.G.Weight(l[j-1])
			wu := d.G.Weight(l[j])
			if wu > wv {
				return fmt.Errorf("dwt: weight assumption violated at layer %d pair (%d,%d): coefficient weight %d > average weight %d", i, j, j+1, wu, wv)
			}
		}
	}
	return nil
}

// MaxLevel returns the largest admissible d for a given n: the number
// of times 2 divides n (the d* of Figure 6).
func MaxLevel(n int) int {
	d := 0
	for n > 0 && n%2 == 0 {
		n /= 2
		d++
	}
	return d
}
