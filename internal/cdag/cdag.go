// Package cdag provides node-weighted computational directed acyclic
// graphs (CDAGs), the substrate on which the weighted red-blue pebble
// game is played.
//
// A CDAG G = (V, E, w, B) has a positive integer weight per node
// (measured in bits in this repository) and a weighted red-pebble
// budget B. Nodes with in-degree zero are sources (inputs); nodes with
// out-degree zero are sinks (outputs). The package offers a builder,
// structural queries (sources, sinks, topological order, tree shape),
// validation, and the pruning transform used by the DWT scheduler.
package cdag

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// NodeID identifies a node within a single Graph. IDs are dense and
// assigned in insertion order starting from 0.
type NodeID int32

// None is the sentinel for "no node".
const None NodeID = -1

// Weight is a node weight or budget measured in bits.
type Weight = int64

// Graph is a node-weighted CDAG. The zero value is an empty graph
// ready for AddNode calls.
//
// Adjacency lives in two per-graph slabs, so that building a graph
// whose size was given to Reserve costs a constant number of
// allocations. parents[v] is a window into pslab holding exactly v's
// parents; children[v] starts as a window of two inline slots in
// cslab. Every window is private to its node, capped with a full slice
// expression (slab[o:e:e]) and never re-sliced upward, so an append
// past its capacity reallocates instead of overwriting a neighbour. A
// node that gains more children than its window holds moves them to a
// fresh window of twice the capacity, cut from cslab; a slab that
// fills up is replaced by a larger one. Neither copies the slab:
// windows already cut keep pointing into the old array, where they
// stay valid.
type Graph struct {
	weights  []Weight
	parents  [][]NodeID
	children [][]NodeID
	names    []string
	pslab    []NodeID
	cslab    []NodeID
	// namer, when set, derives every display name from the node ID in
	// place of the stored names (see SetNamer).
	namer func(NodeID) string
}

// childSlots is the number of inline child slots each node gets in
// the children slab; most dataflow nodes feed one or two consumers.
const childSlots = 2

// Reserve sizes the graph's storage for the given number of further
// nodes and edges, so that adding them allocates nothing more unless a
// node gains more than two children: its larger windows then come from
// a fresh children slab, twice the size of the last. Too small a
// reservation is safe: storage grows as it does without one.
func (g *Graph) Reserve(nodes, edges int) {
	g.weights = slices.Grow(g.weights, nodes)
	g.parents = slices.Grow(g.parents, nodes)
	g.children = slices.Grow(g.children, nodes)
	g.names = slices.Grow(g.names, nodes)
	if cap(g.pslab)-len(g.pslab) < edges {
		g.pslab = make([]NodeID, 0, edges)
	}
	if cap(g.cslab)-len(g.cslab) < childSlots*nodes {
		g.cslab = make([]NodeID, 0, childSlots*nodes)
	}
}

// carve cuts a private window of length n and capacity c ≥ n from the
// end of *slab, starting a fresh slab when the current one is too
// small. The old slab is not copied: windows already cut from it keep
// it alive.
func carve(slab *[]NodeID, n, c int) []NodeID {
	s := *slab
	if cap(s)-len(s) < c {
		s = make([]NodeID, 0, max(2*cap(s), c, 16))
	}
	o := len(s)
	*slab = s[:o+c]
	return s[o : o+n : o+c]
}

// SetNamer makes Name derive display names from node IDs with f
// instead of reading stored names; nil restores the stored names. A
// family builder that can recompute every name from its layout sets a
// namer and adds nodes with empty names, so it stores no strings.
func (g *Graph) SetNamer(f func(NodeID) string) { g.namer = f }

// ErrCycle is returned by Validate when the edge relation is cyclic.
var ErrCycle = errors.New("cdag: graph contains a cycle")

// AddNode appends a node with the given weight, display name and
// parent set, returning its ID. Parents must already exist; this keeps
// insertion order a valid topological order by construction. It panics
// on invalid input; use TryAddNode when weights or parent IDs come
// from untrusted input (flags, files).
func (g *Graph) AddNode(w Weight, name string, parents ...NodeID) NodeID {
	id, err := g.TryAddNode(w, name, parents...)
	if err != nil {
		panic(err.Error())
	}
	return id
}

// TryAddNode is AddNode returning an error instead of panicking on a
// non-positive weight or a parent that does not exist. On error the
// graph is unchanged.
func (g *Graph) TryAddNode(w Weight, name string, parents ...NodeID) (NodeID, error) {
	if w <= 0 {
		return None, fmt.Errorf("cdag: node weight must be positive, got %d", w)
	}
	id := NodeID(len(g.weights))
	for _, p := range parents {
		if p < 0 || p >= id {
			return None, fmt.Errorf("cdag: parent %d of node %d does not exist", p, id)
		}
	}
	g.weights = append(g.weights, w)
	ps := carve(&g.pslab, len(parents), len(parents))
	copy(ps, parents)
	g.parents = append(g.parents, ps)
	g.children = append(g.children, carve(&g.cslab, 0, childSlots))
	g.names = append(g.names, name)
	for _, p := range parents {
		cs := g.children[p]
		if len(cs) == cap(cs) {
			grown := carve(&g.cslab, len(cs), max(2*cap(cs), childSlots))
			copy(grown, cs)
			cs = grown
		}
		g.children[p] = append(cs, id)
	}
	return id, nil
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.weights) }

// Weight returns the weight of node v.
func (g *Graph) Weight(v NodeID) Weight { return g.weights[v] }

// SetWeight overwrites the weight of node v. Weights must stay
// positive; it panics otherwise — use TrySetWeight for untrusted
// input.
func (g *Graph) SetWeight(v NodeID, w Weight) {
	if err := g.TrySetWeight(v, w); err != nil {
		panic(err.Error())
	}
}

// TrySetWeight is SetWeight returning an error instead of panicking on
// a non-positive weight or an out-of-range node.
func (g *Graph) TrySetWeight(v NodeID, w Weight) error {
	if w <= 0 {
		return fmt.Errorf("cdag: node weight must be positive, got %d", w)
	}
	if v < 0 || int(v) >= len(g.weights) {
		return fmt.Errorf("cdag: node %d does not exist", v)
	}
	g.weights[v] = w
	return nil
}

// Name returns the display name of node v (may be empty): the namer's
// name when one is set, the stored name otherwise.
func (g *Graph) Name(v NodeID) string {
	if g.namer != nil {
		_ = g.weights[v] // same out-of-range panic as the stored path
		return g.namer(v)
	}
	return g.names[v]
}

// Parents returns the immediate predecessors H(v). The slice is owned
// by the graph and must not be mutated.
func (g *Graph) Parents(v NodeID) []NodeID { return g.parents[v] }

// Children returns the immediate successors of v. The slice is owned
// by the graph and must not be mutated.
func (g *Graph) Children(v NodeID) []NodeID { return g.children[v] }

// InDegree returns len(Parents(v)).
func (g *Graph) InDegree(v NodeID) int { return len(g.parents[v]) }

// OutDegree returns len(Children(v)).
func (g *Graph) OutDegree(v NodeID) int { return len(g.children[v]) }

// IsSource reports whether v has in-degree zero.
func (g *Graph) IsSource(v NodeID) bool { return len(g.parents[v]) == 0 }

// IsSink reports whether v has out-degree zero.
func (g *Graph) IsSink(v NodeID) bool { return len(g.children[v]) == 0 }

// Sources returns A(G), all nodes with in-degree zero, in ID order.
func (g *Graph) Sources() []NodeID {
	var out []NodeID
	for v := range g.weights {
		if len(g.parents[v]) == 0 {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// Sinks returns Z(G), all nodes with out-degree zero, in ID order.
func (g *Graph) Sinks() []NodeID {
	var out []NodeID
	for v := range g.weights {
		if len(g.children[v]) == 0 {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// SourceWeight returns the sum of weights over A(G).
func (g *Graph) SourceWeight() Weight {
	var s Weight
	for v := range g.weights {
		if len(g.parents[v]) == 0 {
			s += g.weights[v]
		}
	}
	return s
}

// SinkWeight returns the sum of weights over Z(G).
func (g *Graph) SinkWeight() Weight {
	var s Weight
	for v := range g.weights {
		if len(g.children[v]) == 0 {
			s += g.weights[v]
		}
	}
	return s
}

// TotalWeight returns the sum of all node weights.
func (g *Graph) TotalWeight() Weight {
	var s Weight
	for _, w := range g.weights {
		s += w
	}
	return s
}

// EdgeCount returns |E|.
func (g *Graph) EdgeCount() int {
	n := 0
	for _, ps := range g.parents {
		n += len(ps)
	}
	return n
}

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	for _, p := range g.parents[v] {
		if p == u {
			return true
		}
	}
	return false
}

// TopoOrder returns the nodes in a topological order. Because AddNode
// requires parents to pre-exist, insertion order is already
// topological; the method exists for clarity and for graphs
// reconstructed by other means.
func (g *Graph) TopoOrder() []NodeID {
	out := make([]NodeID, g.Len())
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

// Validate checks structural invariants: positive weights, acyclicity,
// edge endpoints in range, and disjoint sources/sinks (the WRBPG
// assumes A(G) ∩ Z(G) = ∅, i.e. no isolated nodes).
func (g *Graph) Validate() error {
	n := g.Len()
	if n == 0 {
		return errors.New("cdag: empty graph")
	}
	for v := 0; v < n; v++ {
		if g.weights[v] <= 0 {
			return fmt.Errorf("cdag: node %d has non-positive weight %d", v, g.weights[v])
		}
		for _, p := range g.parents[v] {
			if p < 0 || int(p) >= n {
				return fmt.Errorf("cdag: node %d has out-of-range parent %d", v, p)
			}
			if p >= NodeID(v) {
				// Parents must precede children in ID order; this
				// guarantees acyclicity for builder-created graphs.
				return fmt.Errorf("cdag: node %d has parent %d with ID >= child: %w", v, p, ErrCycle)
			}
		}
		if len(g.parents[v]) == 0 && len(g.children[v]) == 0 {
			return fmt.Errorf("cdag: node %d is isolated (source and sink)", v)
		}
	}
	return nil
}

// MaxComputePressure returns max over non-source v of
// w_v + Σ_{p∈H(v)} w_p — the smallest budget for which a valid WRBPG
// schedule exists (Proposition 2.3).
func (g *Graph) MaxComputePressure() Weight {
	var m Weight
	for v := 0; v < g.Len(); v++ {
		if len(g.parents[v]) == 0 {
			continue
		}
		s := g.weights[v]
		for _, p := range g.parents[v] {
			s += g.weights[p]
		}
		if s > m {
			m = s
		}
	}
	return m
}

// IsTree reports whether every node has out-degree at most one and
// exactly one sink exists — i.e. the graph is an in-tree rooted at the
// sink (Definition 3.6 with the root as unique sink).
func (g *Graph) IsTree() bool {
	sinks := 0
	for v := 0; v < g.Len(); v++ {
		switch g.OutDegree(NodeID(v)) {
		case 0:
			sinks++
		case 1:
		default:
			return false
		}
	}
	return sinks == 1
}

// MaxInDegree returns the largest in-degree in the graph (the k of a
// k-ary tree).
func (g *Graph) MaxInDegree() int {
	m := 0
	for _, ps := range g.parents {
		if len(ps) > m {
			m = len(ps)
		}
	}
	return m
}

// Descendants returns the set of nodes reachable from v (excluding v).
func (g *Graph) Descendants(v NodeID) map[NodeID]bool {
	seen := map[NodeID]bool{}
	stack := append([]NodeID(nil), g.children[v]...)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[u] {
			continue
		}
		seen[u] = true
		stack = append(stack, g.children[u]...)
	}
	return seen
}

// Ancestors returns pred(v): the set of nodes with a directed path to
// v (excluding v itself).
func (g *Graph) Ancestors(v NodeID) map[NodeID]bool {
	seen := map[NodeID]bool{}
	stack := append([]NodeID(nil), g.parents[v]...)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[u] {
			continue
		}
		seen[u] = true
		stack = append(stack, g.parents[u]...)
	}
	return seen
}

// Prune returns a copy of g with the given nodes (and their incident
// edges) removed, together with the mapping old ID → new ID (None for
// removed nodes). Removing a node that still has children in the kept
// set is allowed only if those children are removed too; otherwise
// Prune returns an error, since the result would not be a valid CDAG
// of the same computation.
func (g *Graph) Prune(remove map[NodeID]bool) (*Graph, []NodeID, error) {
	for v := range remove {
		for _, c := range g.children[v] {
			if !remove[c] {
				return nil, nil, fmt.Errorf("cdag: cannot prune node %d: kept child %d depends on it", v, c)
			}
		}
	}
	nodes, edges := 0, 0
	for v := 0; v < g.Len(); v++ {
		if !remove[NodeID(v)] {
			nodes++
			edges += len(g.parents[v])
		}
	}
	out := &Graph{}
	out.Reserve(nodes, edges)
	mapping := make([]NodeID, g.Len())
	var ps []NodeID
	for v := 0; v < g.Len(); v++ {
		id := NodeID(v)
		if remove[id] {
			mapping[v] = None
			continue
		}
		ps = ps[:0]
		for _, p := range g.parents[v] {
			ps = append(ps, mapping[p])
		}
		mapping[v] = out.AddNode(g.weights[v], g.Name(id), ps...)
	}
	return out, mapping, nil
}

// Clone returns a deep copy of g, with every name stored.
func (g *Graph) Clone() *Graph {
	out := &Graph{}
	out.Reserve(g.Len(), g.EdgeCount())
	for v := 0; v < g.Len(); v++ {
		out.AddNode(g.weights[v], g.Name(NodeID(v)), g.parents[v]...)
	}
	return out
}

// DOT renders the graph in Graphviz DOT syntax, for debugging and
// documentation.
func (g *Graph) DOT(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", title)
	for v := 0; v < g.Len(); v++ {
		label := g.Name(NodeID(v))
		if label == "" {
			label = fmt.Sprintf("v%d", v)
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s (w=%d)\"];\n", v, label, g.weights[v])
	}
	for v := 0; v < g.Len(); v++ {
		for _, c := range g.children[v] {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", v, c)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// SortedIDs returns the given set as a sorted slice, a convenience for
// deterministic iteration over node sets.
func SortedIDs(set map[NodeID]bool) []NodeID {
	out := make([]NodeID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
