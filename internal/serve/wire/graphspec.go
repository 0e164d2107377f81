// Raw CDAG submissions: the named node/edge wire form of a
// family:"cdag" request. Unlike cdag.Graph's interchange JSON (integer
// parent IDs in topological pre-order), a GraphSpec names nodes and
// edges symbolically and accepts them in any order — the compiler
// toposorts, so clients can emit their dataflow graphs however their
// own IR iterates. Malformed specs fail with errors naming the
// offending node or edge (duplicate name, non-positive weight,
// dangling dependency, cycle membership), which servers surface as
// structured 400s.

package wire

import (
	"fmt"
	"strings"

	"wrbpg/internal/cdag"
)

// GraphNode is one node of a raw CDAG submission.
type GraphNode struct {
	// Name is the node's unique identifier within the spec.
	Name string `json:"name"`
	// WeightBits is the node's positive weight in bits.
	WeightBits int64 `json:"weight_bits"`
	// Deps names the nodes this node consumes (its parents). Order is
	// irrelevant; duplicate entries are an error.
	Deps []string `json:"deps,omitempty"`
}

// GraphSpec is the raw node/edge form of an explicit CDAG. Nodes may
// appear in any order; the compiler establishes a topological order or
// reports the cycle that prevents one.
type GraphSpec struct {
	Nodes []GraphNode `json:"nodes"`
}

// Graph compiles the spec into a cdag.Graph, with node insertion in a
// deterministic topological order (Kahn's algorithm seeded and drained
// in input order, so the same spec always compiles to the same graph).
// Every validation failure names the offending node or edge.
func (s *GraphSpec) Graph() (*cdag.Graph, error) {
	n := len(s.Nodes)
	if n == 0 {
		return nil, fmt.Errorf("cdag spec has no nodes")
	}
	idx := make(map[string]int, n)
	edges := 0
	for i, nd := range s.Nodes {
		if nd.Name == "" {
			return nil, fmt.Errorf("cdag spec node %d has no name", i)
		}
		if prev, dup := idx[nd.Name]; dup {
			return nil, fmt.Errorf("cdag spec duplicates node name %q (indices %d and %d)", nd.Name, prev, i)
		}
		idx[nd.Name] = i
		edges += len(nd.Deps)
	}
	// The index arrays below share one allocation.
	ints := make([]int, 4*n+2+2*edges)
	take := func(k int) []int {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	// Resolve every dep once: deps[first[i]:first[i+1]] are node i's
	// parents as input indices. stamp[p] == i+1 marks p as already
	// listed by node i.
	first, deps, stamp := take(n+1), take(edges), take(n)
	for i, nd := range s.Nodes {
		first[i+1] = first[i] + len(nd.Deps)
	}
	for i, nd := range s.Nodes {
		if nd.WeightBits < 1 {
			return nil, fmt.Errorf("cdag spec node %q has non-positive weight %d bits", nd.Name, nd.WeightBits)
		}
		for j, d := range nd.Deps {
			p, ok := idx[d]
			if !ok {
				return nil, fmt.Errorf("cdag spec edge %q -> %q dangles: no node named %q", d, nd.Name, d)
			}
			if p == i {
				return nil, fmt.Errorf("cdag spec edge %q -> %q is a self-cycle", d, nd.Name)
			}
			if stamp[p] == i+1 {
				return nil, fmt.Errorf("cdag spec edge %q -> %q is listed twice", d, nd.Name)
			}
			stamp[p] = i + 1
			deps[first[i]+j] = p
		}
	}

	// Kahn's toposort over the dependency edges, input order as the
	// tiebreak so compilation is deterministic. The children of p are
	// children[cfirst[p]:cfirst[p+1]], in input order.
	indeg, cfirst, children, order := stamp, take(n+1), take(edges), take(n)[:0]
	// A counting sort: cfirst[p] first counts p's children, then marks
	// the end of p's range, and filling backwards leaves it at the start.
	for i := range s.Nodes {
		indeg[i] = first[i+1] - first[i]
		for _, p := range deps[first[i]:first[i+1]] {
			cfirst[p]++
		}
	}
	for p := 1; p <= n; p++ {
		cfirst[p] += cfirst[p-1]
	}
	for i := n - 1; i >= 0; i-- {
		for _, p := range deps[first[i]:first[i+1]] {
			cfirst[p]--
			children[cfirst[p]] = i
		}
	}
	// order doubles as the FIFO queue: nodes are output in the order
	// they become ready.
	for i := range s.Nodes {
		if indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for h := 0; h < len(order); h++ {
		v := order[h]
		for _, c := range children[cfirst[v]:cfirst[v+1]] {
			if indeg[c]--; indeg[c] == 0 {
				order = append(order, c)
			}
		}
	}
	if len(order) < n {
		return nil, fmt.Errorf("cdag spec contains a cycle: %s", s.describeCycle(indeg, idx))
	}

	g := &cdag.Graph{}
	g.Reserve(n, edges)
	ids := make([]cdag.NodeID, n)
	maxDeps := 0
	for i := range n {
		maxDeps = max(maxDeps, first[i+1]-first[i])
	}
	parents := make([]cdag.NodeID, 0, maxDeps)
	for _, i := range order {
		nd := s.Nodes[i]
		parents = parents[:0]
		for _, p := range deps[first[i]:first[i+1]] {
			parents = append(parents, ids[p])
		}
		id, err := g.TryAddNode(nd.WeightBits, nd.Name, parents...)
		if err != nil {
			return nil, fmt.Errorf("cdag spec node %q: %v", nd.Name, err)
		}
		ids[i] = id
	}
	return g, nil
}

// describeCycle names one dependency cycle among the nodes Kahn's
// algorithm could not drain (indeg > 0): walk unresolved deps from any
// stuck node until one repeats, then print the loop.
func (s *GraphSpec) describeCycle(indeg []int, idx map[string]int) string {
	start := -1
	for i, d := range indeg {
		if d > 0 {
			start = i
			break
		}
	}
	pos := make(map[int]int)
	var path []int
	for v := start; ; {
		if at, seen := pos[v]; seen {
			loop := path[at:]
			names := make([]string, 0, len(loop)+1)
			for _, u := range loop {
				names = append(names, fmt.Sprintf("%q", s.Nodes[u].Name))
			}
			names = append(names, fmt.Sprintf("%q", s.Nodes[loop[0]].Name))
			return strings.Join(names, " -> ")
		}
		pos[v] = len(path)
		path = append(path, v)
		for _, d := range s.Nodes[v].Deps {
			if p := idx[d]; indeg[p] > 0 {
				v = p
				break
			}
		}
	}
}
