// Package ktree implements the k-ary tree graphs of Definition 3.6
// and the optimal WRBPG scheduler of Lemma 3.7 / Theorem 3.8.
//
// A k-ary tree graph is an in-tree: a rooted tree whose unique sink r
// is the root and whose edges are directed from parents toward r,
// with in-degree bounded by k. The minimum weighted schedule cost of
// the root is w_r + Pt(r, B), where Pt (Eq. 6) minimizes over every
// permutation of a node's parents and every keep-or-spill decision
// vector δ ∈ {0,1}^k: parents with δ=1 keep their red pebbles (which
// reduces the budget available to later parents), parents with δ=0
// are written to slow memory and re-read before the node is computed
// (costing 2·w extra).
//
// The enumeration is 2^k·k! per node, so schedule generation is
// polynomial only for k = O(log log n) (Theorem 3.8); the
// constructors enforce a practical bound.
package ktree

import (
	"fmt"
	"math/rand"
	"strconv"

	"wrbpg/internal/cdag"
	"wrbpg/internal/stepmemo"
)

// Inf is the sentinel cost of an infeasible subproblem.
const Inf = stepmemo.Inf

// MaxK bounds the in-degree accepted by the scheduler; 2^k·k! grows
// so fast that k beyond 8 is never practical.
const MaxK = 8

// Tree wraps a cdag.Graph known to be an in-tree with a unique root.
type Tree struct {
	// G is the underlying node-weighted CDAG.
	G *cdag.Graph
	// Root is the unique sink.
	Root cdag.NodeID
	// K is the maximum in-degree.
	K int
}

// New validates that g is an in-tree with in-degree at most MaxK and
// wraps it.
func New(g *cdag.Graph) (*Tree, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if !g.IsTree() {
		return nil, fmt.Errorf("ktree: graph is not an in-tree (every out-degree ≤ 1, one sink)")
	}
	k := g.MaxInDegree()
	if k > MaxK {
		return nil, fmt.Errorf("ktree: in-degree %d exceeds supported bound %d", k, MaxK)
	}
	sinks := g.Sinks()
	return &Tree{G: g, Root: sinks[0], K: k}, nil
}

// Topology is a complete k-ary tree of a given height without its
// weights: the nodes, edges and display names, which depend on k and
// the height alone. It is immutable, so any number of Trees in any
// goroutines may share one; Tree fills in one weighting.
type Topology struct {
	// g holds the adjacency every Tree shares. Its weights are
	// placeholders, and it is never handed out.
	g *cdag.Graph
	// k is the arity, height the number of edges from a leaf to the
	// root, and leaves = k^height the number of leaves, which take the
	// first IDs.
	k, height, leaves int
}

// FullTree builds a complete k-ary tree of the given height
// (height ≥ 1 edges from leaves to root) with weights produced by wf,
// which receives the depth (0 = root) and a per-depth index. It is
// NewTopology followed by Tree.
func FullTree(k, height int, wf func(depth, index int) cdag.Weight) (*Tree, error) {
	t, err := NewTopology(k, height)
	if err != nil {
		return nil, err
	}
	return t.Tree(wf)
}

// NewTopology constructs the nodes and edges of a complete k-ary tree
// of the given height (height ≥ 1).
func NewTopology(k, height int) (*Topology, error) {
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("ktree: k=%d out of range [1,%d]", k, MaxK)
	}
	if height < 1 {
		return nil, fmt.Errorf("ktree: height must be ≥ 1, got %d", height)
	}
	// Build bottom-up: the leaves are at depth == height. Each level's
	// IDs are contiguous, so node i of a level consumes the k
	// consecutive IDs starting at first+i·k of the level below.
	leaves, total := 1, 1
	for i := 0; i < height; i++ {
		leaves *= k
		total += leaves
	}
	g := &cdag.Graph{}
	g.Reserve(total, total-1)
	for i := 0; i < leaves; i++ {
		g.AddNode(1, "")
	}
	var parents [MaxK]cdag.NodeID
	first := cdag.NodeID(0)
	for depth, size := height-1, leaves/k; depth >= 0; depth, size = depth-1, size/k {
		for i := 0; i < size; i++ {
			for j := range parents[:k] {
				parents[j] = first + cdag.NodeID(i*k+j)
			}
			g.AddNode(1, "", parents[:k]...)
		}
		first += cdag.NodeID(size * k)
	}
	t := &Topology{g: g, k: k, height: height, leaves: leaves}
	g.SetNamer(t.name)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("ktree: internal construction error: %w", err)
	}
	return t, nil
}

// name derives a node's display name from its ID: leaf<i> for the
// leaves, n<depth>_<i> for the i-th node at an inner depth.
func (t *Topology) name(v cdag.NodeID) string {
	if int(v) < t.leaves {
		return "leaf" + strconv.Itoa(int(v))
	}
	start, size, depth := t.leaves, t.leaves/t.k, t.height-1
	for int(v) >= start+size {
		start, size, depth = start+size, size/t.k, depth-1
	}
	return "n" + strconv.Itoa(depth) + "_" + strconv.Itoa(int(v)-start)
}

// Tree returns the tree with weight wf(depth, index) on each node,
// depth 0 being the root and index counting from 0 within a depth. The
// tree shares t's adjacency and names and owns only its weights, so
// SetWeight and the scheduler's SetWeights change it alone; its namer
// keeps t reachable for as long as it lives. NewTopology built and
// validated an in-tree of in-degree k whose root is the last ID, so
// only the weights are checked here; the Tree is the one New would
// return.
func (t *Topology) Tree(wf func(depth, index int) cdag.Weight) (*Tree, error) {
	w := make([]cdag.Weight, t.g.Len())
	// IDs run level by level from the leaves up, as NewTopology adds
	// them; the root is the last.
	v, size := len(w), 1
	for depth := 0; depth <= t.height; depth++ {
		v -= size
		for i := range size {
			w[v+i] = wf(depth, i)
		}
		size *= t.k
	}
	g := t.g.WithWeights(w)
	if err := g.ValidateWeights(); err != nil {
		return nil, err
	}
	return &Tree{G: g, Root: cdag.NodeID(len(w) - 1), K: t.k}, nil
}

// Random builds a random in-tree with the given number of internal
// nodes, in-degrees drawn from [1,k] and weights from [1,maxW]; used
// by property tests.
func Random(rng *rand.Rand, internal, k int, maxW cdag.Weight) (*Tree, error) {
	if k < 1 || k > MaxK || internal < 1 {
		return nil, fmt.Errorf("ktree: bad parameters internal=%d k=%d", internal, k)
	}
	g := &cdag.Graph{}
	w := func() cdag.Weight { return 1 + cdag.Weight(rng.Int63n(int64(maxW))) }
	// Maintain a frontier of roots of already-built subtrees; each new
	// internal node consumes 1..k of them (creating fresh leaves when
	// it wants more parents than available).
	var frontier []cdag.NodeID
	for i := 0; i < internal; i++ {
		deg := 1 + rng.Intn(k)
		var parents []cdag.NodeID
		for d := 0; d < deg; d++ {
			if len(frontier) > 0 && rng.Intn(2) == 0 {
				j := rng.Intn(len(frontier))
				parents = append(parents, frontier[j])
				frontier = append(frontier[:j], frontier[j+1:]...)
			} else {
				parents = append(parents, g.AddNode(w(), "l"+strconv.Itoa(i)+"_"+strconv.Itoa(d)))
			}
		}
		frontier = append(frontier, g.AddNode(w(), "i"+strconv.Itoa(i), parents...))
	}
	// Chain any remaining frontier roots into a single root.
	for len(frontier) > 1 {
		take := 2
		if take > len(frontier) {
			take = len(frontier)
		}
		node := g.AddNode(w(), "join", frontier[:take]...)
		frontier = append(frontier[take:], node)
	}
	return New(g)
}

// Chain builds a 1-ary tree (a path) of the given length from leaf to
// root; the degenerate k=1 case exercised by tests.
func Chain(length int, wf func(i int) cdag.Weight) (*Tree, error) {
	if length < 2 {
		return nil, fmt.Errorf("ktree: chain length must be ≥ 2")
	}
	g := &cdag.Graph{}
	prev := g.AddNode(wf(0), "leaf")
	for i := 1; i < length; i++ {
		prev = g.AddNode(wf(i), "n"+strconv.Itoa(i), prev)
	}
	return New(g)
}

// Star builds a k-leaf, single-internal-node tree: the root directly
// consumes k leaves. Its optimal cost has the closed form
// Σ leaf weights + w_root (all loads plus the final store), reachable
// whenever B ≥ w_root + Σ leaf weights.
func Star(k int, leafW, rootW cdag.Weight) (*Tree, error) {
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("ktree: k=%d out of range", k)
	}
	g := &cdag.Graph{}
	var parents []cdag.NodeID
	for i := 0; i < k; i++ {
		parents = append(parents, g.AddNode(leafW, "leaf"+strconv.Itoa(i)))
	}
	g.AddNode(rootW, "root", parents...)
	return New(g)
}
