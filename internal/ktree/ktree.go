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
	"math"
	"math/rand"
	"strconv"

	"wrbpg/internal/cdag"
)

// Inf is the sentinel cost of an infeasible subproblem.
const Inf cdag.Weight = math.MaxInt64 / 4

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

// FullTree builds a complete k-ary tree of the given height
// (height ≥ 1 edges from leaves to root) with weights produced by wf,
// which receives the depth (0 = root) and a per-depth index.
func FullTree(k, height int, wf func(depth, index int) cdag.Weight) (*Tree, error) {
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
		g.AddNode(wf(height, i), "")
	}
	var parents [MaxK]cdag.NodeID
	first := cdag.NodeID(0)
	for depth, size := height-1, leaves/k; depth >= 0; depth, size = depth-1, size/k {
		for i := 0; i < size; i++ {
			for j := range parents[:k] {
				parents[j] = first + cdag.NodeID(i*k+j)
			}
			g.AddNode(wf(depth, i), "", parents[:k]...)
		}
		first += cdag.NodeID(size * k)
	}
	g.SetNamer(func(v cdag.NodeID) string {
		if int(v) < leaves {
			return "leaf" + strconv.Itoa(int(v))
		}
		start, size, depth := leaves, leaves/k, height-1
		for int(v) >= start+size {
			start, size, depth = start+size, size/k, depth-1
		}
		return "n" + strconv.Itoa(depth) + "_" + strconv.Itoa(int(v)-start)
	})
	return New(g)
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
