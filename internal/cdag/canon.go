// Structural canonicalization: relabel a graph so that its node order
// depends only on weights and edge structure, never on display names
// or the order a client happened to list the nodes in. The serving
// layer canonicalizes every family:"cdag" request before deriving its
// content-addressed cache key, so isomorphic resubmissions of the same
// dataflow — exported from different tools, with different node
// orderings — dedup onto one cache entry and one cluster-ring owner.

package cdag

import (
	"slices"
	"sort"
)

// canonMix is a 64-bit avalanche step shared by the refinement rounds
// (same constants as the memstate memo-key hash).
func canonMix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xD6E8FEB86659FD93
	return h ^ h>>32
}

// Canonical returns a relabeled copy of g plus the permutation
// perm[orig] = canonical ID. The relabeling is a Weisfeiler–Lehman
// style refinement: every node starts from a hash of its weight,
// degree signature and longest-path depth, then repeatedly absorbs the
// multiset of its parents' and children's hashes until the partition
// stops refining. Nodes are ordered by (depth, refined hash), which
// keeps parents before children, and the canonical graph stores parent
// lists sorted — so two isomorphic graphs yield byte-identical
// digests. Nodes the refinement cannot distinguish are automorphic in
// practice (or an astronomically unlikely 64-bit collision) and are
// interchangeable, so any tie order yields the same canonical content.
// g must be valid; Canonical panics on malformed parent IDs.
func Canonical(g *Graph) (*Graph, []NodeID) {
	n := g.Len()
	depth := make([]int, n)
	h := make([]uint64, n)
	for v := 0; v < n; v++ {
		d := 0
		for _, p := range g.parents[v] {
			if depth[p]+1 > d {
				d = depth[p] + 1
			}
		}
		depth[v] = d
		seed := canonMix(uint64(g.weights[v]))
		seed = canonMix(seed ^ uint64(len(g.parents[v]))<<32 ^ uint64(len(g.children[v])))
		h[v] = canonMix(seed ^ uint64(d)*0x165667B19E3779F9)
	}
	distinct := func() int {
		seen := make(map[uint64]struct{}, n)
		for _, x := range h {
			seen[x] = struct{}{}
		}
		return len(seen)
	}
	next := make([]uint64, n)
	for prev := distinct(); prev < n; {
		for v := 0; v < n; v++ {
			// Commutative (sum, xor) folds keep the neighbour multiset
			// hash independent of adjacency-list order.
			var psum, pxor, csum, cxor uint64
			for _, p := range g.parents[v] {
				q := canonMix(h[p])
				psum += q
				pxor ^= q
			}
			for _, c := range g.children[v] {
				q := canonMix(h[c] ^ 0xA5A5A5A55A5A5A5A)
				csum += q
				cxor ^= q
			}
			next[v] = canonMix((h[v] ^ canonMix(psum^cxor)) + canonMix(csum^pxor))
		}
		copy(h, next)
		cur := distinct()
		if cur <= prev {
			break // refinement converged (or collided); stop
		}
		prev = cur
	}
	order := make([]NodeID, n)
	for v := range order {
		order[v] = NodeID(v)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if depth[a] != depth[b] {
			return depth[a] < depth[b]
		}
		if h[a] != h[b] {
			return h[a] < h[b]
		}
		return a < b
	})
	perm := make([]NodeID, n)
	for rank, v := range order {
		perm[v] = NodeID(rank)
	}
	out := &Graph{}
	out.Reserve(n, g.EdgeCount())
	var ps []NodeID
	for _, v := range order {
		ps = ps[:0]
		for _, p := range g.parents[v] {
			ps = append(ps, perm[p])
		}
		slices.Sort(ps)
		out.AddNode(g.weights[v], g.Name(v), ps...)
	}
	return out, perm
}

// InversePerm returns the inverse of a permutation produced by
// Canonical: inv[canonical] = original. Serving layers use it to remap
// cached canonical-space move lists back into the requester's node
// numbering.
func InversePerm(perm []NodeID) []NodeID {
	inv := make([]NodeID, len(perm))
	for orig, canon := range perm {
		inv[canon] = NodeID(orig)
	}
	return inv
}
