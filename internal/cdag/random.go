// Seeded random CDAG generation: the fixture source for the anytime
// scheduler's property tests, the cdag-check end-to-end gate, and the
// anytime time-to-match benchmark's roster. Determinism matters more than realism here — the
// same seed must describe the same graph in every process so the
// acceptance numbers are reproducible — but the shape is tuned to look
// like real dataflow: a few wide source layers, fan-in biased to
// recent values, and weights spanning a decade so the weighted budget
// constraint actually bites.

package cdag

import "math/rand"

// Random builds a pseudo-random valid CDAG with exactly n ≥ 2 nodes,
// deterministically from seed. Every non-source node draws 1–3
// parents among its predecessors (biased toward recent nodes, the
// locality of real dataflow), weights are uniform in [4, 48], and a
// final pass attaches any childless source to a later node so
// Validate's no-isolated-node invariant holds by construction.
func Random(seed int64, n int) *Graph {
	if n < 2 {
		n = 2
	}
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{}
	// A source prefix of roughly n/5 nodes (at least one) feeds the rest.
	sources := n/5 + 1
	if sources >= n {
		sources = n - 1
	}
	w := func() Weight { return Weight(4 + rng.Intn(45)) }
	for v := 0; v < sources; v++ {
		g.AddNode(w(), "")
	}
	for v := sources; v < n; v++ {
		k := 1 + rng.Intn(3)
		if k > v {
			k = v
		}
		seen := map[NodeID]bool{}
		parents := make([]NodeID, 0, k)
		for len(parents) < k {
			// Two draws, keep the larger: biases fan-in toward recently
			// added nodes, like the sliding live sets of real kernels.
			a, b := rng.Intn(v), rng.Intn(v)
			if b > a {
				a = b
			}
			p := NodeID(a)
			if !seen[p] {
				seen[p] = true
				parents = append(parents, p)
			}
		}
		g.AddNode(w(), "", parents...)
	}
	// Attach any isolated source to a random later node. The edge runs
	// low ID → high ID, so insertion order stays topological and the
	// node count stays exactly n.
	for v := 0; v < sources; v++ {
		if g.OutDegree(NodeID(v)) == 0 {
			u := NodeID(sources + rng.Intn(n-sources))
			g.parents[u] = append(g.parents[u], NodeID(v))
			g.children[v] = append(g.children[v], u)
		}
	}
	return g
}
