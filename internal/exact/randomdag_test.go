package exact

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wrbpg/internal/baseline"
	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
)

// randomDAG builds a small random CDAG (not necessarily a tree):
// a couple of sources, then nodes with 1–2 random earlier parents,
// random weights in [1, maxW].
func randomDAG(rng *rand.Rand, extra int, maxW int64) *cdag.Graph {
	g := &cdag.Graph{}
	g.AddNode(cdag.Weight(1+rng.Int63n(maxW)), "s0")
	g.AddNode(cdag.Weight(1+rng.Int63n(maxW)), "s1")
	for i := 0; i < extra; i++ {
		n := g.Len()
		p1 := cdag.NodeID(rng.Intn(n))
		if rng.Intn(2) == 0 {
			p2 := cdag.NodeID(rng.Intn(n))
			if p2 != p1 {
				g.AddNode(cdag.Weight(1+rng.Int63n(maxW)), "n", p1, p2)
				continue
			}
		}
		g.AddNode(cdag.Weight(1+rng.Int63n(maxW)), "n", p1)
	}
	return g
}

// TestGreedyNeverBeatsExactOnRandomDAGs: the constructive scheduler
// of Proposition 2.3 is an upper bound on the true optimum for
// arbitrary CDAGs — including graphs with reuse, which neither the
// tree DPs nor the tiling schedulers cover.
func TestGreedyNeverBeatsExactOnRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 3+rng.Intn(4), 2)
		if g.Validate() != nil {
			return true // isolated node; skip
		}
		b := core.MinExistenceBudget(g) + cdag.Weight(rng.Intn(4))
		res, err := Solve(g, b)
		if err != nil {
			return true
		}
		sched, err := baseline.Greedy(g, b)
		if err != nil {
			t.Logf("seed %d: greedy failed where exact succeeded: %v", seed, err)
			return false
		}
		stats, err := core.Simulate(g, b, sched)
		if err != nil {
			return false
		}
		if stats.Cost < res.Cost {
			t.Logf("seed %d: greedy %d beat exact %d", seed, stats.Cost, res.Cost)
			return false
		}
		return res.Cost >= core.LowerBound(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestExactMonotoneOnRandomDAGs: the true optimum never increases
// with budget.
func TestExactMonotoneOnRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 3+rng.Intn(3), 2)
		if g.Validate() != nil {
			return true
		}
		b := core.MinExistenceBudget(g)
		prev, err := Solve(g, b)
		if err != nil {
			return true
		}
		for step := 1; step <= 3; step++ {
			cur, err := Solve(g, b+cdag.Weight(step))
			if err != nil {
				return false
			}
			if cur.Cost > prev.Cost {
				t.Logf("seed %d: cost rose from %d to %d", seed, prev.Cost, cur.Cost)
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
