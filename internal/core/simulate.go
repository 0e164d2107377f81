package core

import (
	"fmt"

	"wrbpg/internal/cdag"
)

// Stats summarises a simulated schedule.
type Stats struct {
	// Cost is the weighted schedule cost (Definition 2.2): the sum of
	// node weights over all M1 and M2 moves.
	Cost cdag.Weight
	// InputCost is the M1 share of Cost; OutputCost the M2 share.
	InputCost  cdag.Weight
	OutputCost cdag.Weight
	// PeakRedWeight is the largest total red weight observed after any
	// move — the fast memory capacity the schedule actually needs.
	PeakRedWeight cdag.Weight
	// Moves counts moves by kind (indices M1..M4).
	Moves [5]int
	// Computations is the number of M3 moves (= Moves[M3]).
	Computations int
}

// Simulate replays a schedule from the starting snapshot, enforcing
// every rule and the weighted red pebble constraint, and checks the
// stopping condition at the end. It is the single source of truth for
// schedule validity and cost in this repository: schedulers produce
// move sequences, Simulate certifies them.
func Simulate(g *cdag.Graph, budget cdag.Weight, s Schedule) (Stats, error) {
	st := NewState(g, budget)
	stats, err := SimulateFrom(st, s)
	if err != nil {
		return stats, err
	}
	if !st.Done() {
		for v := 0; v < g.Len(); v++ {
			id := cdag.NodeID(v)
			if g.IsSink(id) && !st.Label(id).HasBlue() {
				return stats, fmt.Errorf("wrbpg: stopping condition unmet: sink %d (%s) has label %s", id, g.Name(id), st.Label(id))
			}
		}
	}
	return stats, nil
}

// Cost computes the weighted cost of a schedule without validating it:
// the sum of node weights over all M1/M2 moves. Prefer Simulate when
// legality matters.
func Cost(g *cdag.Graph, s Schedule) cdag.Weight {
	var c cdag.Weight
	for _, m := range s {
		if m.Kind == M1 || m.Kind == M2 {
			c += g.Weight(m.Node)
		}
	}
	return c
}

// LowerBound returns the algorithmic lower bound of Proposition 2.4:
// the weighted sum of all sources and sinks. Every valid schedule
// costs at least this much, because each source must be loaded (M1)
// and each sink stored (M2) at least once.
func LowerBound(g *cdag.Graph) cdag.Weight {
	return g.SourceWeight() + g.SinkWeight()
}

// ScheduleExists reports whether a valid WRBPG schedule exists for g
// under the given budget (Proposition 2.3): for every non-source node
// v, w_v + Σ_{p∈H(v)} w_p ≤ B.
func ScheduleExists(g *cdag.Graph, budget cdag.Weight) bool {
	return g.MaxComputePressure() <= budget
}

// MinExistenceBudget returns the smallest budget for which a valid
// schedule exists: max over non-source v of w_v + Σ parents.
func MinExistenceBudget(g *cdag.Graph) cdag.Weight {
	return g.MaxComputePressure()
}
