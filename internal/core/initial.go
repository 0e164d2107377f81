package core

import (
	"fmt"

	"wrbpg/internal/cdag"
)

// NewStateWithLabels returns a snapshot with caller-chosen labels,
// used to validate schedule fragments that begin mid-computation
// (e.g. a tile with an initial memory state per Section 4.1). The
// label vector must respect the budget; sources keep their blue
// pebbles implicitly only if the caller says so — the labels are
// taken verbatim.
func NewStateWithLabels(g *cdag.Graph, budget cdag.Weight, labels []Label) (*State, error) {
	if len(labels) != g.Len() {
		return nil, fmt.Errorf("wrbpg: label vector length %d != node count %d", len(labels), g.Len())
	}
	s := &State{g: g, budget: budget, labels: append([]Label(nil), labels...)}
	for v, l := range labels {
		if l.HasRed() {
			s.redWeight += g.Weight(cdag.NodeID(v))
		}
	}
	if s.redWeight > budget {
		return nil, fmt.Errorf("wrbpg: initial red weight %d exceeds budget %d", s.redWeight, budget)
	}
	return s, nil
}

// SimulateFrom replays a schedule from an arbitrary starting state,
// returning stats. It does not check the stopping condition — the
// caller decides what "done" means for a fragment.
func SimulateFrom(st *State, s Schedule) (Stats, error) {
	var stats Stats
	stats.PeakRedWeight = st.RedWeight()
	if i, f := st.replay(s, &stats); f != legal {
		return stats, st.ruleError(s[i], f, i)
	}
	return stats, nil
}
