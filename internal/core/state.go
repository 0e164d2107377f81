package core

import (
	"fmt"

	"wrbpg/internal/cdag"
)

// State is a mutable game snapshot C_i: a label per node plus the
// running total weight of red pebbles. It applies moves one at a time,
// enforcing the rules of the game and the weighted red pebble
// constraint.
type State struct {
	g         *cdag.Graph
	budget    cdag.Weight
	labels    []Label
	redWeight cdag.Weight
}

// NewState returns the starting snapshot C_0 for graph g under the
// given weighted budget: every source node holds a blue pebble, all
// other nodes are empty.
func NewState(g *cdag.Graph, budget cdag.Weight) *State {
	s := &State{g: g, budget: budget, labels: make([]Label, g.Len())}
	for v := range s.labels {
		if g.IsSource(cdag.NodeID(v)) {
			s.labels[v] = LabelBlue
		}
	}
	return s
}

// Graph returns the underlying CDAG.
func (s *State) Graph() *cdag.Graph { return s.g }

// Budget returns the weighted red pebble budget B.
func (s *State) Budget() cdag.Weight { return s.budget }

// Label returns λ_v for node v.
func (s *State) Label(v cdag.NodeID) Label { return s.labels[v] }

// RedWeight returns Σ_{v∈R(C)} w_v, the weight currently held in fast
// memory.
func (s *State) RedWeight() cdag.Weight { return s.redWeight }

// RuleError describes an illegal move: which rule of the game it
// violates and the state it was attempted in.
type RuleError struct {
	Move   Move
	Index  int // position in the schedule, -1 when applied ad hoc
	Reason string
}

func (e *RuleError) Error() string {
	if e.Index >= 0 {
		return fmt.Sprintf("wrbpg: illegal move %s at step %d: %s", e.Move, e.Index, e.Reason)
	}
	return fmt.Sprintf("wrbpg: illegal move %s: %s", e.Move, e.Reason)
}

// Apply performs a single move, mutating the state. It returns the
// weighted I/O cost incurred by the move (w_v for M1/M2, zero for
// M3/M4) or a *RuleError if the move is illegal in the current state.
func (s *State) Apply(m Move) (cdag.Weight, error) {
	v := m.Node
	if v < 0 || int(v) >= len(s.labels) {
		return 0, &RuleError{Move: m, Index: -1, Reason: "node out of range"}
	}
	w := s.g.Weight(v)
	l := s.labels[v]
	switch m.Kind {
	case M1:
		if !l.HasBlue() {
			return 0, &RuleError{Move: m, Index: -1, Reason: "M1 requires a blue pebble on the node"}
		}
		if l.HasRed() {
			return 0, &RuleError{Move: m, Index: -1, Reason: "M1 on a node that already holds a red pebble"}
		}
		if s.redWeight+w > s.budget {
			return 0, &RuleError{Move: m, Index: -1, Reason: fmt.Sprintf("weighted red constraint violated: %d+%d > budget %d", s.redWeight, w, s.budget)}
		}
		s.labels[v] = LabelBoth
		s.redWeight += w
		return w, nil
	case M2:
		if !l.HasRed() {
			return 0, &RuleError{Move: m, Index: -1, Reason: "M2 requires a red pebble on the node"}
		}
		if l.HasBlue() {
			return 0, &RuleError{Move: m, Index: -1, Reason: "M2 on a node that already holds a blue pebble"}
		}
		s.labels[v] = LabelBoth
		return w, nil
	case M3:
		if l.HasRed() {
			return 0, &RuleError{Move: m, Index: -1, Reason: "M3 on a node that already holds a red pebble"}
		}
		if s.g.IsSource(v) {
			return 0, &RuleError{Move: m, Index: -1, Reason: "M3 on a source node (inputs are not computed)"}
		}
		for _, p := range s.g.Parents(v) {
			if !s.labels[p].HasRed() {
				return 0, &RuleError{Move: m, Index: -1, Reason: fmt.Sprintf("M3 requires red pebbles on all parents; parent %d is %s", p, s.labels[p])}
			}
		}
		if s.redWeight+w > s.budget {
			return 0, &RuleError{Move: m, Index: -1, Reason: fmt.Sprintf("weighted red constraint violated: %d+%d > budget %d", s.redWeight, w, s.budget)}
		}
		if l.HasBlue() {
			s.labels[v] = LabelBoth
		} else {
			s.labels[v] = LabelRed
		}
		s.redWeight += w
		return 0, nil
	case M4:
		if !l.HasRed() {
			return 0, &RuleError{Move: m, Index: -1, Reason: "M4 requires a red pebble on the node"}
		}
		if l.HasBlue() {
			s.labels[v] = LabelBlue
		} else {
			s.labels[v] = LabelNone
		}
		s.redWeight -= w
		return 0, nil
	default:
		return 0, &RuleError{Move: m, Index: -1, Reason: "unknown move kind"}
	}
}

// Done reports whether the stopping condition holds: every sink node
// carries a blue pebble.
func (s *State) Done() bool {
	for v := 0; v < s.g.Len(); v++ {
		id := cdag.NodeID(v)
		if s.g.IsSink(id) && !s.labels[id].HasBlue() {
			return false
		}
	}
	return true
}

// RedSet returns R(C): the nodes currently holding red pebbles, in ID
// order.
func (s *State) RedSet() []cdag.NodeID {
	var out []cdag.NodeID
	for v, l := range s.labels {
		if l.HasRed() {
			out = append(out, cdag.NodeID(v))
		}
	}
	return out
}

// BlueSet returns B(C): the nodes currently holding blue pebbles, in
// ID order.
func (s *State) BlueSet() []cdag.NodeID {
	var out []cdag.NodeID
	for v, l := range s.labels {
		if l.HasBlue() {
			out = append(out, cdag.NodeID(v))
		}
	}
	return out
}

// Clone returns an independent copy of the state.
func (s *State) Clone() *State {
	labels := make([]Label, len(s.labels))
	copy(labels, s.labels)
	return &State{g: s.g, budget: s.budget, labels: labels, redWeight: s.redWeight}
}
