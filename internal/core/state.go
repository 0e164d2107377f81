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
	var stats Stats
	if _, f := s.replay(Schedule{m}, &stats); f != legal {
		return 0, s.ruleError(m, f, -1)
	}
	return stats.Cost, nil
}

// fault names the rule of the game a move breaks; legal is none.
type fault uint8

const (
	legal fault = iota
	outOfRange
	m1NoBlue
	m1HasRed
	m2NoRed
	m2HasBlue
	m3HasRed
	m3Source
	m3ParentNotRed
	m4NoRed
	overBudget
	unknownKind
)

// replay applies the moves of sched in order, accumulating their
// statistics into stats, until one is illegal; it returns that move's
// position and the rule it breaks, leaving the state as it was before
// the move, or len(sched) and legal. It is the game's one rule checker,
// Apply included: a legal move costs a few label bit tests and no
// error value, and ruleError describes only the move that fails.
func (s *State) replay(sched Schedule, stats *Stats) (int, fault) {
	g, labels, budget := s.g, s.labels, s.budget
	red, peak := s.redWeight, stats.PeakRedWeight
	i, f := 0, legal
	for ; i < len(sched); i++ {
		m := sched[i]
		v := m.Node
		if v < 0 || int(v) >= len(labels) {
			f = outOfRange
			break
		}
		l := labels[v]
		switch m.Kind {
		case M1:
			w := g.Weight(v)
			switch {
			case l&LabelBlue == 0:
				f = m1NoBlue
			case l&LabelRed != 0:
				f = m1HasRed
			case red+w > budget:
				f = overBudget
			default:
				labels[v] = LabelBoth
				red += w
				stats.Cost += w
				stats.InputCost += w
			}
		case M2:
			switch {
			case l&LabelRed == 0:
				f = m2NoRed
			case l&LabelBlue != 0:
				f = m2HasBlue
			default:
				labels[v] = LabelBoth
				w := g.Weight(v)
				stats.Cost += w
				stats.OutputCost += w
			}
		case M3:
			ps := g.Parents(v)
			switch {
			case l&LabelRed != 0:
				f = m3HasRed
			case len(ps) == 0:
				f = m3Source
			default:
				for _, p := range ps {
					if labels[p]&LabelRed == 0 {
						f = m3ParentNotRed
						break
					}
				}
				w := g.Weight(v)
				if f == legal && red+w > budget {
					f = overBudget
				}
				if f == legal {
					labels[v] = l | LabelRed
					red += w
					stats.Computations++
				}
			}
		case M4:
			if l&LabelRed == 0 {
				f = m4NoRed
			} else {
				labels[v] = l &^ LabelRed
				red -= g.Weight(v)
			}
		default:
			f = unknownKind
		}
		if f != legal {
			break
		}
		stats.Moves[m.Kind]++
		peak = max(peak, red)
	}
	s.redWeight, stats.PeakRedWeight = red, peak
	return i, f
}

// ruleError describes the fault replay reported for m, which the state
// is still in, at schedule position i (-1 when applied ad hoc).
func (s *State) ruleError(m Move, f fault, i int) *RuleError {
	e := &RuleError{Move: m, Index: i}
	switch f {
	case outOfRange:
		e.Reason = "node out of range"
	case m1NoBlue:
		e.Reason = "M1 requires a blue pebble on the node"
	case m1HasRed:
		e.Reason = "M1 on a node that already holds a red pebble"
	case m2NoRed:
		e.Reason = "M2 requires a red pebble on the node"
	case m2HasBlue:
		e.Reason = "M2 on a node that already holds a blue pebble"
	case m3HasRed:
		e.Reason = "M3 on a node that already holds a red pebble"
	case m3Source:
		e.Reason = "M3 on a source node (inputs are not computed)"
	case m3ParentNotRed:
		for _, p := range s.g.Parents(m.Node) {
			if l := s.labels[p]; !l.HasRed() {
				e.Reason = fmt.Sprintf("M3 requires red pebbles on all parents; parent %d is %s", p, l)
				break
			}
		}
	case m4NoRed:
		e.Reason = "M4 requires a red pebble on the node"
	case overBudget:
		e.Reason = fmt.Sprintf("weighted red constraint violated: %d+%d > budget %d", s.redWeight, s.g.Weight(m.Node), s.budget)
	default:
		e.Reason = "unknown move kind"
	}
	return e
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
