// Package core implements the Weighted Red-Blue Pebble Game (WRBPG),
// the primary contribution of the paper.
//
// The game is played on a node-weighted CDAG (package cdag) with a
// weighted red-pebble budget B. The four moves are those of the
// classic red-blue pebble game of Hong & Kung:
//
//	M1(v)  copy to fast memory  — add a red pebble to a node with a blue pebble
//	M2(v)  copy to slow memory  — add a blue pebble to a node with a red pebble
//	M3(v)  compute              — if all parents of v hold red pebbles, add a red pebble to v
//	M4(v)  delete a red pebble  — blue pebbles are never deleted
//
// Every source node starts with a blue pebble; the game ends when all
// sink nodes hold blue pebbles. The weighted red pebble constraint
// (Definition 2.1) requires the total weight of red-pebbled nodes to
// stay at or below B after every move. The weighted schedule cost
// (Definition 2.2) is the sum of node weights over all M1 and M2
// moves.
package core

import (
	"fmt"
	"strings"

	"wrbpg/internal/cdag"
)

// MoveKind enumerates the four moves of the game.
type MoveKind uint8

const (
	// M1 copies a node from slow to fast memory (blue → +red).
	M1 MoveKind = iota + 1
	// M2 copies a node from fast to slow memory (red → +blue).
	M2
	// M3 computes a node whose parents are all red, placing a red pebble.
	M3
	// M4 deletes a red pebble.
	M4
)

// String returns the paper's name for the move kind.
func (k MoveKind) String() string {
	switch k {
	case M1:
		return "M1"
	case M2:
		return "M2"
	case M3:
		return "M3"
	case M4:
		return "M4"
	default:
		return fmt.Sprintf("MoveKind(%d)", uint8(k))
	}
}

// Move is a single step σ of a schedule: one of M1..M4 applied to a node.
type Move struct {
	Kind MoveKind
	Node cdag.NodeID
}

func (m Move) String() string { return fmt.Sprintf("%s(%d)", m.Kind, m.Node) }

// Schedule is a sequence of moves S_G = (σ1, ..., σt).
type Schedule []Move

// Append returns s with the given moves appended; a fluent helper for
// schedule construction.
func (s Schedule) Append(moves ...Move) Schedule { return append(s, moves...) }

// String renders the schedule compactly, e.g. "M1(0) M1(1) M3(2)".
func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, m := range s {
		parts[i] = m.String()
	}
	return strings.Join(parts, " ")
}

// Label is the pebbling state λ_v of a node within a snapshot.
type Label uint8

const (
	// LabelNone marks a node with no pebbles.
	LabelNone Label = iota
	// LabelRed marks a node resident only in fast memory.
	LabelRed
	// LabelBlue marks a node resident only in slow memory.
	LabelBlue
	// LabelBoth marks a node resident in both memories.
	LabelBoth
)

// String returns the label name used in the paper.
func (l Label) String() string {
	switch l {
	case LabelNone:
		return "none"
	case LabelRed:
		return "red"
	case LabelBlue:
		return "blue"
	case LabelBoth:
		return "both"
	default:
		return fmt.Sprintf("Label(%d)", uint8(l))
	}
}

// HasRed reports whether the label includes a red pebble. A label is
// a set of two pebble bits, LabelRed and LabelBlue, so it is one bit
// test.
func (l Label) HasRed() bool { return l&LabelRed != 0 }

// HasBlue reports whether the label includes a blue pebble.
func (l Label) HasBlue() bool { return l&LabelBlue != 0 }
