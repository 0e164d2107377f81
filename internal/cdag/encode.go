package cdag

import (
	"encoding/json"
	"fmt"
	"io"
)

// Graphs are deployment artifacts alongside schedules: the memory
// design, the schedule and the CDAG it was generated for travel
// together (see core.Manifest). This file provides a stable JSON
// interchange form.

// InterchangeNode is the wire form of one node: its weight, its
// display name and the IDs of its parents, all earlier in the list.
type InterchangeNode struct {
	Weight  Weight   `json:"w"`
	Name    string   `json:"name,omitempty"`
	Parents []NodeID `json:"parents,omitempty"`
}

type graphJSON struct {
	Nodes []InterchangeNode `json:"nodes"`
}

// MarshalJSON encodes the graph as a node list in topological
// (insertion) order.
func (g *Graph) MarshalJSON() ([]byte, error) {
	nodes := make([]InterchangeNode, g.Len())
	for v := 0; v < g.Len(); v++ {
		id := NodeID(v)
		nodes[v] = InterchangeNode{Weight: g.Weight(id), Name: g.Name(id), Parents: g.Parents(id)}
	}
	return json.Marshal(graphJSON{Nodes: nodes})
}

// UnmarshalJSON decodes a graph written by MarshalJSON, re-validating
// the builder invariants (positive weights, backward parent edges).
func (g *Graph) UnmarshalJSON(data []byte) error {
	var raw graphJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	fresh, err := FromInterchange(raw.Nodes)
	if err != nil {
		return err
	}
	*g = *fresh
	return nil
}

// FromInterchange builds the graph an interchange node list describes,
// with the checks UnmarshalJSON makes: every weight positive, every
// parent an earlier node. Decoders that parse the list themselves call
// it, so a graph is accepted or refused the same way on every path.
func FromInterchange(nodes []InterchangeNode) (*Graph, error) {
	edges := 0
	for _, n := range nodes {
		edges += len(n.Parents)
	}
	g := &Graph{}
	g.Reserve(len(nodes), edges)
	for i, n := range nodes {
		if n.Weight <= 0 {
			return nil, fmt.Errorf("cdag: node %d has non-positive weight %d", i, n.Weight)
		}
		for _, p := range n.Parents {
			if p < 0 || int(p) >= i {
				return nil, fmt.Errorf("cdag: node %d has invalid parent %d", i, p)
			}
		}
		g.AddNode(n.Weight, n.Name, n.Parents...)
	}
	return g, nil
}

// WriteJSON streams the graph as indented JSON.
func (g *Graph) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// ReadJSON parses a graph written by WriteJSON.
func ReadJSON(r io.Reader) (*Graph, error) {
	var g Graph
	if err := json.NewDecoder(r).Decode(&g); err != nil {
		return nil, err
	}
	return &g, nil
}

// Equal reports whether two graphs have identical structure, weights
// and names.
func (g *Graph) Equal(o *Graph) bool {
	if g.Len() != o.Len() {
		return false
	}
	for v := 0; v < g.Len(); v++ {
		id := NodeID(v)
		if g.Weight(id) != o.Weight(id) || g.Name(id) != o.Name(id) {
			return false
		}
		gp, op := g.Parents(id), o.Parents(id)
		if len(gp) != len(op) {
			return false
		}
		for i := range gp {
			if gp[i] != op[i] {
				return false
			}
		}
	}
	return true
}
