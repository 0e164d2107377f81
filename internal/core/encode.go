package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"wrbpg/internal/cdag"
)

// Schedules are deployment artifacts: in the paper's domain they are
// compiled offline and burned into an implant's firmware alongside
// the memory design they were sized for. This file provides two
// interchange formats — a line-oriented text format ("M1 3") that is
// trivial to parse from C firmware, and JSON for tooling — plus a
// manifest type binding a schedule to the graph and budget it was
// generated for.

// MarshalText renders the schedule one move per line: "<kind> <node>".
func (s Schedule) MarshalText() ([]byte, error) {
	n := 0
	for _, m := range s {
		n += len(m.Kind.String()) + decimalLen(m.Node) + 2
	}
	b := make([]byte, 0, n)
	for _, m := range s {
		b = append(b, m.Kind.String()...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(m.Node), 10)
		b = append(b, '\n')
	}
	return b, nil
}

// decimalLen is the length of v's base-10 form, sign included.
func decimalLen(v cdag.NodeID) int {
	n, u := 1, int64(v)
	if u < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// UnmarshalText parses the line-oriented format produced by
// MarshalText. Blank lines and lines starting with '#' are ignored.
func (s *Schedule) UnmarshalText(data []byte) error {
	parsed, err := ParseSchedule(strings.NewReader(string(data)))
	if err != nil {
		return err
	}
	*s = parsed
	return nil
}

// ParseSchedule reads the text format from r.
func ParseSchedule(r io.Reader) (Schedule, error) {
	var out Schedule
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("core: schedule line %d: want \"<kind> <node>\", got %q", line, text)
		}
		var kind MoveKind
		switch fields[0] {
		case "M1":
			kind = M1
		case "M2":
			kind = M2
		case "M3":
			kind = M3
		case "M4":
			kind = M4
		default:
			return nil, fmt.Errorf("core: schedule line %d: unknown move kind %q", line, fields[0])
		}
		node, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil || node < 0 {
			return nil, fmt.Errorf("core: schedule line %d: bad node %q", line, fields[1])
		}
		out = append(out, Move{Kind: kind, Node: cdag.NodeID(node)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// moveJSON is the JSON wire form of a move.
type moveJSON struct {
	Kind string      `json:"kind"`
	Node cdag.NodeID `json:"node"`
}

// The canonical JSON form of a move, split around its two values.
const (
	moveJSONKind = `{"kind":"`
	moveJSONNode = `","node":`
)

// MarshalJSON encodes the schedule as an array of {kind, node}: the
// bytes json.Marshal gives for a []moveJSON, built in one exactly
// sized buffer.
func (s Schedule) MarshalJSON() ([]byte, error) {
	n := max(2, 1+2*len(s)) // brackets, closing braces and commas
	for _, m := range s {
		n += len(moveJSONKind) + len(m.Kind.String()) + len(moveJSONNode) + decimalLen(m.Node)
	}
	b := make([]byte, 0, n)
	b = append(b, '[')
	for i, m := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, moveJSONKind...)
		b = append(b, m.Kind.String()...)
		b = append(b, moveJSONNode...)
		b = strconv.AppendInt(b, int64(m.Node), 10)
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// UnmarshalJSON decodes the array form: any JSON that encoding/json
// can read into a list of {kind, node} objects.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	var raw []moveJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make(Schedule, len(raw))
	for i, m := range raw {
		switch m.Kind {
		case "M1":
			out[i] = Move{M1, m.Node}
		case "M2":
			out[i] = Move{M2, m.Node}
		case "M3":
			out[i] = Move{M3, m.Node}
		case "M4":
			out[i] = Move{M4, m.Node}
		default:
			return fmt.Errorf("core: unknown move kind %q at index %d", m.Kind, i)
		}
	}
	*s = out
	return nil
}

// AppendBinary appends the packed form of the schedule to b: a uvarint
// move count, then one uvarint node<<2 | (kind-1) per move. It is the
// replica-to-replica form of a move list, about 2 bytes a move where
// JSON takes 25. b grows at most once, to exactly the size needed.
// Moves on negative nodes or of unknown kinds have no packed form.
func (s Schedule) AppendBinary(b []byte) ([]byte, error) {
	n := uvarintLen(uint64(len(s)))
	for i, m := range s {
		if m.Kind < M1 || m.Kind > M4 || m.Node < 0 {
			return b, fmt.Errorf("core: move %d (%v) has no packed form", i, m)
		}
		n += uvarintLen(packMove(m))
	}
	b = slices.Grow(b, n)
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, m := range s {
		b = binary.AppendUvarint(b, packMove(m))
	}
	return b, nil
}

// packMove is a move's packed value: node<<2 | (kind-1).
func packMove(m Move) uint64 { return uint64(m.Node)<<2 | uint64(m.Kind-M1) }

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// UnmarshalBinary decodes the packed form AppendBinary writes into a
// schedule of exactly its length. Every move takes at least one byte,
// so a count the input cannot hold is rejected before anything is
// allocated; so are truncated varints, nodes beyond int32, and bytes
// after the last move.
func (s *Schedule) UnmarshalBinary(data []byte) error {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return fmt.Errorf("core: packed schedule: bad move count")
	}
	data = data[k:]
	if n > uint64(len(data)) {
		return fmt.Errorf("core: packed schedule: %d moves announced in %d bytes", n, len(data))
	}
	// No moves decode as nil, the way a result whose empty schedule
	// JSON omitted decodes.
	var out Schedule
	if n > 0 {
		out = make(Schedule, n)
	}
	for i := range out {
		v, k := binary.Uvarint(data)
		if k <= 0 {
			return fmt.Errorf("core: packed schedule: move %d truncated", i)
		}
		if v>>2 > math.MaxInt32 {
			return fmt.Errorf("core: packed schedule: move %d node %d out of range", i, v>>2)
		}
		out[i] = Move{Kind: M1 + MoveKind(v&3), Node: cdag.NodeID(v >> 2)} // inverts packMove
		data = data[k:]
	}
	if len(data) > 0 {
		return fmt.Errorf("core: packed schedule: %d bytes after the last move", len(data))
	}
	*s = out
	return nil
}

// Manifest binds a schedule to the budget and expected metrics it was
// generated under, so a loader can refuse a schedule that does not
// match its memory design.
type Manifest struct {
	// Workload is a free-form label, e.g. "DWT(256,8)/Equal".
	Workload string `json:"workload"`
	// BudgetBits is the fast-memory budget the schedule was sized for.
	BudgetBits cdag.Weight `json:"budget_bits"`
	// CostBits and PeakBits are the expected weighted I/O and peak
	// residency; Verify checks them.
	CostBits cdag.Weight `json:"cost_bits"`
	PeakBits cdag.Weight `json:"peak_bits"`
	// Moves is the schedule itself.
	Moves Schedule `json:"moves"`
}

// NewManifest simulates the schedule and records its metrics.
func NewManifest(workload string, g *cdag.Graph, budget cdag.Weight, s Schedule) (*Manifest, error) {
	stats, err := Simulate(g, budget, s)
	if err != nil {
		return nil, err
	}
	return &Manifest{
		Workload:   workload,
		BudgetBits: budget,
		CostBits:   stats.Cost,
		PeakBits:   stats.PeakRedWeight,
		Moves:      s,
	}, nil
}

// Verify re-simulates the manifest against a graph and confirms the
// recorded metrics still hold — the loader-side check.
func (m *Manifest) Verify(g *cdag.Graph) error {
	stats, err := Simulate(g, m.BudgetBits, m.Moves)
	if err != nil {
		return fmt.Errorf("core: manifest %q: %w", m.Workload, err)
	}
	if stats.Cost != m.CostBits {
		return fmt.Errorf("core: manifest %q: cost %d != recorded %d", m.Workload, stats.Cost, m.CostBits)
	}
	if stats.PeakRedWeight != m.PeakBits {
		return fmt.Errorf("core: manifest %q: peak %d != recorded %d", m.Workload, stats.PeakRedWeight, m.PeakBits)
	}
	return nil
}

// WriteManifest serializes a manifest as indented JSON.
func WriteManifest(w io.Writer, m *Manifest) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ReadManifest parses a manifest written by WriteManifest.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}
